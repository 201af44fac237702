// Package stalefix exercises the stalecapture analyzer: scheduler
// callbacks capturing pooled packets whose lifetime ends before the
// event can fire under the slot/generation kernel.
package stalefix

import (
	"ddosim/internal/netsim"
	"ddosim/internal/sim"
)

// BadBorrowCapture schedules a callback over a borrowed packet: the
// borrow ends when this function returns, the event fires later.
func BadBorrowCapture(sched *sim.Scheduler, pkt *netsim.Packet) {
	sched.Schedule(sim.Millisecond, fixture, func() {
		_ = pkt.Size()
	})
}

// BadLoopVarCapture captures the per-iteration range variable of a
// borrowed batch — every one of those borrows is dead by fire time.
func BadLoopVarCapture(sched *sim.Scheduler, batch []*netsim.Packet) {
	for _, p := range batch {
		sched.Schedule(sim.Millisecond, fixture, func() {
			_ = p.Size()
		})
	}
}

// BadDeadCapture schedules a callback over a packet that was already
// released at capture time.
func BadDeadCapture(sched *sim.Scheduler, w *netsim.Network) {
	p := w.AllocPacket()
	w.ReleasePacket(p)
	sched.Schedule(sim.Millisecond, fixture, func() {
		_ = p.PayloadSize()
	})
}

// BadReleaseWhileCaptured releases an owned packet that a pending
// callback still references.
func BadReleaseWhileCaptured(sched *sim.Scheduler, w *netsim.Network) {
	p := w.AllocPacket()
	sched.Schedule(sim.Millisecond, fixture, func() {
		_ = p.PayloadSize()
	})
	w.ReleasePacket(p)
}

// BadTickerCapture: NewTicker callbacks outlive the frame exactly like
// Schedule ones.
func BadTickerCapture(sched *sim.Scheduler, pkt *netsim.Packet) *sim.Ticker {
	return sim.NewTicker(sched, sim.Second, fixture, func() {
		_ = pkt.PayloadSize()
	})
}

// OkOwnedTransfer captures an owned packet and never touches it again:
// ownership moves into the callback (which releases it) — the
// sanctioned loopback idiom.
func OkOwnedTransfer(sched *sim.Scheduler, w *netsim.Network) {
	p := w.AllocPacket()
	sched.Schedule(sim.Microsecond, fixture, func() {
		w.ReleasePacket(p)
	})
}

// OkCloneCapture clones before scheduling, so the callback owns its
// own copy whatever happens to the original.
func OkCloneCapture(sched *sim.Scheduler, w *netsim.Network, pkt *netsim.Packet) {
	cp := pkt.Clone()
	sched.Schedule(sim.Millisecond, fixture, func() {
		_ = cp.Size()
	})
}

// OkPlainValueCapture captures only non-pooled values; nothing to
// report regardless of callback lifetime.
func OkPlainValueCapture(sched *sim.Scheduler, pkt *netsim.Packet) {
	size := pkt.Size()
	sched.Schedule(sim.Millisecond, fixture, func() {
		_ = size
	})
}

// OkAllowed is the audited suppression of a borrowed capture.
func OkAllowed(sched *sim.Scheduler, pkt *netsim.Packet) {
	//simlint:allow stalecapture(fixture demonstrates audited suppression of a capture finding)
	sched.Schedule(sim.Millisecond, fixture, func() {
		_ = pkt.Size()
	})
}

// fixture labels the fixture's events; declared last so the findings
// above keep their lines.
var fixture = sim.NewSource("fixture")
