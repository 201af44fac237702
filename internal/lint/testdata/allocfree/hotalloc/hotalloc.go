// Package hotalloc is the deliberate hot-path allocator: the
// allocfree cross-validation fixture. TestAllocFreeHotAlloc pins the
// per-event closure in Pump to its exact file:line, and
// internal/sim/allocsentinel_test.go (-tags simdebug) drives the same
// two pump shapes under the runtime allocation sentinel — one bug,
// two catchers, mirroring the pktown/uaf contract.
package hotalloc

import "ddosim/internal/sim"

// Pump is a self-rearming event loop that allocates a fresh capturing
// closure for every event it schedules — the exact bug class the
// pre-bound-callback idiom (Flooder.tickFn, TCPConn.rtoFn) exists to
// prevent.
//
//simlint:hotpath
func Pump(s *sim.Scheduler, budget *int) {
	if *budget <= 0 {
		return
	}
	*budget--
	s.Schedule(1, func() { Pump(s, budget) })
}

// BoundPump is the fixed shape: the re-arm callback is bound once in
// setup, so the hot tick schedules a stored func value and allocates
// nothing.
type BoundPump struct {
	s      *sim.Scheduler
	budget int
	fn     func()
}

// NewBoundPump binds the tick callback once. Construction is cold —
// neither the escaping composite nor the bound method value here is a
// finding, because no hot root reaches this function.
func NewBoundPump(s *sim.Scheduler, budget int) *BoundPump {
	p := &BoundPump{s: s, budget: budget}
	p.fn = p.Tick
	return p
}

// Tick re-arms through the pre-bound callback and must stay silent.
//
//simlint:hotpath
func (p *BoundPump) Tick() {
	if p.budget <= 0 {
		return
	}
	p.budget--
	p.s.Schedule(1, p.fn)
}

// Start schedules the first tick; like construction it is cold.
func (p *BoundPump) Start() {
	p.s.Schedule(1, p.fn)
}

// Done reports whether the pump has drained its budget.
func (p *BoundPump) Done() bool { return p.budget <= 0 }
