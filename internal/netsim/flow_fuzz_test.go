package netsim

import (
	"fmt"
	"net/netip"
	"slices"
	"testing"

	"ddosim/internal/obs"
	"ddosim/internal/sim"
)

// refFlowKey is the reference model's flow key: the two endpoints as
// netip.AddrPorts and the protocol, with no packing and no ids.
type refFlowKey struct {
	src, dst netip.AddrPort
	proto    Protocol
}

// refFlow is one live flow of the reference model.
type refFlow struct {
	key            refFlowKey
	label          string
	start, last    sim.Time
	packets, bytes uint64
	flags          TCPFlags
}

// refFlowTable is the flow table's reference model: a map from key to
// flow, the live flows in creation order, and the records exported so
// far. A checkpoint restarts a flow in place, keeping its position.
type refFlowTable struct {
	live  map[refFlowKey]*refFlow
	order []*refFlow
	out   []obs.FlowRecord
	label func(refFlowKey) string
}

func (m *refFlowTable) export(f *refFlow, reason string) {
	m.out = append(m.out, obs.FlowRecord{
		StartUS: int64(f.start / sim.Microsecond), EndUS: int64(f.last / sim.Microsecond),
		Proto: f.key.proto.String(), Src: f.key.src, Dst: f.key.dst,
		Packets: f.packets, Bytes: f.bytes, TCPFlags: uint8(f.flags),
		Label: f.label, Reason: reason,
	})
}

// record accounts one packet sent at now, checkpointing a flow that
// has outlived the active timeout first.
func (m *refFlowTable) record(k refFlowKey, now sim.Time, size int, flags TCPFlags) {
	f := m.live[k]
	if f == nil {
		f = &refFlow{key: k, label: m.label(k), start: now}
		m.live[k] = f
		m.order = append(m.order, f)
	} else if now-f.start >= flowActiveTimeout {
		m.export(f, obs.FlowActive)
		f.start, f.packets, f.bytes, f.flags = now, 0, 0, 0
	}
	f.last = now
	f.packets++
	f.bytes += uint64(size)
	f.flags |= flags
}

// sweep closes, in creation order, every flow idle at now.
func (m *refFlowTable) sweep(now sim.Time) {
	m.order = slices.DeleteFunc(m.order, func(f *refFlow) bool {
		if now-f.last < flowIdleTimeout {
			return false
		}
		m.export(f, obs.FlowIdle)
		delete(m.live, f.key)
		return true
	})
}

// flush closes every live flow, in creation order.
func (m *refFlowTable) flush() {
	for _, f := range m.order {
		m.export(f, obs.FlowFinal)
	}
	m.order, m.live = nil, nil
}

// flowFuzzSteps are the clock advances a fuzz input picks from: none,
// within a sweep period, and either side of both timeouts.
var flowFuzzSteps = []sim.Time{
	0, sim.Microsecond, 500 * sim.Millisecond, sim.Second, 999 * sim.Millisecond,
	14 * sim.Second, flowIdleTimeout, 16 * sim.Second, 45 * sim.Second,
	59 * sim.Second, flowActiveTimeout, 61 * sim.Second,
}

// flowFuzzPort is the port the fuzzed table's one label rule marks
// "attack".
const flowFuzzPort = 1003

// runFlowOps feeds data, four bytes an op, to a flow table on a star
// of three hosts and to the reference model, and requires both to
// export the same records. An op whose first byte is 3 mod 4 advances
// the clock by flowFuzzSteps[second byte]; any other sends one packet
// from endpoint (second byte) to endpoint (third byte) of six, two
// per host (its IPv4 and its IPv6 address). It is UDP when the first
// byte is 0 or 1 mod 4, TCP with the fourth byte's low four bits as
// flags when it is 2; the fourth byte pads the payload.
func runFlowOps(t *testing.T, data []byte) {
	sched, w, star := newStar(t, 1)
	buf := &obs.FlowBuffer{}
	ft := w.EnableFlows(buf)
	w.AddFlowLabelRule(FlowLabelRule{Port: flowFuzzPort, Label: "attack"})
	var hosts []*Node
	var eps []netip.AddrPort
	for i := 0; i < 3; i++ {
		h := star.AttachHost(fmt.Sprintf("h%d", i), 100*Mbps, sim.Millisecond, 0)
		h.SetFilter(func(*Packet) bool { return false }) // no host answers
		hosts = append(hosts, h)
		eps = append(eps,
			netip.AddrPortFrom(h.Addr4(), uint16(1000+2*i)),
			netip.AddrPortFrom(h.Addr6(), uint16(1001+2*i)))
	}
	m := &refFlowTable{live: map[refFlowKey]*refFlow{}, label: func(k refFlowKey) string {
		if k.src.Port() == flowFuzzPort || k.dst.Port() == flowFuzzPort {
			return "attack"
		}
		return "benign"
	}}

	for ; len(data) >= 4; data = data[4:] {
		op := data[0] % 4
		if op == 3 {
			from, to := sched.Now(), sched.Now()+flowFuzzSteps[int(data[1])%len(flowFuzzSteps)]
			if err := sched.Run(to); err != nil {
				t.Fatal(err)
			}
			for s := (from/flowSweepPeriod + 1) * flowSweepPeriod; s <= to; s += flowSweepPeriod {
				m.sweep(s)
			}
		} else {
			s, d := int(data[1])%len(eps), int(data[2])%len(eps)
			host := hosts[s/2]
			pkt := host.getPacket()
			pkt.Proto, pkt.Src, pkt.Dst, pkt.Pad = ProtoUDP, eps[s], eps[d], int(data[3])
			var flags TCPFlags
			if op == 2 {
				flags = TCPFlags(data[3] & 0x0f)
				pkt.Proto = ProtoTCP
				pkt.SetTCP(flags, 0, 0)
			}
			m.record(refFlowKey{eps[s], eps[d], pkt.Proto}, sched.Now(), pkt.Size(), flags)
			host.SendPacket(pkt)
		}
		if ft.Active() != len(m.live) {
			t.Fatalf("at %v: %d live flows, want %d", sched.Now(), ft.Active(), len(m.live))
		}
	}
	ft.Stop()
	ft.FlushAll(sched.Now())
	m.flush()

	got := buf.Records()
	for i := 0; i < len(got) && i < len(m.out); i++ {
		if got[i] != m.out[i] {
			t.Fatalf("record %d:\n got %+v\nwant %+v", i, got[i], m.out[i])
		}
	}
	if len(got) != len(m.out) {
		t.Fatalf("%d records, want %d", len(got), len(m.out))
	}
}

// FuzzFlowTable checks the flow table, its per-node hints and its
// endpoint ids against the reference model (see runFlowOps).
func FuzzFlowTable(f *testing.F) {
	send := func(s, d, flags byte) []byte { return []byte{0, s, d, flags} }
	tcp := func(s, d, flags byte) []byte { return []byte{2, s, d, flags} }
	wait := func(step byte) []byte { return []byte{3, step, 0, 0} }
	f.Add(slices.Concat(send(0, 2, 10), send(0, 2, 10), wait(6), send(0, 3, 0), wait(3)))
	// UDP and TCP between one pair of endpoints are two flows.
	f.Add(slices.Concat(send(2, 4, 0), tcp(2, 4, 1), send(2, 4, 0), wait(6), tcp(2, 4, 2)))
	// A flow kept alive every 14 s past the active timeout.
	f.Add(slices.Concat(tcp(1, 5, 1), wait(5), tcp(1, 5, 2), wait(5), tcp(1, 5, 2),
		wait(5), tcp(1, 5, 2), wait(5), tcp(1, 5, 6), wait(5), tcp(1, 5, 8)))
	// Each host alternates flows, so its hint keeps missing; a sweep
	// recycles slots between the rounds.
	round := slices.Concat(send(0, 2, 1), send(2, 4, 1), send(0, 4, 1), send(4, 0, 1),
		tcp(3, 1, 3), send(2, 2, 1), send(5, 3, 1))
	f.Add(slices.Concat(round, wait(7), round, wait(2), round, wait(11), round))
	f.Fuzz(runFlowOps)
}
