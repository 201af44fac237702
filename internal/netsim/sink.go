package netsim

import (
	"net/netip"

	"ddosim/internal/sim"
)

// Sink is the customized NS-3 sink application of §II-C: installed on
// the TServer node, it observes every packet delivered to the node —
// UDP floods, TCP SYN/ACK floods, anything — and logs the per-second
// received volume for later analysis ("the received data rate at
// TServer during one second"), which Eq. 2's D_received averages.
//
// Its tallies are arrays and slices, so a delivered packet hashes
// nothing: bytes per second in a slice indexed from second 0 (sim time
// starts at 0 and a tap sees packets in clock order, so the slice only
// ever grows at its end), bytes per protocol in an array indexed by
// Protocol, and bytes per source address under the packet's origin node
// (Packet.origin). A node's first source address gets its byOrigin
// slot; any other address it sends from (its second address family,
// or a Src that is not its own) is tallied in other. Queries merge
// the two, so they stay exact for any source address.
type Sink struct {
	node *Node
	sock *UDPSocket

	rxPackets uint64
	rxBytes   uint64
	perSec    []uint64 // perSec[i] is the bytes received in second i
	byOrigin  []srcTally
	other     []srcTally
	byProto   [1 << 8]uint64

	suspended bool
	missed    uint64
}

// srcTally is the bytes received from one source address. A tally with
// no bytes is unused: every frame is at least a header long.
type srcTally struct {
	addr  netip.Addr
	bytes uint64
}

// InstallSink attaches a sink application to node. It additionally
// binds the given UDP port so volumetric UDP floods are consumed
// rather than counted as local drops; all accounting happens at the
// node tap, so non-UDP attack traffic is measured too.
func InstallSink(node *Node, port uint16) (*Sink, error) {
	s := &Sink{node: node}
	sock, err := node.BindUDP(port, nil)
	if err != nil {
		return nil, err
	}
	s.sock = sock
	node.AddTap(s.onPacket)
	return s, nil
}

//simlint:hotpath
func (s *Sink) onPacket(at sim.Time, pkt *Packet) {
	if s.suspended {
		s.missed++
		return
	}
	// Eq. 2 counts "the total size of the packets received": the full
	// on-wire frame, which is also what Wireshark reports in the
	// hardware validation — and what makes header-only SYN/ACK floods
	// measurable.
	n := pkt.Size()
	s.rxPackets++
	a := pkt.Src.Addr()
	if o := int(pkt.origin); o < len(s.byOrigin) && s.byOrigin[o].addr == a {
		s.byOrigin[o].bytes += uint64(n)
	} else {
		s.tally(o, a, uint64(n))
	}
	s.byProto[pkt.Proto] += uint64(n)
	sec := int(at / sim.Second)
	if sec >= len(s.perSec) {
		//simlint:allow allocfree(once per new last second: the slice grows by amortized doubling as the run's clock advances)
		s.perSec = append(s.perSec, make([]uint64, sec+1-len(s.perSec))...)
	}
	s.perSec[sec] += uint64(n)
	s.rxBytes += uint64(n)
}

// tally adds n bytes from source address a, sent by origin node o,
// when a is not the address in o's byOrigin slot: o's first packet,
// or a packet from an address other than o's first.
func (s *Sink) tally(o int, a netip.Addr, n uint64) {
	if o >= len(s.byOrigin) {
		//simlint:allow allocfree(runs on the first packet from a node with a higher id than any seen; the slice then covers it for the rest of the run)
		s.byOrigin = append(s.byOrigin, make([]srcTally, o+1-len(s.byOrigin))...)
	}
	if t := &s.byOrigin[o]; t.bytes == 0 {
		t.addr, t.bytes = a, n
		return
	}
	for i := range s.other {
		if s.other[i].addr == a {
			s.other[i].bytes += n
			return
		}
	}
	s.other = append(s.other, srcTally{addr: a, bytes: n}) //simlint:allow allocfree(once per source address that is not its origin's first; floods send from one address per node)
}

// tallies calls fn for every used source tally.
func (s *Sink) tallies(fn func(srcTally)) {
	for _, t := range s.byOrigin {
		if t.bytes > 0 {
			fn(t)
		}
	}
	for _, t := range s.other {
		fn(t)
	}
}

// Suspend models a crash of the measurement application: the UDP port
// stays bound (floods are still consumed, not refused) but nothing is
// logged until Resume. Fault injection uses this to study measurement
// outages separately from link outages.
func (s *Sink) Suspend() { s.suspended = true }

// Resume restarts logging after a Suspend.
func (s *Sink) Resume() { s.suspended = false }

// MissedPackets reports how many packets arrived while suspended.
func (s *Sink) MissedPackets() uint64 { return s.missed }

// Node reports the node the sink is installed on.
func (s *Sink) Node() *Node { return s.node }

// RxPackets reports how many packets the sink observed.
func (s *Sink) RxPackets() uint64 { return s.rxPackets }

// TotalBytes reports the wire bytes the sink logged over the whole run.
func (s *Sink) TotalBytes() uint64 { return s.rxBytes }

// BytesAt reports the wire bytes logged in one second (0 for a second
// with no traffic).
func (s *Sink) BytesAt(sec int64) uint64 {
	if sec < 0 || sec >= int64(len(s.perSec)) {
		return 0
	}
	return s.perSec[sec]
}

// KbpsSeries renders the per-second received data rate in kilobits per
// second over [from, to), with zeros for quiet seconds.
func (s *Sink) KbpsSeries(from, to int64) []float64 {
	out := make([]float64, 0, to-from)
	for sec := from; sec < to; sec++ {
		out = append(out, float64(s.BytesAt(sec))*8/1000)
	}
	return out
}

// AvgReceivedKbps computes the paper's D_received (Eq. 2) over the
// window [from, to): total kilobits received divided by the window
// length in seconds.
func (s *Sink) AvgReceivedKbps(from, to int64) float64 {
	n := to - from
	if n <= 0 {
		return 0
	}
	var sum uint64
	for sec := from; sec < to; sec++ {
		sum += s.BytesAt(sec)
	}
	return float64(sum) * 8 / 1000 / float64(n)
}

// DistinctSources reports how many distinct source addresses sent
// traffic to the sink — the number of bots observed attacking.
func (s *Sink) DistinctSources() int {
	seen := make(map[netip.Addr]bool, len(s.byOrigin))
	s.tallies(func(t srcTally) { seen[t.addr] = true })
	return len(seen)
}

// BytesFrom reports the wire bytes received from one source: whole
// frames, headers included, as Eq. 2 counts them.
func (s *Sink) BytesFrom(a netip.Addr) uint64 {
	var sum uint64
	s.tallies(func(t srcTally) {
		if t.addr == a {
			sum += t.bytes
		}
	})
	return sum
}

// BytesByProto reports the wire bytes received over one transport
// protocol: whole frames, headers included, as Eq. 2 counts them.
func (s *Sink) BytesByProto(p Protocol) uint64 { return s.byProto[p] }
