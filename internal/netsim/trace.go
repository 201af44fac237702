package netsim

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"ddosim/internal/sim"
)

// The paper analyzes TServer traffic with Wireshark (hardware
// scenario) and through NS-3's customizable node (simulation). This
// file provides the equivalents: a packet capture and a per-flow
// monitor, both attachable to any node.

// CaptureEntry is one captured packet record.
type CaptureEntry struct {
	At    sim.Time
	Proto Protocol
	Src   netip.AddrPort
	Dst   netip.AddrPort
	Bytes int
}

// String renders the entry in tcpdump style. Formatting is deferred to
// render time: recording stores plain values only, so a capture that is
// never printed costs zero formatting allocations per packet.
func (e CaptureEntry) String() string {
	return fmt.Sprintf("%s %s %s > %s len=%d", e.At, e.Proto, e.Src, e.Dst, e.Bytes)
}

// Capture records packets delivered at a node, like tcpdump with a
// ring buffer. When bounded, the ring overwrites its oldest entry in
// O(1) — no shifting — so a full capture costs the same per packet as
// an empty one.
type Capture struct {
	ring    []CaptureEntry // bounded ring when max > 0, else grow-only
	head    int            // index of the oldest entry (bounded mode)
	count   int            // live entries in the ring (bounded mode)
	max     int
	dropped uint64
	total   uint64
}

// StartCapture installs a capture on node keeping at most max entries
// (older entries are discarded first); max <= 0 keeps everything.
func StartCapture(node *Node, max int) *Capture {
	c := &Capture{max: max}
	if max > 0 {
		c.ring = make([]CaptureEntry, max)
	}
	node.AddTap(func(at sim.Time, pkt *Packet) {
		c.total++
		e := CaptureEntry{
			At:    at,
			Proto: pkt.Proto,
			Src:   pkt.Src,
			Dst:   pkt.Dst,
			Bytes: pkt.PayloadSize(),
		}
		if c.max <= 0 {
			c.ring = append(c.ring, e)
			c.count++
			return
		}
		if c.count == c.max {
			c.ring[c.head] = e
			c.head = (c.head + 1) % c.max
			c.dropped++
			return
		}
		c.ring[(c.head+c.count)%c.max] = e
		c.count++
	})
	return c
}

// at returns the i-th oldest live entry.
func (c *Capture) at(i int) CaptureEntry {
	if c.max <= 0 {
		return c.ring[i]
	}
	return c.ring[(c.head+i)%c.max]
}

// Len reports how many records are currently held.
func (c *Capture) Len() int { return c.count }

// Entries returns the captured records in arrival order (a copy).
func (c *Capture) Entries() []CaptureEntry {
	out := make([]CaptureEntry, c.count)
	for i := range out {
		out[i] = c.at(i)
	}
	return out
}

// Total reports how many packets were observed, including any that
// rolled out of the ring.
func (c *Capture) Total() uint64 { return c.total }

// Dropped reports how many records rolled out of the ring.
func (c *Capture) Dropped() uint64 { return c.dropped }

// FilterProto returns the captured records of one protocol.
func (c *Capture) FilterProto(p Protocol) []CaptureEntry {
	var out []CaptureEntry
	for i := 0; i < c.count; i++ {
		if e := c.at(i); e.Proto == p {
			out = append(out, e)
		}
	}
	return out
}

// BytesBetween sums payload bytes captured in [from, to).
func (c *Capture) BytesBetween(from, to sim.Time) uint64 {
	var sum uint64
	for i := 0; i < c.count; i++ {
		if e := c.at(i); e.At >= from && e.At < to {
			sum += uint64(e.Bytes)
		}
	}
	return sum
}

// String renders a short tcpdump-style listing (first entries only).
func (c *Capture) String() string {
	var b strings.Builder
	for i := 0; i < c.count; i++ {
		if i >= 20 {
			fmt.Fprintf(&b, "... %d more\n", c.count-i)
			break
		}
		b.WriteString(c.at(i).String())
		b.WriteByte('\n')
	}
	return b.String()
}

// FlowKey identifies a unidirectional transport flow.
type FlowKey struct {
	Proto Protocol
	Src   netip.AddrPort
	Dst   netip.AddrPort
}

// FlowStats aggregates one flow.
type FlowStats struct {
	Packets uint64
	Bytes   uint64
	First   sim.Time
	Last    sim.Time
}

// Rate reports the flow's mean payload rate in kbps over its
// lifetime.
func (f FlowStats) Rate() float64 {
	span := (f.Last - f.First).Seconds()
	if span <= 0 {
		return 0
	}
	return float64(f.Bytes) * 8 / 1000 / span
}

// FlowMonitor aggregates per-flow statistics at a node — the NS-3
// FlowMonitor counterpart, and the data source for the paper's
// "examine packets and a wide assortment of network metrics".
type FlowMonitor struct {
	flows map[FlowKey]*FlowStats
}

// InstallFlowMonitor attaches a monitor to node.
func InstallFlowMonitor(node *Node) *FlowMonitor {
	m := &FlowMonitor{flows: make(map[FlowKey]*FlowStats)}
	node.AddTap(func(at sim.Time, pkt *Packet) {
		key := FlowKey{Proto: pkt.Proto, Src: pkt.Src, Dst: pkt.Dst}
		st := m.flows[key]
		if st == nil {
			st = &FlowStats{First: at}
			m.flows[key] = st
		}
		st.Packets++
		st.Bytes += uint64(pkt.PayloadSize())
		st.Last = at
	})
	return m
}

// FlowCount reports the number of distinct flows observed.
func (m *FlowMonitor) FlowCount() int { return len(m.flows) }

// Flow returns the stats for one flow.
func (m *FlowMonitor) Flow(key FlowKey) (FlowStats, bool) {
	st, ok := m.flows[key]
	if !ok {
		return FlowStats{}, false
	}
	return *st, true
}

// TopTalkers returns the n flows with the most bytes, descending.
// Ties go by source, then destination, then protocol, so the order
// never depends on map iteration.
func (m *FlowMonitor) TopTalkers(n int) []struct {
	Key   FlowKey
	Stats FlowStats
} {
	type pair struct {
		Key   FlowKey
		Stats FlowStats
	}
	all := make([]pair, 0, len(m.flows))
	for k, st := range m.flows { //simlint:allow maporder(collect-then-sort: flows are byte-count-sorted before use)
		all = append(all, pair{Key: k, Stats: *st})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Stats.Bytes != all[j].Stats.Bytes {
			return all[i].Stats.Bytes > all[j].Stats.Bytes
		}
		a, b := all[i].Key, all[j].Key
		if as, bs := a.Src.String(), b.Src.String(); as != bs {
			return as < bs
		}
		if c := a.Dst.Compare(b.Dst); c != 0 {
			return c < 0
		}
		return a.Proto < b.Proto
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]struct {
		Key   FlowKey
		Stats FlowStats
	}, n)
	for i := 0; i < n; i++ {
		out[i] = struct {
			Key   FlowKey
			Stats FlowStats
		}{all[i].Key, all[i].Stats}
	}
	return out
}
