package netsim

import (
	"net/netip"

	"ddosim/internal/obs"
	"ddosim/internal/sim"
)

// srcFlows labels the flow table's expiry sweeps.
var srcFlows = sim.NewSource("net.flows")

// Flow accounting: a NetFlow-v5-style exporter on the packet hot path.
//
// Every locally-originated packet (Node.SendPacket) is accounted to a
// unidirectional flow keyed by (src, dst, proto). Flows expire on an
// active timeout (long-lived flows are checkpointed so downstream
// consumers see progress), an idle timeout (silence closes the flow),
// eviction (table full), or the end-of-run flush. Each expired record
// is appended to the table's obs.FlowBuffer as it closes.
//
// Accounting happens at origination, before queueing — records
// describe offered load, not delivered load, so a flow whose packets
// die at a faulted link still closes with the full byte/packet count
// the sender offered. Delivered load is the sink's job.
//
// The table is allocation-free in steady state and holds no pointers:
// entries live in a flat slice recycled through a free list, keyed by
// a flowKey of the two endpoints' ids in the table's buffer, and the
// only hot-path map operations are the lookups that build and find
// that key — usually skipped, because each node remembers the entry
// its last packet went to (see record).
// Expiry is driven by the event kernel (a sweep ticker), so export
// timing — and therefore every exported byte — is a pure function of
// the run.

// FlowLabelRule assigns a ground-truth label to new flows. A rule
// matches when every set field does: Endpoint (if valid) must equal
// the flow's source or destination exactly (address and port
// together — how C&C traffic on a well-known port is told apart from
// other uses of that port); Addr (if valid) must equal the source or
// destination address; Port (if nonzero) must equal the source or
// destination port. Matching is direction-agnostic so one rule labels
// both halves of a conversation. The first matching rule wins;
// unmatched flows are labeled "benign".
type FlowLabelRule struct {
	Endpoint netip.AddrPort
	Addr     netip.Addr
	Port     uint16
	Label    string
}

// Flow-table timing and capacity: NetFlow v5's active and idle
// timeouts, a once-a-second expiry sweep, and a cap on live flows.
const (
	flowActiveTimeout = 60 * sim.Second
	flowIdleTimeout   = 15 * sim.Second
	flowSweepPeriod   = 1 * sim.Second
	maxFlows          = 1 << 16
)

// flowKey identifies a flow without pointers: the ids the table's
// buffer gave both endpoints, and the protocol. Unlike a pair of
// netip.AddrPorts, it keeps the index map out of the garbage
// collector's scan, and the buffer stores each endpoint only once.
type flowKey struct {
	src, dst uint32
	proto    Protocol
}

// flowEntry is one live (or free) slot in the flat entry table. It
// holds its flowKey's fields flat, so flags and live fill the word
// the protocol starts, where a nested key would leave padding.
type flowEntry struct {
	src, dst uint32 // endpoint ids in the table's buffer
	proto    Protocol
	flags    TCPFlags
	live     bool
	label    uint32 // 1 + index of the first matching rule; 0 is "benign"
	start    sim.Time
	last     sim.Time
	packets  uint64
	bytes    uint64
}

// key returns e's flow key.
func (e *flowEntry) key() flowKey { return flowKey{e.src, e.dst, e.proto} }

// FlowTableStats counts flow-table activity.
type FlowTableStats struct {
	Created  uint64 // flows opened (including post-checkpoint restarts)
	Exported uint64 // records closed into the buffer
	Evicted  uint64 // flows force-closed by the maxFlows cap
}

// FlowTable is the per-network flow accountant. It is not safe for
// concurrent use; like the rest of the simulator it runs on the
// event-kernel thread. It keys flows by the ids its buffer gives
// endpoints when a flow is created (see obs.Zones for the limit on
// IPv6 zones).
type FlowTable struct {
	sched *sim.Scheduler
	sink  *obs.FlowBuffer

	idx      map[flowKey]int32
	entries  []flowEntry
	freeList []int32

	// order[orderHead:] lists the live entries' indexes in creation
	// order, each once. A flow leaves it as it closes — evictOldest
	// advances orderHead past the oldest, the sweep compacts out the
	// ones it expires — and its slot returns to freeList then, when no
	// order reference to it remains.
	order     []int32
	orderHead int

	rules []FlowLabelRule

	sweeper *sim.Ticker
	stats   FlowTableStats
}

// EnableFlows attaches flow accounting to the network, exporting each
// closed record into sink, and starts the table's expiry sweeper on the
// network's scheduler. sink must not be nil. Call it once.
func (w *Network) EnableFlows(sink *obs.FlowBuffer) *FlowTable {
	if sink == nil {
		panic("netsim: EnableFlows needs a flow buffer")
	}
	ft := &FlowTable{
		sched: w.sched,
		sink:  sink,
		idx:   make(map[flowKey]int32),
	}
	ft.sweeper = sim.NewTicker(w.sched, flowSweepPeriod, srcFlows, ft.sweep)
	ft.sweeper.Start()
	w.flows = ft
	return ft
}

// Flows returns the network's flow table, or nil when flow accounting
// is disabled.
func (w *Network) Flows() *FlowTable { return w.flows }

// AddFlowLabelRule appends a ground-truth labeling rule to the flow
// table. No-op when flow accounting is disabled.
func (w *Network) AddFlowLabelRule(r FlowLabelRule) {
	if w.flows != nil {
		w.flows.AddLabelRule(r)
	}
}

// StopFlows halts flow expiry. Pending flows stay until FlushFlows.
func (w *Network) StopFlows() {
	if w.flows != nil {
		w.flows.Stop()
	}
}

// FlushFlows closes every live flow with reason "final".
func (w *Network) FlushFlows(now sim.Time) {
	if w.flows != nil {
		w.flows.FlushAll(now)
	}
}

// AddLabelRule appends a ground-truth labeling rule. Rules apply to
// flows created after the call; earlier flows keep their label.
func (ft *FlowTable) AddLabelRule(r FlowLabelRule) {
	ft.rules = append(ft.rules, r)
}

// Active reports the number of live flows.
func (ft *FlowTable) Active() int { return len(ft.idx) }

// Stats returns a copy of the table's activity counters.
func (ft *FlowTable) Stats() FlowTableStats { return ft.stats }

// Stop halts the expiry sweeper. Pending flows stay in the table until
// FlushAll.
func (ft *FlowTable) Stop() { ft.sweeper.Stop() }

// labelFor returns the label of a new flow for pkt: 1 + the index of
// the first rule it matches, or 0 for "benign".
func (ft *FlowTable) labelFor(pkt *Packet) uint32 {
	for i := range ft.rules {
		r := &ft.rules[i]
		if r.Endpoint.IsValid() && r.Endpoint != pkt.Src && r.Endpoint != pkt.Dst {
			continue
		}
		if r.Addr.IsValid() && r.Addr != pkt.Src.Addr() && r.Addr != pkt.Dst.Addr() {
			continue
		}
		if r.Port != 0 && r.Port != pkt.Dst.Port() && r.Port != pkt.Src.Port() {
			continue
		}
		return uint32(i) + 1
	}
	return 0
}

// record accounts one packet originated by a node whose flow hint is
// *hint. This is the hot path: for an established flow it is an
// in-place comparison with the hinted entry (or, when the hint misses,
// map lookups of both endpoints' ids and of the key) plus a handful
// of field updates, with no allocation; only a never-seen flow key
// pays the slab/index inserts below, bounded by maxFlows, and a
// never-seen endpoint its insert into the buffer's endpoint table.
//
// The hint is the index of the entry the node's previous packet went
// to. It is trusted only when that entry is live and holds this
// packet's flow: the slot may since have been recycled by a sweep or
// evicted, and then the comparison fails and the index map decides.
// A live entry with the key is the key's only entry, so a hit is
// always the right flow.
//
//simlint:hotpath
func (ft *FlowTable) record(pkt *Packet, now sim.Time, hint *int32) {
	i := *hint
	ok := false
	if int(i) < len(ft.entries) {
		// Compare in place — protocol, ports, then addresses — with
		// the endpoints the buffer stores, so a hint hit builds no key.
		e := &ft.entries[i]
		ok = e.live && e.proto == pkt.Proto && ft.sink.Holds(e.src, e.dst, &pkt.Src, &pkt.Dst)
	}
	var k flowKey
	if !ok {
		k = flowKey{ft.sink.EndpointID(pkt.Src), ft.sink.EndpointID(pkt.Dst), pkt.Proto}
		i, ok = ft.idx[k]
	}
	if ok {
		*hint = i
		e := &ft.entries[i]
		if now-e.start >= flowActiveTimeout {
			// Checkpoint: export the elapsed interval and restart the
			// record in place.
			ft.export(e, e.last, obs.FlowActive)
			e.start, e.last = now, now
			e.packets, e.bytes, e.flags = 0, 0, 0
			ft.stats.Created++
		}
		e.packets++
		e.bytes += uint64(pkt.Size())
		e.last = now
		if pkt.TCP != nil {
			e.flags |= pkt.TCP.Flags
		}
		return
	}

	if len(ft.idx) >= maxFlows {
		ft.evictOldest()
	}
	if n := len(ft.freeList); n > 0 {
		i = ft.freeList[n-1]
		ft.freeList = ft.freeList[:n-1]
	} else {
		ft.entries = append(ft.entries, flowEntry{}) //simlint:allow allocfree(first sighting of a flow key only; steady state reuses freeList slots and the slab is bounded by maxFlows)
		i = int32(len(ft.entries) - 1)
	}
	e := &ft.entries[i]
	e.src, e.dst, e.proto = k.src, k.dst, k.proto
	e.start, e.last = now, now
	e.packets, e.bytes = 1, uint64(pkt.Size())
	e.flags = 0
	if pkt.TCP != nil {
		e.flags = pkt.TCP.Flags
	}
	e.label = ft.labelFor(pkt)
	e.live = true
	ft.idx[k] = i //simlint:allow allocfree(index insert and order append run once per new flow key, bounded by maxFlows; the established-flow path above returns before them)
	ft.order = append(ft.order, i)
	ft.stats.Created++
	*hint = i
}

// evictOldest closes the oldest live flow to make room and frees its
// slot.
func (ft *FlowTable) evictOldest() {
	i := ft.order[ft.orderHead]
	ft.orderHead++
	e := &ft.entries[i]
	ft.export(e, e.last, obs.FlowEvict)
	delete(ft.idx, e.key())
	e.live = false
	ft.freeList = append(ft.freeList, i) //simlint:allow allocfree(record pops this slot at once, so the free list holds at most one more slot than a sweep left in it; bounded by maxFlows)
	ft.stats.Evicted++
}

// export appends one record for entry e ending at end to the table's
// buffer.
func (ft *FlowTable) export(e *flowEntry, end sim.Time, reason string) {
	ft.stats.Exported++
	label := "benign"
	if e.label > 0 {
		label = ft.rules[e.label-1].Label
	}
	ft.sink.Add(obs.Flow{
		StartUS: int64(e.start / sim.Microsecond), EndUS: int64(end / sim.Microsecond),
		Packets: e.packets, Bytes: e.bytes,
		Src: e.src, Dst: e.dst, TCPFlags: uint8(e.flags),
		Proto: e.proto.String(), Label: label, Reason: reason,
	})
}

// sweep is the periodic expiry pass, run by the table's ticker: it
// closes idle flows as of the table's clock, freeing their slots, and
// compacts the creation-order list.
func (ft *FlowTable) sweep() {
	now := ft.sched.Now()
	live := ft.order[:0]
	for _, i := range ft.order[ft.orderHead:] {
		e := &ft.entries[i]
		if now-e.last >= flowIdleTimeout {
			ft.export(e, e.last, obs.FlowIdle)
			delete(ft.idx, e.key())
			e.live = false
			ft.freeList = append(ft.freeList, i)
			continue
		}
		live = append(live, i)
	}
	ft.order = live
	ft.orderHead = 0
}

// FlushAll closes every live flow with reason "final" (ended at its
// last activity instant) and empties the table.
// Called once when a run finishes.
func (ft *FlowTable) FlushAll(now sim.Time) {
	for _, i := range ft.order[ft.orderHead:] {
		e := &ft.entries[i]
		ft.export(e, e.last, obs.FlowFinal)
		e.live = false
	}
	clear(ft.idx)
	ft.order = ft.order[:0]
	ft.orderHead = 0
	ft.freeList = ft.freeList[:0]
	ft.entries = ft.entries[:0]
}
