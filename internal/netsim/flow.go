package netsim

import (
	"net/netip"

	"ddosim/internal/obs"
	"ddosim/internal/sim"
)

// Flow accounting: a NetFlow-v5-style exporter on the packet hot path.
//
// Every locally-originated packet (Node.SendPacket) is accounted to a
// unidirectional flow keyed by (src, dst, proto). Flows expire on an
// active timeout (long-lived flows are checkpointed so downstream
// consumers see progress), an idle timeout (silence closes the flow),
// eviction (table full), or the end-of-run flush. Expired records are
// batched into an obs.FlowSink.
//
// Accounting happens at origination, before queueing — records
// describe offered load, not delivered load, so a flow whose packets
// die at a faulted link still closes with the full byte/packet count
// the sender offered. Delivered load is the sink taps' job.
//
// The table is allocation-free in steady state: entries live in a
// flat slice recycled through a free list, the batch slice is reused
// across flushes, and the only hot-path map operation is a lookup on
// a comparable key. Expiry is driven by the event kernel (a sweep
// ticker), so export timing — and therefore every exported byte — is
// a pure function of the run.

// The table shares FlowKey (trace.go) with FlowMonitor: both identify
// a unidirectional flow by (proto, src, dst). FlowKey is comparable,
// so the hot-path map lookup is alloc-free.

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

// Flow-table tuning defaults.
const (
	DefaultFlowActiveTimeout = 60 * sim.Second
	DefaultFlowIdleTimeout   = 15 * sim.Second
	DefaultFlowSweepPeriod   = 1 * sim.Second
	DefaultMaxFlows          = 1 << 16
	DefaultFlowExportBatch   = 64
)

// FlowConfig tunes the flow table. Zero fields take the defaults
// above; Sink may be nil (records are then dropped at flush, which
// still keeps the table bounded).
type FlowConfig struct {
	ActiveTimeout sim.Time
	IdleTimeout   sim.Time
	SweepPeriod   sim.Time
	MaxFlows      int
	ExportBatch   int
	Sink          obs.FlowSink
}

func (c *FlowConfig) normalize() {
	if c.ActiveTimeout <= 0 {
		c.ActiveTimeout = DefaultFlowActiveTimeout
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = DefaultFlowIdleTimeout
	}
	if c.SweepPeriod <= 0 {
		c.SweepPeriod = DefaultFlowSweepPeriod
	}
	if c.MaxFlows <= 0 {
		c.MaxFlows = DefaultMaxFlows
	}
	if c.ExportBatch <= 0 {
		c.ExportBatch = DefaultFlowExportBatch
	}
}

// flowEntry is one live (or free) slot in the flat entry table.
type flowEntry struct {
	key     FlowKey
	start   sim.Time
	last    sim.Time
	packets uint64
	bytes   uint64
	flags   TCPFlags
	label   string
	live    bool
}

// FlowTableStats counts flow-table activity.
type FlowTableStats struct {
	Created  uint64 // flows opened (including post-checkpoint restarts)
	Exported uint64 // records handed to the sink
	Evicted  uint64 // flows force-closed by the MaxFlows cap
}

// FlowTable is the per-network flow accountant. It is not safe for
// concurrent use; like the rest of the simulator it runs on the
// event-kernel thread.
type FlowTable struct {
	sched *sim.Scheduler
	cfg   FlowConfig

	idx      map[FlowKey]int32
	entries  []flowEntry
	freeList []int32

	// order lists entry indexes in creation order; orderHead marks the
	// oldest not-yet-compacted position. Dead indexes are skipped
	// lazily and compacted away by the sweep. Entry slots are returned
	// to freeList ONLY during compaction (sweep/FlushAll), never at
	// deletion time — otherwise a recycled slot could alias a stale
	// order reference onto the new tenant.
	order     []int32
	orderHead int

	rules []FlowLabelRule
	batch []obs.FlowRecord

	sweeper *sim.Ticker
	stats   FlowTableStats
}

// newFlowTable builds a table without a sweeper.
func newFlowTable(sched *sim.Scheduler, cfg FlowConfig) *FlowTable {
	return &FlowTable{
		sched: sched,
		cfg:   cfg,
		idx:   make(map[FlowKey]int32, cfg.MaxFlows/4),
		batch: make([]obs.FlowRecord, 0, cfg.ExportBatch),
	}
}

// EnableFlows attaches flow accounting to the network: one table,
// with its expiry sweeper on the network's scheduler, which it
// returns. Calling EnableFlows again replaces the previous accounting
// (stopped and flushed).
func (w *Network) EnableFlows(cfg FlowConfig) *FlowTable {
	if w.flows != nil {
		w.flows.Stop()
		w.flows.FlushAll(w.sched.Now())
	}
	cfg.normalize()
	ft := newFlowTable(w.sched, cfg)
	ft.sweeper = sim.NewTicker(w.sched, cfg.SweepPeriod, ft.sweep)
	ft.sweeper.Source = "net.flows"
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
func (ft *FlowTable) Stop() {
	if ft.sweeper != nil {
		ft.sweeper.Stop()
	}
}

func (ft *FlowTable) labelFor(k FlowKey) string {
	for i := range ft.rules {
		r := &ft.rules[i]
		if r.Endpoint.IsValid() && r.Endpoint != k.Src && r.Endpoint != k.Dst {
			continue
		}
		if r.Addr.IsValid() && r.Addr != k.Src.Addr() && r.Addr != k.Dst.Addr() {
			continue
		}
		if r.Port != 0 && r.Port != k.Dst.Port() && r.Port != k.Src.Port() {
			continue
		}
		return r.Label
	}
	return "benign"
}

// record accounts one originated packet. This is the hot path: for an
// established flow it is a map lookup plus a handful of field updates,
// with no allocation; only a never-seen flow key pays the slab/index
// inserts below, bounded by MaxFlows.
//
//simlint:hotpath
func (ft *FlowTable) record(pkt *Packet, now sim.Time) {
	k := FlowKey{Src: pkt.Src, Dst: pkt.Dst, Proto: pkt.Proto}
	if i, ok := ft.idx[k]; ok {
		e := &ft.entries[i]
		if now-e.start >= ft.cfg.ActiveTimeout {
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

	if len(ft.idx) >= ft.cfg.MaxFlows {
		ft.evictOldest()
	}
	var i int32
	if n := len(ft.freeList); n > 0 {
		i = ft.freeList[n-1]
		ft.freeList = ft.freeList[:n-1]
	} else {
		ft.entries = append(ft.entries, flowEntry{}) //simlint:allow allocfree(first sighting of a flow key only; steady state reuses freeList slots and the slab is bounded by MaxFlows)
		i = int32(len(ft.entries) - 1)
	}
	e := &ft.entries[i]
	e.key = k
	e.start, e.last = now, now
	e.packets, e.bytes = 1, uint64(pkt.Size())
	e.flags = 0
	if pkt.TCP != nil {
		e.flags = pkt.TCP.Flags
	}
	e.label = ft.labelFor(k)
	e.live = true
	ft.idx[k] = i //simlint:allow allocfree(index insert and order append run once per new flow key, bounded by MaxFlows; the established-flow path above returns before them)
	ft.order = append(ft.order, i)
	ft.stats.Created++
}

// evictOldest closes the oldest live flow to make room. The slot is
// marked dead but not recycled (see order's comment).
func (ft *FlowTable) evictOldest() {
	for ft.orderHead < len(ft.order) {
		i := ft.order[ft.orderHead]
		ft.orderHead++
		e := &ft.entries[i]
		if !e.live {
			continue
		}
		ft.export(e, e.last, obs.FlowEvict)
		delete(ft.idx, e.key)
		e.live = false
		e.label = ""
		ft.stats.Evicted++
		return
	}
}

// export appends one record for entry e ending at end and flushes the
// batch when full.
func (ft *FlowTable) export(e *flowEntry, end sim.Time, reason string) {
	//simlint:allow allocfree(batch is reused across flushes; it grows to the configured batch size once and then appends into spare capacity)
	ft.batch = append(ft.batch, obs.FlowRecord{
		StartUS:  int64(e.start / sim.Microsecond),
		EndUS:    int64(end / sim.Microsecond),
		Proto:    e.key.Proto.String(),
		Src:      e.key.Src,
		Dst:      e.key.Dst,
		Packets:  e.packets,
		Bytes:    e.bytes,
		TCPFlags: uint8(e.flags),
		Label:    e.label,
		Reason:   reason,
	})
	ft.stats.Exported++
	if len(ft.batch) >= ft.cfg.ExportBatch {
		ft.flush()
	}
}

// flush hands the pending batch to the sink and resets it. The batch
// slice is reused; the sink contract requires it to copy.
func (ft *FlowTable) flush() {
	if len(ft.batch) == 0 {
		return
	}
	if ft.cfg.Sink != nil {
		ft.cfg.Sink.ExportFlows(ft.batch)
	}
	ft.batch = ft.batch[:0]
}

// sweep is the periodic expiry pass, run by the table's ticker: it
// compacts the creation-order list (reclaiming dead slots) and closes
// idle flows as of the table's clock.
func (ft *FlowTable) sweep() {
	now := ft.sched.Now()
	live := ft.order[:0]
	for _, i := range ft.order[ft.orderHead:] {
		e := &ft.entries[i]
		if !e.live {
			ft.freeList = append(ft.freeList, i)
			continue
		}
		if now-e.last >= ft.cfg.IdleTimeout {
			ft.export(e, e.last, obs.FlowIdle)
			delete(ft.idx, e.key)
			e.live = false
			e.label = ""
			ft.freeList = append(ft.freeList, i)
			continue
		}
		live = append(live, i)
	}
	ft.order = live
	ft.orderHead = 0
	ft.flush()
}

// FlushAll closes every live flow with reason "final" (ended at its
// last activity instant), flushes the sink, and empties the table.
// Called once when a run finishes.
func (ft *FlowTable) FlushAll(now sim.Time) {
	for _, i := range ft.order[ft.orderHead:] {
		e := &ft.entries[i]
		if !e.live {
			continue
		}
		ft.export(e, e.last, obs.FlowFinal)
		e.live = false
		e.label = ""
	}
	clear(ft.idx)
	ft.order = ft.order[:0]
	ft.orderHead = 0
	ft.freeList = ft.freeList[:0]
	ft.entries = ft.entries[:0]
	ft.flush()
}
