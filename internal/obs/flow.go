package obs

import (
	"io"
	"net/netip"
	"sort"
)

// Flow-record export reasons, NetFlow-style: why the exporter closed
// (or checkpointed) the record.
const (
	// FlowIdle: no packet for the idle timeout; the flow is gone.
	FlowIdle = "idle"
	// FlowActive: the flow outlived the active timeout and was
	// checkpointed; accounting continues in a fresh record.
	FlowActive = "active"
	// FlowFinal: the run ended with the flow still live.
	FlowFinal = "final"
	// FlowEvict: the flow table hit its capacity and evicted the
	// oldest flow to make room.
	FlowEvict = "evict"
)

// FlowRecord is one exported NetFlow-v5-style record: unidirectional
// per-(src,dst,proto,ports) accounting over an interval of simulated
// time, plus the ground-truth label the simulation assigned when the
// flow was created ("attack", "cnc", "recruit", "exploit", "benign").
// Timestamps are microseconds of simulated time, so records are a pure
// function of the run.
type FlowRecord struct {
	StartUS  int64
	EndUS    int64
	Proto    string
	Src      netip.AddrPort
	Dst      netip.AddrPort
	Packets  uint64
	Bytes    uint64
	TCPFlags uint8
	Label    string
	Reason   string
}

// FlowSink receives batches of exported flow records. The batch slice
// is owned by the exporter and reused: implementations must copy what
// they keep and must not retain the slice.
type FlowSink interface {
	ExportFlows(batch []FlowRecord)
}

// FlowBuffer is the standard FlowSink: it accumulates copies of every
// exported record in export order and renders them as a CSV or JSONL
// dataset artifact. Export order is deterministic, so two same-seed
// runs write byte-identical artifacts. All methods are nil-safe.
type FlowBuffer struct {
	recs    []FlowRecord
	batches int
}

var _ FlowSink = (*FlowBuffer)(nil)

// ExportFlows implements FlowSink by copying the batch.
func (b *FlowBuffer) ExportFlows(batch []FlowRecord) {
	if b == nil {
		return
	}
	b.recs = append(b.recs, batch...) //simlint:allow allocfree(dataset sink: amortized growth once per flushed batch, not per packet; record hits between flushes touch only the flow table)
	b.batches++
}

// Len reports how many records were exported.
func (b *FlowBuffer) Len() int {
	if b == nil {
		return 0
	}
	return len(b.recs)
}

// Batches reports how many export batches arrived — exporters batch
// records, so this stays well under Len.
func (b *FlowBuffer) Batches() int {
	if b == nil {
		return 0
	}
	return b.batches
}

// Records returns the accumulated records in export order. The slice
// is shared; callers must not mutate it.
func (b *FlowBuffer) Records() []FlowRecord {
	if b == nil {
		return nil
	}
	return b.recs
}

// flowLess is a total order over flow records: interval first, then
// the flow identity and accounting fields. Total means ties are
// impossible for distinct records, so a sort under it is a pure
// function of the record *set* — the property MergeFlowBuffers needs.
func flowLess(a, b *FlowRecord) bool {
	if a.StartUS != b.StartUS {
		return a.StartUS < b.StartUS
	}
	if a.EndUS != b.EndUS {
		return a.EndUS < b.EndUS
	}
	if a.Proto != b.Proto {
		return a.Proto < b.Proto
	}
	if c := a.Src.Addr().Compare(b.Src.Addr()); c != 0 {
		return c < 0
	}
	if a.Src.Port() != b.Src.Port() {
		return a.Src.Port() < b.Src.Port()
	}
	if c := a.Dst.Addr().Compare(b.Dst.Addr()); c != 0 {
		return c < 0
	}
	if a.Dst.Port() != b.Dst.Port() {
		return a.Dst.Port() < b.Dst.Port()
	}
	if a.Packets != b.Packets {
		return a.Packets < b.Packets
	}
	if a.Bytes != b.Bytes {
		return a.Bytes < b.Bytes
	}
	if a.TCPFlags != b.TCPFlags {
		return a.TCPFlags < b.TCPFlags
	}
	if a.Label != b.Label {
		return a.Label < b.Label
	}
	return a.Reason < b.Reason
}

// MergeFlowBuffers combines per-shard flow datasets into one buffer
// ordered by the total flow comparator, so the merged artifact is
// independent of how flows were partitioned across shards. Inputs are
// left untouched; batch counts are summed.
func MergeFlowBuffers(parts ...*FlowBuffer) *FlowBuffer {
	m := &FlowBuffer{}
	for _, p := range parts {
		if p == nil {
			continue
		}
		m.recs = append(m.recs, p.recs...)
		m.batches += p.batches
	}
	sort.SliceStable(m.recs, func(i, j int) bool { return flowLess(&m.recs[i], &m.recs[j]) })
	return m
}

// FlowStats condenses a flow dataset for reports.
type FlowStats struct {
	Flows   int             `json:"flows"`
	Packets uint64          `json:"packets"`
	Bytes   uint64          `json:"bytes"`
	Labels  []FlowLabelStat `json:"labels,omitempty"`
}

// FlowLabelStat aggregates one ground-truth label class.
type FlowLabelStat struct {
	Label   string `json:"label"`
	Flows   int    `json:"flows"`
	Packets uint64 `json:"packets"`
	Bytes   uint64 `json:"bytes"`
}

// Stats aggregates the buffer, with per-label classes sorted by label
// name for deterministic serialization.
func (b *FlowBuffer) Stats() FlowStats {
	var s FlowStats
	if b == nil {
		return s
	}
	byLabel := make(map[string]*FlowLabelStat)
	for i := range b.recs {
		r := &b.recs[i]
		s.Flows++
		s.Packets += r.Packets
		s.Bytes += r.Bytes
		ls := byLabel[r.Label]
		if ls == nil {
			ls = &FlowLabelStat{Label: r.Label}
			byLabel[r.Label] = ls
		}
		ls.Flows++
		ls.Packets += r.Packets
		ls.Bytes += r.Bytes
	}
	for _, ls := range byLabel {
		s.Labels = append(s.Labels, *ls)
	}
	sort.Slice(s.Labels, func(i, j int) bool { return s.Labels[i].Label < s.Labels[j].Label })
	return s
}

// FlowCSVHeader is the first line of the CSV artifact.
const FlowCSVHeader = "start_us,end_us,proto,src,dst,packets,bytes,tcp_flags,label,reason"

// WriteCSV renders the dataset as CSV, one record per line, in export
// order. Fields are written verbatim, endpoints as ip:port.
func (b *FlowBuffer) WriteCSV(w io.Writer) error {
	e := newEnc(w)
	e.raw(FlowCSVHeader + "\n")
	recs := b.Records()
	for i := range recs {
		r := &recs[i]
		e.int(r.StartUS)
		e.raw(",")
		e.int(r.EndUS)
		e.raw(",")
		e.raw(r.Proto)
		e.raw(",")
		e.addrPort(r.Src)
		e.raw(",")
		e.addrPort(r.Dst)
		e.raw(",")
		e.uint(r.Packets)
		e.raw(",")
		e.uint(r.Bytes)
		e.raw(",")
		e.uint(uint64(r.TCPFlags))
		e.raw(",")
		e.raw(r.Label)
		e.raw(",")
		e.raw(r.Reason)
		e.raw("\n")
		if err := e.endRecord(); err != nil {
			return err
		}
	}
	return e.flush()
}

// WriteJSONL renders the dataset as JSON Lines, one record per line,
// in export order, with the CSV's columns as keys in the CSV's order.
func (b *FlowBuffer) WriteJSONL(w io.Writer) error {
	e := newEnc(w)
	recs := b.Records()
	for i := range recs {
		r := &recs[i]
		e.raw(`{"start_us":`)
		e.int(r.StartUS)
		e.raw(`,"end_us":`)
		e.int(r.EndUS)
		e.raw(`,"proto":`)
		e.str(r.Proto)
		e.raw(`,"src":`)
		e.jsonAddrPort(r.Src)
		e.raw(`,"dst":`)
		e.jsonAddrPort(r.Dst)
		e.raw(`,"packets":`)
		e.uint(r.Packets)
		e.raw(`,"bytes":`)
		e.uint(r.Bytes)
		e.raw(`,"tcp_flags":`)
		e.uint(uint64(r.TCPFlags))
		e.raw(`,"label":`)
		e.str(r.Label)
		e.raw(`,"reason":`)
		e.str(r.Reason)
		e.raw("}\n")
		if err := e.endRecord(); err != nil {
			return err
		}
	}
	return e.flush()
}
