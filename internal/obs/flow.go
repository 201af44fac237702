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
// function of the run. A FlowBuffer does not store FlowRecords;
// Records rebuilds them from its rows.
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

// Flow is one closed flow as a flow table hands it to Add: a
// FlowRecord whose endpoints are ids the buffer's EndpointID gave.
type Flow struct {
	StartUS, EndUS       int64
	Packets, Bytes       uint64
	Src, Dst             uint32
	TCPFlags             uint8
	Proto, Label, Reason string
}

// flowChunk is the number of rows in one chunk of a FlowBuffer.
const flowChunk = 1024

// flowRow is one stored record. It holds no pointers, so the garbage
// collector never scans a buffer's rows: the endpoints are ids in the
// buffer's endpoint table, and proto, label and reason are ids in its
// string table.
type flowRow struct {
	startUS, endUS       int64
	packets, bytes       uint64
	src, dst             uint32
	proto, label, reason uint16
	flags                uint8
}

// FlowBuffer is the flow dataset of a run: it keeps every exported
// record in export order and renders them as a CSV artifact.
// Export order is deterministic, so two same-seed runs write
// byte-identical artifacts. Rows live in fixed-size chunks, so growth
// never copies the dataset. All methods are nil-safe.
type FlowBuffer struct {
	chunks []*[flowChunk]flowRow
	n      int

	// The endpoint and string tables: each distinct endpoint and
	// string is stored once, and rows refer to it by id. zones packed
	// the endpoints.
	zones  Zones
	eps    []Endpoint
	epIDs  map[Endpoint]uint32
	strs   []string
	strIDs map[string]uint16
}

// Add appends f, whose endpoint ids b.EndpointID gave. A nil buffer
// drops it. Add panics if the buffer would hold more than 65,536
// distinct protocols, labels and reasons together.
func (b *FlowBuffer) Add(f Flow) {
	if b == nil {
		return
	}
	if b.n%flowChunk == 0 {
		b.chunks = append(b.chunks, new([flowChunk]flowRow)) //simlint:allow allocfree(one pointer-free chunk per 1024 exported records, never per packet; growth never copies rows)
	}
	b.chunks[b.n/flowChunk][b.n%flowChunk] = flowRow{
		startUS: f.StartUS, endUS: f.EndUS,
		packets: f.Packets, bytes: f.Bytes,
		src: f.Src, dst: f.Dst,
		proto: b.str(f.Proto), label: b.str(f.Label), reason: b.str(f.Reason),
		flags: f.TCPFlags,
	}
	b.n++
}

// str returns s's id in the string table, adding s on first sight.
func (b *FlowBuffer) str(s string) uint16 {
	if id, ok := b.strIDs[s]; ok {
		return id
	}
	if len(b.strs) > 1<<16-1 {
		panic("obs: a flow buffer holds more than 65536 distinct strings")
	}
	if b.strIDs == nil {
		b.strIDs = make(map[string]uint16) //simlint:allow allocfree(once per buffer)
	}
	id := uint16(len(b.strs))
	b.strs = append(b.strs, s) //simlint:allow allocfree(first sight of a string only: a run names two protocols, a few labels and four reasons)
	b.strIDs[s] = id           //simlint:allow allocfree(first sight of a string only: a run names two protocols, a few labels and four reasons)
	return id
}

// EndpointID returns p's id in the endpoint table, packing p and
// adding it on first sight. A nil buffer stores nothing and returns 0.
func (b *FlowBuffer) EndpointID(p netip.AddrPort) uint32 {
	if b == nil {
		return 0
	}
	ep := b.zones.Pack(p)
	if id, ok := b.epIDs[ep]; ok {
		return id
	}
	if b.epIDs == nil {
		b.epIDs = make(map[Endpoint]uint32) //simlint:allow allocfree(once per buffer)
	}
	id := uint32(len(b.eps))
	b.eps = append(b.eps, ep) //simlint:allow allocfree(first sight of an endpoint only, once per new flow at most, never per established-flow packet)
	b.epIDs[ep] = id          //simlint:allow allocfree(first sight of an endpoint only, once per new flow at most, never per established-flow packet)
	return id
}

// Holds reports whether the endpoints with ids src and dst are p and
// q, comparing in place (see Zones.Holds). A nil buffer holds none.
func (b *FlowBuffer) Holds(src, dst uint32, p, q *netip.AddrPort) bool {
	return b != nil && b.zones.Holds(&b.eps[src], &b.eps[dst], p, q)
}

// row returns the i-th stored row.
func (b *FlowBuffer) row(i int) *flowRow { return &b.chunks[i/flowChunk][i%flowChunk] }

// Len reports how many records were exported.
func (b *FlowBuffer) Len() int {
	if b == nil {
		return 0
	}
	return b.n
}

// Records returns a copy of the stored records in export order.
func (b *FlowBuffer) Records() []FlowRecord {
	if b == nil {
		return nil
	}
	eps := make([]netip.AddrPort, len(b.eps))
	for i := range b.eps {
		eps[i] = b.zones.unpack(&b.eps[i])
	}
	out := make([]FlowRecord, b.n)
	for i := range out {
		r := b.row(i)
		out[i] = FlowRecord{
			StartUS: r.startUS, EndUS: r.endUS, Proto: b.strs[r.proto],
			Src: eps[r.src], Dst: eps[r.dst], Packets: r.packets, Bytes: r.bytes,
			TCPFlags: r.flags, Label: b.strs[r.label], Reason: b.strs[r.reason],
		}
	}
	return out
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
	byLabel := make([]FlowLabelStat, len(b.strs)) // by string id
	for i := 0; i < b.n; i++ {
		r := b.row(i)
		s.Flows++
		s.Packets += r.packets
		s.Bytes += r.bytes
		ls := &byLabel[r.label]
		ls.Flows++
		ls.Packets += r.packets
		ls.Bytes += r.bytes
	}
	for id, ls := range byLabel {
		if ls.Flows > 0 {
			ls.Label = b.strs[id]
			s.Labels = append(s.Labels, ls)
		}
	}
	sort.Slice(s.Labels, func(i, j int) bool { return s.Labels[i].Label < s.Labels[j].Label })
	return s
}

// FlowCSVHeader is the first line of the CSV artifact.
const FlowCSVHeader = "start_us,end_us,proto,src,dst,packets,bytes,tcp_flags,label,reason"

// endpointTexts renders every endpoint's text once for one export, as
// fmt's %s renders a netip.AddrPort. The text is sized from each
// endpoint's family up front, so the table never grows while it is
// built.
func (b *FlowBuffer) endpointTexts() *strTable {
	size := 0
	for i := range b.eps {
		ep := &b.eps[i]
		switch ep.fam {
		case famV4:
			size += len("255.255.255.255:65535")
		case famNone:
			size += len("invalid AddrPort")
		default: // [v6%zone]:port
			size += len("[ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff%]:65535")
			size += len(b.zones.zone(ep))
		}
	}
	t := &strTable{blob: make([]byte, 0, size), off: make([]uint32, 1, len(b.eps)+1)}
	for i := range b.eps {
		t.blob = appendAddrPort(t.blob, b.zones.unpack(&b.eps[i]))
		t.off = append(t.off, uint32(len(t.blob)))
	}
	return t
}

// WriteCSV renders the dataset as CSV, one record per line, in export
// order. Fields are written verbatim, endpoints as ip:port.
func (b *FlowBuffer) WriteCSV(w io.Writer) error {
	e := newEnc(w)
	e.raw(FlowCSVHeader + "\n")
	if b == nil {
		return e.flush()
	}
	eps := b.endpointTexts()
	for i := 0; i < b.n; i++ {
		r := b.row(i)
		e.int(r.startUS)
		e.raw(",")
		e.int(r.endUS)
		e.raw(",")
		e.raw(b.strs[r.proto])
		e.raw(",")
		e.id(eps, r.src)
		e.raw(",")
		e.id(eps, r.dst)
		e.raw(",")
		e.uint(r.packets)
		e.raw(",")
		e.uint(r.bytes)
		e.raw(",")
		e.uint(uint64(r.flags))
		e.raw(",")
		e.raw(b.strs[r.label])
		e.raw(",")
		e.raw(b.strs[r.reason])
		e.raw("\n")
		if err := e.endRecord(); err != nil {
			return err
		}
	}
	return e.flush()
}
