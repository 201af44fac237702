package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ddosim/internal/sim"
)

// countWriter discards what it is given, counting Write calls and bytes.
type countWriter struct {
	writes, bytes int
}

func (c *countWriter) Write(p []byte) (int, error) {
	c.writes++
	c.bytes += len(p)
	return len(p), nil
}

// exportFixture builds a tracer, a flow buffer and a time series of n
// entries each, shaped like a congested run's artifacts: annotated queue
// drops with a kill-chain span every hundred events, attack flows, and
// one window per simulated second.
func exportFixture(n int) (*Tracer, *FlowBuffer, *Windows) {
	tr := NewTracer()
	for i := 0; i < n; i++ {
		at := sim.Time(i) * sim.Millisecond
		if i%100 == 0 {
			tr.RecordSpan(at, at+sim.Second, CatKillChain, "exploit", KV{"dev", "dev-0042"})
		}
		tr.Event(at, CatNet, "queue-drop", KV{"node", "router"}, KV{"reason", "drop-tail"})
	}
	fb := &FlowBuffer{}
	src := netip.MustParseAddrPort("10.0.3.7:40000")
	dst := netip.MustParseAddrPort("10.0.0.1:9999")
	for i := 0; i < n; i++ {
		fb.ExportFlows([]FlowRecord{{
			StartUS: int64(i) * 1000, EndUS: int64(i)*1000 + 999, Proto: "udp",
			Src: src, Dst: dst, Packets: 12, Bytes: 6000, Label: "attack", Reason: FlowIdle,
		}})
	}
	w := NewWindows(sim.Second)
	tx := 0.0
	w.Column("infected", func() float64 { return 200 })
	w.DeltaColumn("tx_bytes", func() float64 { tx += 1.5e6; return tx })
	for i := 1; i <= n; i++ {
		w.Sample(sim.Time(i) * sim.Second)
	}
	return tr, fb, w
}

type namedWriter struct {
	name  string
	write func(io.Writer) error
}

func exportWriters(tr *Tracer, fb *FlowBuffer, w *Windows) []namedWriter {
	return []namedWriter{
		{"Tracer.WriteChromeTrace", tr.WriteChromeTrace},
		{"Tracer.WriteJSONL", tr.WriteJSONL},
		{"FlowBuffer.WriteCSV", fb.WriteCSV},
		{"FlowBuffer.WriteJSONL", fb.WriteJSONL},
		{"Windows.WriteCSV", w.WriteCSV},
		{"Windows.WriteJSONL", w.WriteJSONL},
	}
}

// TestExportWritersStreamInBoundedWrites pins the streaming contract of
// every trace, flow and time-series writer: an artifact reaches its
// io.Writer in 64 KiB Writes plus at most one more, and writing it
// allocates as many objects at 10k entries as at 1k — no per-record
// garbage and no buffer that grows with the artifact.
func TestExportWritersStreamInBoundedWrites(t *testing.T) {
	sizes := []int{1000, 10000}
	var sets [][]namedWriter
	for _, n := range sizes {
		sets = append(sets, exportWriters(exportFixture(n)))
	}
	for i := range sets[0] {
		var allocs []float64
		for j, n := range sizes {
			wr := sets[j][i]
			var cw countWriter
			if err := wr.write(&cw); err != nil {
				t.Fatal(err)
			}
			if limit := (cw.bytes+64<<10-1)/(64<<10) + 1; cw.writes > limit {
				t.Errorf("%s, %d entries: %d Writes for %d bytes, want at most %d",
					wr.name, n, cw.writes, cw.bytes, limit)
			}
			allocs = append(allocs, testing.AllocsPerRun(5, func() {
				if err := wr.write(io.Discard); err != nil {
					t.Fatal(err)
				}
			}))
		}
		if allocs[0] != allocs[1] {
			t.Errorf("%s: %v allocations at %d entries but %v at %d; allocations must not grow with the artifact",
				sets[0][i].name, allocs[0], sizes[0], allocs[1], sizes[1])
		}
	}
}

// failWriter accepts a few Writes, then fails every later one.
type failWriter struct{ left int }

var errSinkFull = errors.New("sink full")

func (f *failWriter) Write(p []byte) (int, error) {
	if f.left == 0 {
		return 0, errSinkFull
	}
	f.left--
	return len(p), nil
}

func TestExportWritersReturnWriteError(t *testing.T) {
	for _, wr := range exportWriters(exportFixture(10000)) {
		if err := wr.write(&failWriter{left: 1}); !errors.Is(err, errSinkFull) {
			t.Errorf("%s returned %v, want the writer's error", wr.name, err)
		}
	}
}

// endpoint turns a fuzzed string into a flow endpoint: an ip:port, else
// a bare address on port 7, else the zero AddrPort.
func endpoint(s string) netip.AddrPort {
	if p, err := netip.ParseAddrPort(s); err == nil {
		return p
	}
	if a, err := netip.ParseAddr(s); err == nil {
		return netip.AddrPortFrom(a, 7)
	}
	return netip.AddrPort{}
}

// FuzzTraceExport holds every trace, flow and time-series writer to the
// bytes of the reference encoding below, for fuzzed categories, names,
// annotations with repeated keys, and endpoints. One string recurs as
// category, name, key and value across events and spans, and one span
// is left for CloseOpenSpans.
func FuzzTraceExport(f *testing.F) {
	f.Add("phase", "deploy", "devs", "3", "10.0.0.2:4000", "10.0.0.1:9999")
	f.Fuzz(func(t *testing.T, cat, name, key, val, src, dst string) {
		tr := NewTracer()
		id := tr.BeginSpan(sim.Second, cat, name, KV{key, val}, KV{val, key}, KV{key, name})
		tr.Event(2*sim.Second, cat, name)
		tr.Event(2*sim.Second, name, val, KV{key, cat}, KV{cat, val}, KV{key, key})
		tr.RecordSpan(4*sim.Second, 3*sim.Second, val, key)
		tr.EndSpan(id, 5*sim.Second)
		tr.Event(6*sim.Second, CatNet, key, KV{name, cat})
		tr.BeginSpan(6*sim.Second, cat, cat, KV{cat, cat}, KV{key, cat}) // left open
		tr.Event(7*sim.Second, cat, cat, KV{cat, cat})
		tr.RecordSpan(7*sim.Second, 8*sim.Second, key, cat, KV{cat, key}, KV{cat, cat})
		tr.CloseOpenSpans(9 * sim.Second)

		fb := &FlowBuffer{}
		fb.ExportFlows([]FlowRecord{
			{StartUS: 1, EndUS: 2, Proto: cat, Src: endpoint(src), Dst: endpoint(dst),
				Packets: 3, Bytes: 4, TCPFlags: 0x12, Label: key, Reason: val},
			{Proto: name, Src: endpoint(dst), Label: name},
		})

		w := NewWindows(sim.Second)
		w.Column(name, func() float64 { return 0.25 })
		w.DeltaColumn(key, func() float64 { return 3e21 })
		w.Sample(sim.Second)
		w.Sample(2 * sim.Second)

		want := map[string][]byte{
			"Tracer.WriteChromeTrace": refChromeTrace(refRecords(tr)),
			"Tracer.WriteJSONL":       refTraceJSONL(refRecords(tr)),
			"FlowBuffer.WriteCSV":     refFlowCSV(fb),
			"FlowBuffer.WriteJSONL":   refFlowJSONL(fb),
			"Windows.WriteCSV":        refWindowsCSV(w),
			"Windows.WriteJSONL":      refWindowsJSONL(w),
		}
		for _, wr := range exportWriters(tr, fb, w) {
			var buf bytes.Buffer
			if err := wr.write(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want[wr.name]) {
				t.Errorf("%s:\n got %q\nwant %q", wr.name, buf.Bytes(), want[wr.name])
			}
		}
	})
}

// The reference encoding: the writers as they were before the append
// encoder, built on encoding/json and fmt.

type refRecord struct {
	Type  string            `json:"type"`
	Cat   string            `json:"cat"`
	Name  string            `json:"name"`
	AtUS  int64             `json:"ts_us"`
	EndUS *int64            `json:"end_us,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

func refArgMap(args []KV) map[string]string {
	if len(args) == 0 {
		return nil
	}
	m := make(map[string]string, len(args))
	for _, kv := range args {
		m[kv.K] = kv.V
	}
	return m
}

// refRecords reads a tracer's records, in order, into the reference
// shape.
func refRecords(t *Tracer) []refRecord {
	var out []refRecord
	for i := range t.recs {
		r := &t.recs[i]
		var args []KV
		ids := t.argIDs(r)
		for j := 0; j < len(ids); j += 2 {
			args = append(args, KV{t.strs[ids[j]], t.strs[ids[j+1]]})
		}
		rec := refRecord{
			Type: "event", Cat: t.strs[r.cat], Name: t.strs[r.name],
			AtUS: micros(r.start), Args: refArgMap(args),
		}
		if r.flags&recSpan != 0 {
			end := micros(r.end)
			rec.Type, rec.EndUS = "span", &end
		}
		out = append(out, rec)
	}
	return out
}

func refTraceJSONL(recs []refRecord) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

type refChromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat"`
	Phase string            `json:"ph"`
	TS    int64             `json:"ts"`
	Dur   *int64            `json:"dur,omitempty"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

func refChromeTrace(recs []refRecord) []byte {
	var cats []string
	seen := make(map[string]bool)
	for _, r := range recs {
		if !seen[r.Cat] {
			seen[r.Cat] = true
			cats = append(cats, r.Cat)
		}
	}
	sort.Strings(cats)
	tid := make(map[string]int, len(cats))
	for i, c := range cats {
		tid[c] = i + 1
	}
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, r := range recs {
		ce := refChromeEvent{
			Name: r.Name, Cat: r.Cat, TS: r.AtUS,
			PID: 1, TID: tid[r.Cat], Args: r.Args,
		}
		if r.Type == "span" {
			dur := *r.EndUS - r.AtUS
			ce.Phase = "X"
			ce.Dur = &dur
		} else {
			ce.Phase = "i"
			ce.Scope = "t"
		}
		b, err := json.Marshal(ce)
		if err != nil {
			panic(err)
		}
		sep := ",\n"
		if i == len(recs)-1 {
			sep = "\n"
		}
		fmt.Fprintf(&buf, "%s%s", b, sep)
	}
	buf.WriteString("]\n")
	return buf.Bytes()
}

func refFlowCSV(b *FlowBuffer) []byte {
	var sb strings.Builder
	sb.WriteString(FlowCSVHeader)
	sb.WriteByte('\n')
	for _, r := range b.recs {
		fmt.Fprintf(&sb, "%d,%d,%s,%s,%s,%d,%d,%d,%s,%s\n",
			r.StartUS, r.EndUS, r.Proto, r.Src, r.Dst,
			r.Packets, r.Bytes, r.TCPFlags, r.Label, r.Reason)
	}
	return []byte(sb.String())
}

type refFlowJSON struct {
	StartUS  int64  `json:"start_us"`
	EndUS    int64  `json:"end_us"`
	Proto    string `json:"proto"`
	Src      string `json:"src"`
	Dst      string `json:"dst"`
	Packets  uint64 `json:"packets"`
	Bytes    uint64 `json:"bytes"`
	TCPFlags uint8  `json:"tcp_flags"`
	Label    string `json:"label"`
	Reason   string `json:"reason"`
}

func refFlowJSONL(b *FlowBuffer) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range b.recs {
		row := refFlowJSON{
			StartUS: r.StartUS, EndUS: r.EndUS, Proto: r.Proto,
			Src: r.Src.String(), Dst: r.Dst.String(),
			Packets: r.Packets, Bytes: r.Bytes, TCPFlags: r.TCPFlags,
			Label: r.Label, Reason: r.Reason,
		}
		if err := enc.Encode(row); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

func refFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func refWindowsCSV(w *Windows) []byte {
	var sb strings.Builder
	sb.WriteString("window_start_s")
	for _, c := range w.cols {
		sb.WriteByte(',')
		sb.WriteString(c.name)
	}
	sb.WriteByte('\n')
	for i, row := range w.rows {
		sb.WriteString(refFloat(w.times[i].Seconds()))
		for _, v := range row {
			sb.WriteByte(',')
			sb.WriteString(refFloat(v))
		}
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}

func refWindowsJSONL(w *Windows) []byte {
	var sb strings.Builder
	for i, row := range w.rows {
		sb.WriteString(`{"t_s":`)
		sb.WriteString(refFloat(w.times[i].Seconds()))
		for j, v := range row {
			sb.WriteByte(',')
			fmt.Fprintf(&sb, "%q:", w.cols[j].name)
			sb.WriteString(refFloat(v))
		}
		sb.WriteString("}\n")
	}
	return []byte(sb.String())
}
