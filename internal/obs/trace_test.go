package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"ddosim/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// sampleTracer builds a small fixed scenario: two phase spans, a churn
// epoch, and a handful of point events — enough to exercise span
// nesting, args, and the span/event interleave.
func sampleTracer() *Tracer {
	tr := NewTracer()
	deploy := tr.BeginSpan(0, CatPhase, "deploy", KV{"devs", "3"})
	tr.EndSpan(deploy, 2*sim.Second)
	recruit := tr.BeginSpan(2*sim.Second, CatPhase, "recruitment")
	tr.Event(2500*sim.Millisecond, CatExploit, "exploit-attempt", KV{"channel", "dns"}, KV{"victim", "10.0.0.7"})
	tr.Event(3*sim.Second, CatExploit, "exploit-success", KV{"dev", "dev-001"}, KV{"binary", "connman"})
	epoch := tr.BeginSpan(4*sim.Second, CatChurn, "churn-epoch", KV{"n", "1"})
	tr.Event(4500*sim.Millisecond, CatChurn, "device-down", KV{"dev", "dev-002"})
	tr.EndSpan(epoch, 6*sim.Second)
	tr.Event(7*sim.Second, CatCNC, "attack-command", KV{"method", "udpplain"})
	tr.EndSpan(recruit, 7*sim.Second)
	tr.Event(8*sim.Second, CatNet, "queue-drop", KV{"node", "router"}, KV{"reason", "drop-tail"})
	return tr
}

func TestTracerSpanLifecycle(t *testing.T) {
	tr := sampleTracer()
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	if spans[0].Name != "deploy" || spans[0].End != 2*sim.Second {
		t.Errorf("deploy span = %+v", spans[0])
	}
	if spans[1].Name != "recruitment" || spans[1].Start != 2*sim.Second || spans[1].End != 7*sim.Second {
		t.Errorf("recruitment span = %+v", spans[1])
	}
	if got := tr.CountEvents(CatExploit, ""); got != 2 {
		t.Errorf("CountEvents(exploit) = %d, want 2", got)
	}
	if got := tr.CountEvents("", "queue-drop"); got != 1 {
		t.Errorf("CountEvents(queue-drop) = %d, want 1", got)
	}
	// Ending twice or with a bogus id must be harmless.
	tr.EndSpan(spans[0].ID, 99*sim.Second)
	tr.EndSpan(SpanID(42), sim.Second)
	tr.EndSpan(SpanID(-1), sim.Second)
	if got := tr.Spans()[0].End; got != 2*sim.Second {
		t.Errorf("re-EndSpan moved End to %v", got)
	}
}

func TestTracerCloseOpenSpans(t *testing.T) {
	tr := NewTracer()
	tr.BeginSpan(0, CatPhase, "deploy")
	id := tr.BeginSpan(sim.Second, CatPhase, "recruitment")
	tr.EndSpan(id, 2*sim.Second)
	tr.CloseOpenSpans(5 * sim.Second)
	spans := tr.Spans()
	if spans[0].End != 5*sim.Second {
		t.Errorf("open span end = %v, want 5s", spans[0].End)
	}
	if spans[1].End != 2*sim.Second {
		t.Errorf("closed span end moved to %v", spans[1].End)
	}
}

func TestTracerEventCap(t *testing.T) {
	tr := NewTracer()
	tr.SetMaxEvents(3)
	for i := 0; i < 5; i++ {
		tr.Event(sim.Time(i)*sim.Second, CatNet, "queue-drop")
	}
	if got := len(tr.Events()); got != 3 {
		t.Errorf("events kept = %d, want 3", got)
	}
	if got := tr.Dropped(); got != 2 {
		t.Errorf("dropped = %d, want 2", got)
	}
	// Spans are never capped.
	id := tr.BeginSpan(0, CatPhase, "deploy")
	tr.EndSpan(id, sim.Second)
	if sp := tr.Spans(); len(sp) != 1 || sp[0].ID != id || sp[0].End != sim.Second {
		t.Errorf("spans past the event cap = %+v, want one deploy span with id %d ending at 1s", sp, id)
	}
}

// TestQueueDropEventAllocFree holds the drop path to its allocation
// contract. Once a drop's strings are interned and the arenas have
// grown, recording another drop allocates nothing, and the trace storage
// holds no pointer for the garbage collector to scan.
func TestQueueDropEventAllocFree(t *testing.T) {
	tr := NewTracer()
	tr.SetMaxEvents(0)
	node := "router"
	drop := func() {
		tr.Event(sim.Second, CatNet, "queue-drop", KV{"node", node}, KV{"reason", "drop-tail"})
	}
	for i := 0; i < 10000; i++ {
		drop()
	}
	if got := testing.AllocsPerRun(10000, drop); got > 0.01 {
		t.Errorf("a queue drop averages %v allocations, want at most 0.01", got)
	}
	if f := pointerField(reflect.TypeOf(record{})); f != "" {
		t.Errorf("record holds a pointer in %s; the trace storage must be pointer-free", f)
	}
	if f := pointerField(reflect.TypeOf(traceChunk{}.recs).Elem()); f != "" {
		t.Errorf("a chunk's record array holds a pointer in %s; the trace storage must be pointer-free", f)
	}
	if f := pointerField(reflect.TypeOf(traceChunk{}.args).Elem()); f != "" {
		t.Errorf("a chunk's arena holds a pointer in %s; the trace storage must be pointer-free", f)
	}
	if n := unsafe.Sizeof(record{}); n > 32 {
		t.Errorf("record is %d bytes, want at most 32", n)
	}
}

// TestTraceGrowthAllocatesOnlyWhatItStores holds recording to the
// memory the trace keeps. A two-annotation drop stores a 32-byte record
// and four 4-byte ids, 48 bytes, so 100,000 drops may allocate at most
// 50 bytes each; storage that grows by copying allocates several times
// that.
func TestTraceGrowthAllocatesOnlyWhatItStores(t *testing.T) {
	const n = 100000
	tr := NewTracer()
	tr.SetMaxEvents(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		tr.Event(sim.Time(i)*sim.Microsecond, CatNet, "queue-drop", KV{"node", "router"}, KV{"reason", "drop-tail"})
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.TotalAlloc-before.TotalAlloc) / n; per > 50 {
		t.Errorf("recording %d drops allocated %.1f bytes per drop, want at most 50", n, per)
	}
	if got := tr.CountEvents(CatNet, "queue-drop"); got != n {
		t.Errorf("CountEvents = %d, want %d", got, n)
	}
}

// modelEntry is what a test recorded into a tracer, kept beside it.
type modelEntry struct {
	span, open bool
	cat, name  string
	start, end sim.Time
	args       []KV
}

// TestTraceChunkBoundaries checks every reader and writer of the trace
// against a model of what was recorded, on tracers that end one record
// short of a chunk, at a chunk boundary, one record past it, and one
// record into a fourth chunk. Each entry's annotations are its own, so a
// record read through another chunk's arena shows. A span begun in the
// first chunk ends in the last, spans left open in several chunks close
// together, each chunk's last slot holds an entry with 300 annotations,
// more than the arena starts with, a category first appears past the
// first chunk, and the event cap falls mid-chunk.
func TestTraceChunkBoundaries(t *testing.T) {
	for _, n := range []int{chunkLen - 1, chunkLen, chunkLen + 1, 3*chunkLen + 1} {
		t.Run(fmt.Sprint(n), func(t *testing.T) { checkChunkedTrace(t, n) })
	}
}

func checkChunkedTrace(t *testing.T, n int) {
	tr := NewTracer()
	maxEvents := n / 2
	tr.SetMaxEvents(maxEvents)
	var model []modelEntry
	closeModel := func(id SpanID, at sim.Time) {
		if m := &model[id]; m.open {
			m.open = false
			m.end = max(at, m.start)
		}
	}
	end := func(id SpanID, at sim.Time) {
		tr.EndSpan(id, at)
		closeModel(id, at)
	}
	cats, names := []string{CatNet, CatCNC, CatChurn, "late"}, []string{"a", "b", "c", "d"}
	var long SpanID
	var open []SpanID
	var nevents int
	var dropped uint64
	capAt := -1 // the record count when the first event was dropped
	for k := 0; len(model) < n; k++ {
		at := sim.Time(k) * sim.Millisecond
		lastSlot := len(model)%chunkLen == chunkLen-1
		var args []KV
		na := k % 5
		if lastSlot {
			na = 300
		}
		for a := 0; a < na; a++ {
			args = append(args, KV{fmt.Sprintf("k%d", a), fmt.Sprintf("v%d.%d", k, a)})
		}
		e := modelEntry{cat: cats[k%3], name: names[k%len(names)], start: at, end: at, args: args}
		if len(model) >= chunkLen && k%6 == 1 {
			e.cat = cats[3]
		}
		switch {
		case lastSlot || k%5 == 2:
			// Every third span ends before it starts and is clamped.
			e.span, e.end = true, at+sim.Time(k%3-1)*sim.Second
			tr.RecordSpan(e.start, e.end, e.cat, e.name, args...)
			e.end = max(e.end, e.start)
		case k == 1 || k%7 == 3:
			e.span, e.open = true, true
			id := tr.BeginSpan(at, e.cat, e.name, args...)
			if int(id) != len(model) {
				t.Fatalf("BeginSpan returned id %d for record %d", id, len(model))
			}
			if k == 1 {
				long = id
			} else {
				open = append(open, id)
			}
		default:
			tr.Event(at, e.cat, e.name, args...)
			if nevents == maxEvents {
				dropped++
				if capAt < 0 {
					capAt = len(model)
				}
				continue
			}
			nevents++
		}
		model = append(model, e)
		if k%13 == 0 && len(open) > 0 {
			end(open[0], at)
			open = open[1:]
		}
	}
	if capAt < 0 || capAt%chunkLen == 0 {
		t.Fatalf("the event cap fell at record %d, not mid-chunk", capAt)
	}
	if n >= chunkLen && len(tr.chunks[0].args) <= chunkArgs {
		t.Fatalf("the first chunk's arena holds %d ids, not more than the %d it starts with", len(tr.chunks[0].args), chunkArgs)
	}
	last := sim.Time(n) * sim.Second
	end(long, last)
	tr.CloseOpenSpans(last + sim.Second)
	for i := range model {
		closeModel(SpanID(i), last+sim.Second)
	}

	var refs []refRecord
	var spans []Span
	var events []Event
	counts := make(map[[2]string]int)
	for i, m := range model {
		r := refRecord{Type: "event", Cat: m.cat, Name: m.name, AtUS: micros(m.start), Args: refArgMap(m.args)}
		if m.span {
			endUS := micros(m.end)
			r.Type, r.EndUS = "span", &endUS
			spans = append(spans, Span{ID: SpanID(i), Cat: m.cat, Name: m.name, Start: m.start, End: m.end, Args: m.args})
		} else {
			events = append(events, Event{At: m.start, Cat: m.cat, Name: m.name, Args: m.args})
			for _, c := range []string{"", m.cat} {
				for _, nm := range []string{"", m.name} {
					counts[[2]string{c, nm}]++
				}
			}
		}
		refs = append(refs, r)
	}

	if got := refRecords(tr); !reflect.DeepEqual(got, refs) {
		t.Errorf("the stored records differ from those recorded")
	}
	for _, wr := range []struct {
		name  string
		write func(io.Writer) error
		want  []byte
	}{
		{"WriteChromeTrace", tr.WriteChromeTrace, refChromeTrace(refs)},
		{"WriteJSONL", tr.WriteJSONL, refTraceJSONL(refs)},
	} {
		var buf bytes.Buffer
		if err := wr.write(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), wr.want) {
			t.Errorf("%s differs from the reference encoding of what was recorded", wr.name)
		}
	}
	if got := tr.Spans(); !reflect.DeepEqual(got, spans) {
		t.Errorf("Spans() differs from the spans recorded")
	}
	if got := tr.Events(); !reflect.DeepEqual(got, events) {
		t.Errorf("Events() differs from the events recorded")
	}
	for _, c := range append([]string{""}, cats...) {
		for _, nm := range append([]string{""}, names...) {
			if got, want := tr.CountEvents(c, nm), counts[[2]string{c, nm}]; got != want {
				t.Errorf("CountEvents(%q, %q) = %d, want %d", c, nm, got, want)
			}
		}
	}
	sum := (&Obs{Trace: tr}).Summarize(nil)
	if sum.TraceSpans != len(spans) || sum.TraceEvents != nevents || sum.TraceDropped != dropped {
		t.Errorf("Summarize = %d spans, %d events, %d dropped; want %d, %d, %d",
			sum.TraceSpans, sum.TraceEvents, sum.TraceDropped, len(spans), nevents, dropped)
	}
}

// pointerField names the first part of typ that holds a pointer, or
// returns "" when typ is pointer-free.
func pointerField(typ reflect.Type) string {
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p := pointerField(f.Type); p != "" {
				return f.Name + "." + p
			}
		}
		return ""
	case reflect.Array:
		return pointerField(typ.Elem())
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.Slice, reflect.String:
		return typ.Kind().String()
	}
	return ""
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Event(0, CatNet, "x")
	id := tr.BeginSpan(0, CatPhase, "y")
	tr.EndSpan(id, sim.Second)
	tr.CloseOpenSpans(sim.Second)
	tr.SetMaxEvents(1)
	if tr.Spans() != nil || tr.Events() != nil || tr.Dropped() != 0 || tr.CountEvents("", "") != 0 {
		t.Error("nil tracer leaked state")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil WriteJSONL wrote %q", buf.String())
	}
	buf.Reset()
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "[]\n" {
		t.Errorf("nil WriteChromeTrace wrote %q, want empty array", got)
	}
}

func TestWriteJSONLGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTracer().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace.golden.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("JSONL drifted from golden file:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func TestWriteJSONLDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := sampleTracer().WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := sampleTracer().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two identical scenarios exported different JSONL bytes")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTracer().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var entries []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &entries); err != nil {
		t.Fatalf("Chrome trace is not a JSON array: %v", err)
	}
	if len(entries) != 8 { // 3 spans + 5 events
		t.Fatalf("entries = %d, want 8", len(entries))
	}
	var complete, instant int
	tids := make(map[string]float64)
	for _, e := range entries {
		switch e["ph"] {
		case "X":
			complete++
			if _, ok := e["dur"]; !ok {
				t.Errorf("complete event %v missing dur", e["name"])
			}
		case "i":
			instant++
			if e["s"] != "t" {
				t.Errorf("instant event %v scope = %v, want t", e["name"], e["s"])
			}
		default:
			t.Errorf("unexpected phase %v", e["ph"])
		}
		if e["pid"] != float64(1) {
			t.Errorf("pid = %v, want 1", e["pid"])
		}
		cat := e["cat"].(string)
		tid := e["tid"].(float64)
		if prev, ok := tids[cat]; ok && prev != tid {
			t.Errorf("category %s on two tracks (%v, %v)", cat, prev, tid)
		}
		tids[cat] = tid
	}
	if complete != 3 || instant != 5 {
		t.Errorf("complete=%d instant=%d, want 3/5", complete, instant)
	}
	// Tracks are assigned in sorted category order: churn < cnc < exploit < net < phase.
	order := []string{CatChurn, CatCNC, CatExploit, CatNet, CatPhase}
	for i, cat := range order {
		if tids[cat] != float64(i+1) {
			t.Errorf("tid[%s] = %v, want %d", cat, tids[cat], i+1)
		}
	}
	// The recruitment span's duration covers 2s..7s.
	if !strings.Contains(buf.String(), `"name":"recruitment","cat":"phase","ph":"X","ts":2000000,"dur":5000000`) {
		t.Error("recruitment span missing expected ts/dur")
	}
}
