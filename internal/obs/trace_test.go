package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
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
	if n := unsafe.Sizeof(record{}); n > 32 {
		t.Errorf("record is %d bytes, want at most 32", n)
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
