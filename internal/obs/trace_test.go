package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
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
// contract. A drop like the previous one joins its run, so recording it
// allocates nothing but its share of a delta chunk; the trace storage
// holds no pointer for the garbage collector to scan, and a record is
// 24 bytes.
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
	for name, typ := range map[string]reflect.Type{
		"a chunk":         reflect.TypeOf(tr.chunks).Elem().Elem(),
		"the kind table":  reflect.TypeOf(tr.kinds).Elem(),
		"the list arena":  reflect.TypeOf(tr.lists).Elem().Elem(),
		"the delta arena": reflect.TypeOf(tr.deltas).Elem().Elem(),
	} {
		if f := pointerField(typ); f != "" {
			t.Errorf("%s holds a pointer in %s; the trace storage must be pointer-free", name, f)
		}
	}
	if n := unsafe.Sizeof(record{}); n != 24 {
		t.Errorf("record is %d bytes, want 24", n)
	}
}

// TestTraceGrowthAllocatesOnlyWhatItStores holds recording to the
// memory the trace keeps. A drop like the previous one joins its run and
// stores a 4-byte time delta, so 100,000 drops may allocate at most 5
// bytes each; a 24-byte record per drop fails, and storage that grows
// by copying allocates several times that.
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
	if per := float64(after.TotalAlloc-before.TotalAlloc) / n; per > 5 {
		t.Errorf("recording %d drops allocated %.1f bytes per drop, want at most 5", n, per)
	}
	if got := tr.CountEvents(CatNet, "queue-drop"); got != n {
		t.Errorf("CountEvents = %d, want %d", got, n)
	}
}

// TestKillChainSpansShareLists holds kill-chain spans to the memory
// they keep. A Dev infected through a memory error records scan [dev],
// exploit [dev, binary], recruit, register and attack [dev], in that
// order, so the memo misses on its first three spans and stores 11 ids
// (44 bytes) per Dev: a span stores a 24-byte record and 8.8 bytes of
// lists, 32.8 in all (33.0 measured). The bound of 35 fails a list per
// span (37.8), a list arena that grows by copying (70.7) and a 32-byte
// record with its own annotations (48.2).
func TestKillChainSpansShareLists(t *testing.T) {
	const devs = 20000
	tr := NewTracer()
	names := make([]string, devs)
	binaries := []string{"connman", "dnsmasq"}
	for i := range names {
		names[i] = fmt.Sprintf("dev-%05d", i)
		// Intern the strings first, as a run's earlier events do.
		tr.Event(0, CatExploit, "infected", KV{"dev", names[i]}, KV{"binary", binaries[i%2]})
	}
	stages := []string{"scan", "exploit", "recruit", "register", "attack"}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, d := range names {
		dev, end := KV{"dev", d}, sim.Time(i)*sim.Millisecond
		tr.RecordSpan(0, end, CatKillChain, stages[0], dev)
		tr.RecordSpan(0, end, CatKillChain, stages[1], dev, KV{"binary", binaries[i%2]})
		for _, st := range stages[2:] {
			tr.RecordSpan(0, end, CatKillChain, st, dev)
		}
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.TotalAlloc-before.TotalAlloc) / (5 * devs); per > 35 {
		t.Errorf("recording %d kill-chain spans allocated %.1f bytes per span, want at most 35", 5*devs, per)
	}
	spans := tr.Spans()
	if len(spans) != 5*devs {
		t.Fatalf("spans = %d, want %d", len(spans), 5*devs)
	}
	for _, i := range []int{0, 1, 2, 4, 5, 6, 5*devs - 4, 5*devs - 1} {
		want := Span{ID: SpanID(devs + i), Cat: CatKillChain, Name: stages[i%5],
			End: sim.Time(i/5) * sim.Millisecond, Args: []KV{{"dev", names[i/5]}}}
		if i%5 == 1 {
			want.Args = append(want.Args, KV{"binary", binaries[i/5%2]})
		}
		if !reflect.DeepEqual(spans[i], want) {
			t.Errorf("span %d = %+v, want %+v", i, spans[i], want)
		}
	}
}

// modelEntry is what a test recorded into a tracer, kept beside it,
// with the index of the tracer entry that holds it.
type modelEntry struct {
	span, open bool
	cat, name  string
	start, end sim.Time
	args       []KV
	entry      int
}

// traceModel records into a tracer and keeps, beside it, the entries
// recorded, so that every reader and writer of the tracer is checked
// against the calls made rather than against its own storage. It
// applies the run rule to the calls: a point event joins the previous
// entry's run when that entry is a point event with the same category,
// name and annotations, the gap from its last member is in [0, 2^32)
// ns, and the run's deltas have not filled their chunk.
type traceModel struct {
	tr      *Tracer
	max     int // the event cap; 0 removes it
	entries []modelEntry
	nevents int
	dropped uint64
	records int // the tracer entries the run rule gives
	members int // members after the head of the last entry's run
	deltas  int // deltas the run rule stores
}

func newTraceModel(maxEvents int) *traceModel {
	m := &traceModel{tr: NewTracer(), max: maxEvents}
	m.tr.SetMaxEvents(maxEvents)
	return m
}

// joins reports whether a point event joins the last entry's run.
func (m *traceModel) joins(at sim.Time, cat, name string, args []KV) bool {
	if len(m.entries) == 0 {
		return false
	}
	p := m.entries[len(m.entries)-1]
	return !p.span && p.cat == cat && p.name == name && slices.Equal(p.args, args) &&
		at >= p.start && at-p.start < 1<<32 && (m.members == 0 || m.deltas%deltaChunk != 0)
}

// event records a point event and reports whether the cap kept it.
func (m *traceModel) event(at sim.Time, cat, name string, args ...KV) bool {
	m.tr.Event(at, cat, name, args...)
	if m.max > 0 && m.nevents >= m.max {
		m.dropped++
		return false
	}
	m.nevents++
	if m.joins(at, cat, name, args) {
		m.members++
		m.deltas++
	} else {
		m.records++
		m.members = 0
	}
	m.entries = append(m.entries, modelEntry{cat: cat, name: name, start: at, end: at, args: args, entry: m.records - 1})
	return true
}

func (m *traceModel) beginSpan(t *testing.T, at sim.Time, cat, name string, args ...KV) SpanID {
	id := m.tr.BeginSpan(at, cat, name, args...)
	if int(id) != m.records {
		t.Fatalf("BeginSpan returned id %d for entry %d", id, m.records)
	}
	m.records++
	m.entries = append(m.entries, modelEntry{span: true, open: true, cat: cat, name: name, start: at, end: at, args: args, entry: int(id)})
	return id
}

func (m *traceModel) recordSpan(start, end sim.Time, cat, name string, args ...KV) {
	m.tr.RecordSpan(start, end, cat, name, args...)
	m.records++
	m.entries = append(m.entries, modelEntry{span: true, cat: cat, name: name, start: start, end: max(end, start), args: args, entry: m.records - 1})
}

func (m *traceModel) endSpan(id SpanID, at sim.Time) {
	m.tr.EndSpan(id, at)
	for i := range m.entries {
		if m.entries[i].span && m.entries[i].entry == int(id) {
			m.close(i, at)
		}
	}
}

func (m *traceModel) closeOpenSpans(at sim.Time) {
	m.tr.CloseOpenSpans(at)
	for i := range m.entries {
		m.close(i, at)
	}
}

// close ends entry i at at if it is an open span.
func (m *traceModel) close(i int, at sim.Time) {
	if m.entries[i].open {
		e := &m.entries[i]
		e.open, e.end = false, max(at, e.start)
	}
}

// refs renders the entries, in order, in the reference shape.
func (m *traceModel) refs() []refRecord {
	var out []refRecord
	for _, e := range m.entries {
		out = append(out, refRecord{Span: e.span, Cat: e.cat, Name: e.name,
			AtUS: micros(e.start), EndUS: micros(e.end), Args: refArgMap(e.args)})
	}
	return out
}

// check holds the tracer's entries to the run rule, and the writer,
// Spans, Events, CountEvents and Summarize to the entries recorded.
func (m *traceModel) check(t *testing.T) {
	t.Helper()
	if m.tr.n != m.records || m.tr.nd != m.deltas {
		t.Errorf("the tracer holds %d entries and %d deltas; the run rule gives %d and %d",
			m.tr.n, m.tr.nd, m.records, m.deltas)
	}
	var spans []Span
	var events []Event
	cats, names := []string{"", "absent"}, []string{"", "absent"}
	for _, e := range m.entries {
		cats, names = append(cats, e.cat), append(names, e.name)
		if e.span {
			spans = append(spans, Span{ID: SpanID(e.entry), Cat: e.cat, Name: e.name, Start: e.start, End: e.end, Args: e.args})
		} else {
			events = append(events, Event{At: e.start, Cat: e.cat, Name: e.name, Args: e.args})
		}
	}
	var buf bytes.Buffer
	if err := m.tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if want := refChromeTrace(m.refs()); !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("WriteChromeTrace differs from the reference encoding of what was recorded:\n got %q\nwant %q", buf.Bytes(), want)
	}
	if got := m.tr.Spans(); len(got)+len(spans) > 0 && !reflect.DeepEqual(got, spans) {
		t.Errorf("Spans() differs from the spans recorded")
	}
	if got := m.tr.Events(); len(got)+len(events) > 0 && !reflect.DeepEqual(got, events) {
		t.Errorf("Events() differs from the events recorded")
	}
	slices.Sort(cats)
	slices.Sort(names)
	cats, names = slices.Compact(cats), slices.Compact(names)
	for _, c := range cats {
		for _, nm := range names {
			want := 0
			for _, e := range events {
				if (c == "" || e.Cat == c) && (nm == "" || e.Name == nm) {
					want++
				}
			}
			if got := m.tr.CountEvents(c, nm); got != want {
				t.Errorf("CountEvents(%q, %q) = %d, want %d", c, nm, got, want)
			}
		}
	}
	sum := (&Obs{Trace: m.tr}).Summarize(nil)
	if sum.TraceSpans != len(spans) || sum.TraceEvents != m.nevents || sum.TraceDropped != m.dropped {
		t.Errorf("Summarize = %d spans, %d events, %d dropped; want %d, %d, %d",
			sum.TraceSpans, sum.TraceEvents, sum.TraceDropped, len(spans), m.nevents, m.dropped)
	}
}

// TestTraceChunkBoundaries checks every reader and writer of the trace
// against a model of what was recorded, on tracers that end one record
// short of a chunk, at a chunk boundary, one record past it, and one
// record into a fourth chunk. Most entries carry annotations of their
// own, so a record read through another's list shows. The three records
// either side of each chunk boundary share one list of 300 annotations,
// so the memo hits across the boundary; some entries repeat the previous
// entry's kind with a list of their own. The lists fill several chunks
// of the list arena, and one list, longer than such a chunk, gets a
// chunk of its own. A span begun in the first chunk ends in the last, spans left open in
// several chunks close together, a category first appears past the
// first chunk, and the event cap falls mid-chunk.
func TestTraceChunkBoundaries(t *testing.T) {
	for _, n := range []int{chunkLen - 1, chunkLen, chunkLen + 1, 3*chunkLen + 1} {
		t.Run(fmt.Sprint(n), func(t *testing.T) { checkChunkedTrace(t, n) })
	}
}

func checkChunkedTrace(t *testing.T, n int) {
	m := newTraceModel(n / 2)
	cats, names := []string{CatNet, CatCNC, CatChurn, "late"}, []string{"a", "b", "c", "d"}
	var long SpanID
	var open []SpanID
	capAt := -1 // the record count when the first event was dropped
	for k := 0; m.records < n; k++ {
		at := sim.Time(k) * sim.Millisecond
		pos := m.records % chunkLen
		cat, name := cats[k%3], names[k%len(names)]
		var args []KV
		switch {
		case m.records+3 >= chunkLen && (pos >= chunkLen-3 || pos < 3):
			b := (m.records + 3) / chunkLen
			cat, name = cats[b%3], []string{"run", "run", "alt"}[k%3]
			for a := 0; a < 300; a++ {
				args = append(args, KV{fmt.Sprintf("k%d", a), fmt.Sprintf("run%d.%d", b, a)})
			}
		case k == 5:
			for a := 0; a < listChunk/2; a++ {
				args = append(args, KV{fmt.Sprintf("k%d", a), "long"})
			}
		default:
			for a := 0; a < k%5; a++ {
				args = append(args, KV{fmt.Sprintf("k%d", a), fmt.Sprintf("v%d.%d", k, a)})
			}
			if last := len(m.entries) - 1; k%11 == 0 && last >= 0 {
				cat, name = m.entries[last].cat, m.entries[last].name
			} else if m.records >= chunkLen && k%6 == 1 {
				cat = cats[3]
			}
		}
		switch {
		case pos == chunkLen-1 || k%5 == 2:
			// Every third span ends before it starts and is clamped.
			m.recordSpan(at, at+sim.Time(k%3-1)*sim.Second, cat, name, args...)
		case k == 1 || k%7 == 3:
			id := m.beginSpan(t, at, cat, name, args...)
			if k == 1 {
				long = id
			} else {
				open = append(open, id)
			}
		default:
			if !m.event(at, cat, name, args...) && capAt < 0 {
				capAt = m.records
			}
		}
		if k%13 == 0 && len(open) > 0 {
			m.endSpan(open[0], at)
			open = open[1:]
		}
	}
	if capAt < 0 || capAt%chunkLen == 0 {
		t.Fatalf("the event cap fell at record %d, not mid-chunk", capAt)
	}
	for b := chunkLen; b < n; b += chunkLen {
		if m.tr.at(b).args != m.tr.at(b-1).args {
			t.Errorf("records %d and %d hold equal annotations in two lists", b-1, b)
		}
	}
	own := 0 // chunks holding one list longer than a chunk
	for _, c := range m.tr.lists {
		if len(c) > listChunk {
			own++
		}
	}
	if own != 1 || len(m.tr.lists) < 4 {
		t.Errorf("the list arena holds %d chunks, %d of them longer than %d ids; want one such and at least 4",
			len(m.tr.lists), own, listChunk)
	}
	last := sim.Time(n) * sim.Second
	m.endSpan(long, last)
	m.closeOpenSpans(last + sim.Second)
	m.check(t)
}

// TestTraceRuns checks the run rule and every reader and writer of runs
// against the model, case by case. Each case names the tracer entries
// the rule gives, so a tracer that stopped forming runs fails too.
func TestTraceRuns(t *testing.T) {
	drop := []KV{{"node", "router"}, {"reason", "drop-tail"}}
	repeat := func(m *traceModel, n int, from, step sim.Time, cat, name string, args ...KV) {
		for i := 0; i < n; i++ {
			m.event(from+sim.Time(i)*step, cat, name, args...)
		}
	}
	for _, tc := range []struct {
		name    string
		max     int
		entries int
		record  func(t *testing.T, m *traceModel)
	}{
		{"a run crosses a delta chunk", 0, 3, func(t *testing.T, m *traceModel) {
			repeat(m, 100, 0, sim.Microsecond, CatNet, "queue-drop", drop...)
			// After the first run's 99 deltas, 3,997 members of the second
			// fill the chunk, and the next event starts a new entry.
			repeat(m, deltaChunk+10, sim.Second, 700, CatNet, "queue-drop")
			if len(m.tr.deltas) != 2 {
				t.Errorf("the delta arena holds %d chunks, want 2", len(m.tr.deltas))
			}
		}},
		{"gaps of 2^32-1 and 2^32 ns", 0, 2, func(t *testing.T, m *traceModel) {
			m.event(sim.Second, CatNet, "queue-drop", drop...)
			m.event(sim.Second+1<<32-1, CatNet, "queue-drop", drop...)
			m.event(sim.Second+2<<32-1, CatNet, "queue-drop", drop...)
			m.event(sim.Second+2<<32-1, CatNet, "queue-drop", drop...)
		}},
		{"a negative gap", 0, 3, func(t *testing.T, m *traceModel) {
			repeat(m, 3, 5*sim.Second, sim.Millisecond, CatNet, "queue-drop", drop...)
			m.event(4*sim.Second, CatNet, "queue-drop", drop...)
			m.event(4*sim.Second, CatNet, "queue-drop", drop...)
			m.event(4*sim.Second-1, CatNet, "queue-drop", drop...)
		}},
		{"the cap falls mid-run", 5, 3, func(t *testing.T, m *traceModel) {
			m.event(0, CatCNC, "attack-command")
			repeat(m, 8, sim.Second, sim.Millisecond, CatNet, "queue-drop", drop...)
			m.recordSpan(0, sim.Second, CatPhase, "deploy")
			m.event(2*sim.Second, CatNet, "queue-drop", drop...)
		}},
		{"a span or another event between runs of one kind", 0, 7, func(t *testing.T, m *traceModel) {
			repeat(m, 3, 0, sim.Millisecond, CatNet, "queue-drop", drop...)
			id := m.beginSpan(t, sim.Second, CatPhase, "attack")
			repeat(m, 3, sim.Second, sim.Millisecond, CatNet, "queue-drop", drop...)
			m.endSpan(id, 3*sim.Second)
			repeat(m, 2, 2*sim.Second, 0, CatNet, "queue-drop", drop...)
			m.event(2*sim.Second, CatNet, "queue-drop", KV{"node", "router"})
			repeat(m, 2, 2*sim.Second, sim.Nanosecond, CatNet, "queue-drop", drop...)
			m.event(3*sim.Second, CatNet, "queue-drop", KV{"node", "router"}, KV{"reason", "loss"})
			m.event(3*sim.Second, CatNet, "link-drop", drop...)
		}},
		{"events without annotations", 0, 4, func(t *testing.T, m *traceModel) {
			repeat(m, 4, 0, sim.Second, CatChurn, "device-down")
			repeat(m, 2, 4*sim.Second, sim.Second, CatChurn, "device-up")
			m.event(6*sim.Second, CatChurn, "device-up", KV{"dev", "dev-001"})
			m.event(6*sim.Second, CatChurn, "device-up")
		}},
		{"one-member runs", 0, 6, func(t *testing.T, m *traceModel) {
			for i := 0; i < 4; i++ {
				m.event(sim.Time(i)*sim.Second, CatNet, []string{"a", "b"}[i%2], drop...)
			}
			repeat(m, 2, 4*sim.Second, sim.Microsecond, CatNet, "a", drop...)
			repeat(m, 2, 5*sim.Second, sim.Microsecond, CatNet, "b", drop...)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newTraceModel(tc.max)
			tc.record(t, m)
			if m.records != tc.entries {
				t.Errorf("the run rule gives %d entries, want %d", m.records, tc.entries)
			}
			m.closeOpenSpans(10 * sim.Second)
			m.check(t)
		})
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
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "[]\n" {
		t.Errorf("nil WriteChromeTrace wrote %q, want empty array", got)
	}
}

func TestWriteChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTracer().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace.golden.json")
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
		t.Errorf("Chrome trace drifted from golden file:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func TestWriteChromeTraceDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := sampleTracer().WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := sampleTracer().WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two identical scenarios exported different Chrome trace bytes")
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
