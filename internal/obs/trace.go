package obs

import (
	"cmp"
	"io"
	"math"
	"slices"

	"ddosim/internal/sim"
)

// Standard trace categories. Emitters are free to invent more; these
// are the ones the built-in instrumentation uses.
const (
	CatPhase     = "phase"     // run phases: deploy, recruitment, attack
	CatExploit   = "exploit"   // exploit attempts and outcomes
	CatCNC       = "cnc"       // C&C registration and commands
	CatChurn     = "churn"     // device membership flips, epochs
	CatNet       = "net"       // network-level events (queue drops)
	CatKillChain = "killchain" // per-bot kill-chain stages: scan, exploit, load, recruit, attack
)

// KV is one ordered key/value annotation on a span or event.
type KV struct {
	K, V string
}

// SpanID identifies a span so it can be ended: the index of the span's
// record in its tracer.
type SpanID int

// Span is a named interval of simulated time (a run phase, a churn
// epoch).
type Span struct {
	ID    SpanID
	Cat   string
	Name  string
	Start sim.Time
	End   sim.Time
	Args  []KV
}

// Event is a point occurrence at one simulated instant.
type Event struct {
	At   sim.Time
	Cat  string
	Name string
	Args []KV
}

// DefaultMaxEvents caps recorded point events so a pathological run
// cannot exhaust memory. The cap is deterministic: the same run drops
// the same events. Spans are not capped, and their count grows with the
// fleet: besides the run phases and churn epochs, every bot records its
// kill-chain stages and every fault window is a span, so a 10k-device
// run records about 20k spans.
const DefaultMaxEvents = 1 << 20

// record is one span or point event. A tracer stores its records in
// emission order, and that order is the export order. A record holds no
// pointers, so the garbage collector never scans the trace: cat and name
// are ids in the tracer's string table, and the annotations are nargs
// (key id, value id) pairs at args[argOff:].
type record struct {
	start, end sim.Time // an event's end is its start
	cat, name  uint32
	argOff     uint32
	nargs      uint16
	flags      uint16
}

const (
	recSpan uint16 = 1 << iota // the record is a span, not a point event
	recOpen                    // the span has not ended yet
)

// Tracer records spans and events for one run. It is not safe for
// concurrent use — the simulation kernel is single-threaded, and so is
// the tracer. All methods are nil-safe so instrumented code can carry
// an optional tracer without guards.
type Tracer struct {
	recs []record
	args []uint32 // annotation arena: (key id, value id) pairs

	// The string table: each distinct category, name, key and value is
	// stored once, and records refer to it by id.
	strs []string
	ids  map[string]uint32

	nevents int
	max     int
	dropped uint64
}

// NewTracer returns an empty tracer with the default event cap.
func NewTracer() *Tracer {
	return &Tracer{max: DefaultMaxEvents, ids: make(map[string]uint32)}
}

// SetMaxEvents overrides the point-event cap; n <= 0 removes it.
func (t *Tracer) SetMaxEvents(n int) {
	if t == nil {
		return
	}
	t.max = n
}

// intern returns s's id in the string table, adding s on first sight.
func (t *Tracer) intern(s string) uint32 {
	if id, ok := t.ids[s]; ok {
		return id
	}
	id := uint32(len(t.strs))
	t.strs = append(t.strs, s) //simlint:allow allocfree(first sight of a string only: a run's drops name one category, name and pair of keys, a few reasons and one node name per node)
	t.ids[s] = id              //simlint:allow allocfree(first sight of a string only: a run's drops name one category, name and pair of keys, a few reasons and one node name per node)
	return id
}

// add appends r with its strings interned and its annotations copied
// into the arena, and returns its index.
// args is only read, so a caller's variadic array stays on its stack.
func (t *Tracer) add(r record, cat, name string, args []KV) int {
	if len(args) > math.MaxUint16 {
		panic("obs: a trace entry carries more than 65535 annotations")
	}
	r.cat, r.name = t.intern(cat), t.intern(name)
	r.argOff, r.nargs = uint32(len(t.args)), uint16(len(args))
	for _, kv := range args {
		k, v := t.intern(kv.K), t.intern(kv.V)
		t.args = append(t.args, k, v) //simlint:allow allocfree(amortized arena growth, pointer-free; untraced runs return at the nil-receiver guard)
	}
	t.recs = append(t.recs, r) //simlint:allow allocfree(amortized record growth, pointer-free; untraced runs return at the nil-receiver guard)
	return len(t.recs) - 1
}

// Event records a point event at simulated instant at.
//
//simlint:hotpath
func (t *Tracer) Event(at sim.Time, cat, name string, args ...KV) {
	if t == nil {
		return
	}
	if t.max > 0 && t.nevents >= t.max {
		t.dropped++
		return
	}
	t.nevents++
	t.add(record{start: at, end: at}, cat, name, args)
}

// BeginSpan opens a span at simulated instant at and returns its id.
func (t *Tracer) BeginSpan(at sim.Time, cat, name string, args ...KV) SpanID {
	if t == nil {
		return -1
	}
	return SpanID(t.add(record{start: at, end: at, flags: recSpan | recOpen}, cat, name, args))
}

// EndSpan closes a span at simulated instant at. Ending an unknown or
// already-closed span is a no-op.
func (t *Tracer) EndSpan(id SpanID, at sim.Time) {
	if t == nil || id < 0 || int(id) >= len(t.recs) {
		return
	}
	r := &t.recs[id]
	if r.flags&recOpen == 0 {
		return
	}
	r.flags &^= recOpen
	if at > r.start {
		r.end = at
	}
}

// RecordSpan appends an already-closed span covering [start, end].
// Use it when the interval's endpoints are only known in retrospect —
// e.g. a kill-chain stage whose start was noted before it was certain
// a span would be produced. The span is sequenced at record time, so
// it appears in exports at its completion point; end times before
// start are clamped to start.
func (t *Tracer) RecordSpan(start, end sim.Time, cat, name string, args ...KV) {
	if t == nil {
		return
	}
	if end < start {
		end = start
	}
	t.add(record{start: start, end: end, flags: recSpan}, cat, name, args)
}

// CloseOpenSpans ends every still-open span at the given instant —
// called once when a run finishes so exports never carry zero-length
// phantom phases.
func (t *Tracer) CloseOpenSpans(at sim.Time) {
	if t == nil {
		return
	}
	for i := range t.recs {
		t.EndSpan(SpanID(i), at)
	}
}

// argIDs returns r's (key id, value id) pairs.
func (t *Tracer) argIDs(r *record) []uint32 {
	return t.args[r.argOff : r.argOff+2*uint32(r.nargs)]
}

// snapshot calls each for every record of one kind (recSpan or 0), in
// record order, with its annotations rebuilt. All of their Args share
// one backing array, allocated once.
func (t *Tracer) snapshot(kind uint16, each func(i int, r *record, args []KV)) {
	n := 0
	for i := range t.recs {
		if t.recs[i].flags&recSpan == kind {
			n += int(t.recs[i].nargs)
		}
	}
	kvs := make([]KV, n)
	for i := range t.recs {
		r := &t.recs[i]
		if r.flags&recSpan != kind {
			continue
		}
		var args []KV
		if r.nargs > 0 {
			args, kvs = kvs[:r.nargs:r.nargs], kvs[r.nargs:]
			ids := t.argIDs(r)
			for j := range args {
				args[j] = KV{t.strs[ids[2*j]], t.strs[ids[2*j+1]]}
			}
		}
		each(i, r, args)
	}
}

// Spans returns a copy of all recorded spans in begin order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	out := make([]Span, 0, len(t.recs)-t.nevents)
	t.snapshot(recSpan, func(i int, r *record, args []KV) {
		out = append(out, Span{ID: SpanID(i), Cat: t.strs[r.cat], Name: t.strs[r.name],
			Start: r.start, End: r.end, Args: args})
	})
	return out
}

// Events returns a copy of all recorded point events in record order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, t.nevents)
	t.snapshot(0, func(_ int, r *record, args []KV) {
		out = append(out, Event{At: r.start, Cat: t.strs[r.cat], Name: t.strs[r.name], Args: args})
	})
	return out
}

// Dropped reports how many point events hit the cap.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// CountEvents reports how many point events of the given category and
// name were recorded; empty strings match anything.
func (t *Tracer) CountEvents(cat, name string) int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.recs {
		r := &t.recs[i]
		if r.flags&recSpan == 0 && (cat == "" || t.strs[r.cat] == cat) && (name == "" || t.strs[r.name] == name) {
			n++
		}
	}
	return n
}

func micros(t sim.Time) int64 { return int64(t / sim.Microsecond) }

// WriteJSONL writes one JSON object per line, spans and events
// interleaved in record order. A line holds "type" ("span" or "event"),
// "cat", "name" and "ts_us"; a span adds "end_us"; an annotated entry
// ends with "args", its keys sorted.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	e := newEnc(w)
	js := encodeStrs(t.strs)
	for i := range t.recs {
		r := &t.recs[i]
		if r.flags&recSpan != 0 {
			e.raw(`{"type":"span","cat":`)
		} else {
			e.raw(`{"type":"event","cat":`)
		}
		e.id(js, r.cat)
		e.raw(`,"name":`)
		e.id(js, r.name)
		e.raw(`,"ts_us":`)
		e.int(micros(r.start))
		if r.flags&recSpan != 0 {
			e.raw(`,"end_us":`)
			e.int(micros(r.end))
		}
		e.args(js, t.argIDs(r))
		e.raw("}\n")
		if err := e.endRecord(); err != nil {
			return err
		}
	}
	return e.flush()
}

// WriteChromeTrace writes the run as Chrome trace_event JSON (catapult
// "JSON Array Format"), loadable in chrome://tracing and Perfetto: spans
// become "X" complete events with a "dur", point events become "i"
// instants of thread scope, and timestamps are microseconds of simulated
// time. Each category gets its own track (tid), assigned in sorted
// category order for determinism.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	tid := t.tracks()
	e := newEnc(w)
	js := encodeStrs(t.strs)
	e.raw("[\n")
	for i := range t.recs {
		r := &t.recs[i]
		if i > 0 {
			e.raw(",\n")
		}
		e.raw(`{"name":`)
		e.id(js, r.name)
		e.raw(`,"cat":`)
		e.id(js, r.cat)
		if r.flags&recSpan != 0 {
			e.raw(`,"ph":"X","ts":`)
			e.int(micros(r.start))
			e.raw(`,"dur":`)
			e.int(micros(r.end) - micros(r.start))
			e.raw(`,"pid":1,"tid":`)
			e.int(int64(tid[r.cat]))
		} else {
			e.raw(`,"ph":"i","ts":`)
			e.int(micros(r.start))
			e.raw(`,"pid":1,"tid":`)
			e.int(int64(tid[r.cat]))
			e.raw(`,"s":"t"`)
		}
		e.args(js, t.argIDs(r))
		e.raw("}")
		if err := e.endRecord(); err != nil {
			return err
		}
	}
	if len(t.recs) > 0 {
		e.raw("\n")
	}
	e.raw("]\n")
	return e.flush()
}

// tracks numbers the recorded categories from 1 in sorted order: each
// category's Chrome track, indexed by string id.
func (t *Tracer) tracks() []int {
	tid := make([]int, len(t.strs))
	var cats []uint32
	for i := range t.recs {
		if c := t.recs[i].cat; tid[c] == 0 {
			tid[c] = -1 // seen; numbered below
			cats = append(cats, c)
		}
	}
	slices.SortFunc(cats, func(a, b uint32) int { return cmp.Compare(t.strs[a], t.strs[b]) })
	for i, c := range cats {
		tid[c] = i + 1
	}
	return tid
}
