package obs

import (
	"io"
	"sort"

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

// SpanID identifies an open span so it can be ended.
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

	seq  uint64
	open bool

	// Sharded-mode merge stamp: the emitting logical process and its
	// private emission sequence (see Tracer.SetStamper). Zero in the
	// legacy kernel; never serialized, so legacy artifacts are
	// unchanged.
	lp    uint32
	lpSeq uint64
}

// Event is a point occurrence at one simulated instant.
type Event struct {
	At   sim.Time
	Cat  string
	Name string
	Args []KV

	seq uint64

	// Sharded-mode merge stamp (see Span).
	lp    uint32
	lpSeq uint64
}

// DefaultMaxEvents caps recorded point events so a pathological run
// cannot exhaust memory; spans are never dropped (their count is
// bounded by phases and epochs). The cap is deterministic: the same
// run drops the same events.
const DefaultMaxEvents = 1 << 20

// Tracer records spans and events for one run. It is not safe for
// concurrent use — the simulation kernel is single-threaded, and so is
// the tracer. All methods are nil-safe so instrumented code can carry
// an optional tracer without guards.
type Tracer struct {
	spans   []Span
	events  []Event
	seq     uint64
	max     int
	dropped uint64

	// stamper supplies the (LP, per-LP emission sequence) merge stamp
	// for sharded runs; nil in the legacy kernel. The stamp is a
	// partition-independent total order within one LP, so per-shard
	// tracers merge deterministically (see MergeTracers).
	stamper func() (lp uint32, seq uint64)
}

// NewTracer returns an empty tracer with the default event cap.
func NewTracer() *Tracer {
	return &Tracer{max: DefaultMaxEvents}
}

// SetMaxEvents overrides the point-event cap; n <= 0 removes it.
func (t *Tracer) SetMaxEvents(n int) {
	if t == nil {
		return
	}
	t.max = n
}

// SetStamper installs the sharded-mode emission stamper. Every
// subsequent span or event records the stamp the hook returns at
// emission time; MergeTracers orders entries by (time, stamp).
func (t *Tracer) SetStamper(fn func() (lp uint32, seq uint64)) {
	if t == nil {
		return
	}
	t.stamper = fn
}

func (t *Tracer) stamp() (uint32, uint64) {
	if t.stamper == nil {
		return 0, 0
	}
	return t.stamper()
}

// Event records a point event at simulated instant at.
func (t *Tracer) Event(at sim.Time, cat, name string, args ...KV) {
	if t == nil {
		return
	}
	if t.max > 0 && len(t.events) >= t.max {
		t.dropped++
		return
	}
	t.seq++
	lp, lpSeq := t.stamp()
	t.events = append(t.events, Event{At: at, Cat: cat, Name: name, Args: args, seq: t.seq, lp: lp, lpSeq: lpSeq}) //simlint:allow allocfree(trace buffer growth happens only when tracing is armed; untraced runs return at the nil-receiver guard above)
}

// BeginSpan opens a span at simulated instant at and returns its id.
func (t *Tracer) BeginSpan(at sim.Time, cat, name string, args ...KV) SpanID {
	if t == nil {
		return -1
	}
	t.seq++
	id := SpanID(len(t.spans))
	lp, lpSeq := t.stamp()
	t.spans = append(t.spans, Span{
		ID: id, Cat: cat, Name: name, Start: at, End: at, Args: args,
		seq: t.seq, open: true, lp: lp, lpSeq: lpSeq,
	})
	return id
}

// EndSpan closes a span at simulated instant at. Ending an unknown or
// already-closed span is a no-op.
func (t *Tracer) EndSpan(id SpanID, at sim.Time) {
	if t == nil || id < 0 || int(id) >= len(t.spans) {
		return
	}
	sp := &t.spans[id]
	if !sp.open {
		return
	}
	sp.open = false
	if at > sp.Start {
		sp.End = at
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
	t.seq++
	lp, lpSeq := t.stamp()
	t.spans = append(t.spans, Span{
		ID: SpanID(len(t.spans)), Cat: cat, Name: name,
		Start: start, End: end, Args: args, seq: t.seq, lp: lp, lpSeq: lpSeq,
	})
}

// CloseOpenSpans ends every still-open span at the given instant —
// called once when a run finishes so exports never carry zero-length
// phantom phases.
func (t *Tracer) CloseOpenSpans(at sim.Time) {
	if t == nil {
		return
	}
	for i := range t.spans {
		if t.spans[i].open {
			t.EndSpan(SpanID(i), at)
		}
	}
}

// Spans returns a copy of all recorded spans in begin order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Events returns a copy of all recorded point events in record order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, len(t.events))
	copy(out, t.events)
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
	for _, e := range t.events {
		if (cat == "" || e.Cat == cat) && (name == "" || e.Name == name) {
			n++
		}
	}
	return n
}

// MergeTracers combines per-shard tracers into one, ordered by the
// partition-independent key (time, emitting LP, per-LP emission
// sequence) — the same merge the sharded kernel applies to mailbox
// messages. Spans order by their start time. The inputs must have been
// stamped (SetStamper); within one LP the emission sequence is a total
// order, so the merged stream is a pure function of the run,
// independent of the shard count. The merged tracer carries fresh
// interleave sequence numbers and span IDs; input tracers are left
// untouched and the sum of their drop counts is preserved.
func MergeTracers(parts ...*Tracer) *Tracer {
	m := NewTracer()
	m.max = 0 // inputs already enforced their caps
	for _, p := range parts {
		if p == nil {
			continue
		}
		m.spans = append(m.spans, p.spans...)
		m.events = append(m.events, p.events...)
		m.dropped += p.dropped
	}
	sort.SliceStable(m.spans, func(i, j int) bool {
		a, b := &m.spans[i], &m.spans[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.lp != b.lp {
			return a.lp < b.lp
		}
		return a.lpSeq < b.lpSeq
	})
	sort.SliceStable(m.events, func(i, j int) bool {
		a, b := &m.events[i], &m.events[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.lp != b.lp {
			return a.lp < b.lp
		}
		return a.lpSeq < b.lpSeq
	})
	// Re-sequence the interleave: a span at (t, lp, n) precedes an
	// event at (t, lp, m) iff n < m; ties across LPs break low-LP
	// first, events of the same position after spans (a span's begin
	// stamp was drawn before any same-position event's).
	si, ei := 0, 0
	var seq uint64
	spanFirst := func() bool {
		if si >= len(m.spans) {
			return false
		}
		if ei >= len(m.events) {
			return true
		}
		sp, ev := &m.spans[si], &m.events[ei]
		if sp.Start != ev.At {
			return sp.Start < ev.At
		}
		if sp.lp != ev.lp {
			return sp.lp < ev.lp
		}
		return sp.lpSeq < ev.lpSeq
	}
	for si < len(m.spans) || ei < len(m.events) {
		seq++
		if spanFirst() {
			m.spans[si].seq = seq
			m.spans[si].ID = SpanID(si)
			si++
		} else {
			m.events[ei].seq = seq
			ei++
		}
	}
	m.seq = seq
	return m
}

func micros(t sim.Time) int64 { return int64(t / sim.Microsecond) }

// walk visits spans and events interleaved in record (seq) order, which
// for a single-threaded simulation is chronological by begin time, and
// stops at the first error. The order — and therefore every exported
// byte — is a pure function of the run.
func (t *Tracer) walk(span func(*Span) error, event func(*Event) error) error {
	si, ei := 0, 0
	for si < len(t.spans) || ei < len(t.events) {
		var err error
		if ei >= len(t.events) || (si < len(t.spans) && t.spans[si].seq < t.events[ei].seq) {
			err = span(&t.spans[si])
			si++
		} else {
			err = event(&t.events[ei])
			ei++
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteJSONL writes one JSON object per line, spans and events
// interleaved in record order. A line holds "type" ("span" or "event"),
// "cat", "name" and "ts_us"; a span adds "end_us"; an annotated entry
// ends with "args", its keys sorted.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	e := newEnc(w)
	head := func(typ, cat, name string, at sim.Time) {
		e.raw(`{"type":"`)
		e.raw(typ)
		e.raw(`","cat":`)
		e.str(cat)
		e.raw(`,"name":`)
		e.str(name)
		e.raw(`,"ts_us":`)
		e.int(micros(at))
	}
	err := t.walk(func(sp *Span) error {
		head("span", sp.Cat, sp.Name, sp.Start)
		e.raw(`,"end_us":`)
		e.int(micros(sp.End))
		e.args(sp.Args)
		e.raw("}\n")
		return e.endRecord()
	}, func(ev *Event) error {
		head("event", ev.Cat, ev.Name, ev.At)
		e.args(ev.Args)
		e.raw("}\n")
		return e.endRecord()
	})
	if err != nil {
		return err
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
	e.raw("[\n")
	n := 0
	head := func(name, cat, ph string, at sim.Time) {
		if n > 0 {
			e.raw(",\n")
		}
		n++
		e.raw(`{"name":`)
		e.str(name)
		e.raw(`,"cat":`)
		e.str(cat)
		e.raw(`,"ph":"`)
		e.raw(ph)
		e.raw(`","ts":`)
		e.int(micros(at))
	}
	err := t.walk(func(sp *Span) error {
		head(sp.Name, sp.Cat, "X", sp.Start)
		e.raw(`,"dur":`)
		e.int(micros(sp.End) - micros(sp.Start))
		e.raw(`,"pid":1,"tid":`)
		e.int(int64(tid[sp.Cat]))
		e.args(sp.Args)
		e.raw("}")
		return e.endRecord()
	}, func(ev *Event) error {
		head(ev.Name, ev.Cat, "i", ev.At)
		e.raw(`,"pid":1,"tid":`)
		e.int(int64(tid[ev.Cat]))
		e.raw(`,"s":"t"`)
		e.args(ev.Args)
		e.raw("}")
		return e.endRecord()
	})
	if err != nil {
		return err
	}
	if n > 0 {
		e.raw("\n")
	}
	e.raw("]\n")
	return e.flush()
}

// tracks numbers the recorded categories from 1 in sorted order: each
// category's Chrome track.
func (t *Tracer) tracks() map[string]int {
	tid := make(map[string]int)
	var cats []string
	add := func(cat string) {
		if _, ok := tid[cat]; !ok {
			tid[cat] = 0
			cats = append(cats, cat)
		}
	}
	for i := range t.spans {
		add(t.spans[i].Cat)
	}
	for i := range t.events {
		add(t.events[i].Cat)
	}
	sort.Strings(cats)
	for i, cat := range cats {
		tid[cat] = i + 1
	}
	return tid
}
