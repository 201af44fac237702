package obs

import (
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
	CatKillChain = "killchain" // per-bot kill-chain stages: scan, exploit, load, recruit, register, attack
)

// KV is one ordered key/value annotation on a span or event.
type KV struct {
	K, V string
}

// SpanID identifies a span so it can be ended: the index of the span's
// entry in its tracer.
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
// run records about 30k spans.
const DefaultMaxEvents = 1 << 20

// record is one entry of a tracer, 24 bytes: a span, a point event, or
// the head of a run of point events. A tracer stores its records in
// emission order, and that order is the export order. A record holds no
// pointers, so the garbage collector never scans the trace: kind indexes
// the tracer's (category, name) pairs, and args is the offset of its
// annotation list in the tracer's list arena.
//
// A point event's end would equal its start, so a run's head uses end
// for the run: the number of members after the head in the high 32 bits
// and the offset of their first time delta in the low 32.
type record struct {
	start, end sim.Time
	kind       uint16
	flags      uint16
	args       uint32
}

const (
	recSpan uint16 = 1 << iota // the record is a span, not a point event
	recOpen                    // the span has not ended yet
	recRun                     // the point event heads a run; end packs it
)

// run returns the number of members after a run's head and the offset
// of their first delta; a lone point event has none.
func (r *record) run() (n int, off uint32) {
	if r.flags&recRun == 0 {
		return 0, 0
	}
	return int(r.end >> 32), uint32(r.end)
}

// chunkLen is the number of records in one chunk of a tracer: a
// chunk is 24 KiB, one allocator size class.
const chunkLen = 1024

// listChunk is the number of ids in one chunk of a tracer's list arena:
// 16 KiB, one allocator size class. A list longer than that gets a
// chunk of its own.
const listChunk = 4096

// deltaChunk is the number of time deltas in one chunk of a tracer's
// delta arena: 16 KiB, one allocator size class. A run never spans two
// chunks, so it has at most deltaChunk members after its head.
const deltaChunk = 4096

// kind is a (category, name) pair as string ids.
type kind struct{ cat, name uint32 }

// Tracer records spans and events for one run. It is not safe for
// concurrent use — the simulation kernel is single-threaded, and so is
// the tracer. All methods are nil-safe so instrumented code can carry
// an optional tracer without guards.
type Tracer struct {
	// Records are stored in fixed chunks, so recording never copies one.
	chunks []*[chunkLen]record
	n      int // records stored; record i is chunks[i/chunkLen][i%chunkLen]

	// The string table: each distinct category, name, key and value is
	// stored once, and kinds and lists refer to it by id.
	strs []string
	ids  map[string]uint32

	// kinds holds each distinct (category, name) pair once, in order
	// of first sight; kindIDs finds a pair's index.
	kinds   []kind
	kindIDs map[kind]uint16

	// lists holds annotation lists as [n, k1, v1, …, kn, vn] string ids,
	// in fixed chunks so that growth never copies one. A list never spans
	// two chunks; its offset is its chunk's index times listChunk plus its
	// position there. Offset 0 is the empty list. A record whose
	// annotations equal the previous record's shares its list.
	lists [][]uint32

	// A point event whose kind and annotations equal those of the last
	// entry, itself a point event, joins that entry's run: it stores
	// only its nanosecond delta from the member before it, in an arena
	// of fixed chunks that is allocated on the first run. Delta i is
	// deltas[i/deltaChunk][i%deltaChunk]; nd deltas are stored, and last
	// is the time of the last entry's last member.
	deltas []*[deltaChunk]uint32
	nd     int
	last   sim.Time

	nspans  int
	nevents int // point events stored, run members included
	max     int
	dropped uint64
}

// NewTracer returns an empty tracer with the default event cap.
func NewTracer() *Tracer {
	return &Tracer{max: DefaultMaxEvents, ids: make(map[string]uint32),
		kindIDs: make(map[kind]uint16), lists: [][]uint32{{0}}}
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

// add appends r with its kind and annotation list and returns its
// index, or adds a point event to the last entry's run. The previous
// record is a one-entry memo: a call whose annotations equal its
// annotations, compared as strings, reuses its list, and only a list
// unlike the previous one is stored.
// args is only read, so a caller's variadic array stays on its stack.
func (t *Tracer) add(r record, cat, name string, args []KV) int {
	if len(args) > math.MaxUint16 {
		panic("obs: a trace entry carries more than 65535 annotations")
	}
	if r.flags == 0 && t.join(r.start, cat, name, args) {
		return t.n - 1
	}
	if r.flags&recSpan != 0 {
		t.nspans++
	}
	t.last = r.start
	r.kind = t.kindOf(cat, name)
	switch {
	case len(args) == 0:
	case t.n > 0 && t.isList(t.at(t.n-1).args, args):
		r.args = t.at(t.n - 1).args
	default:
		r.args = t.newList(args)
	}
	if t.n%chunkLen == 0 {
		t.chunks = append(t.chunks, new([chunkLen]record)) //simlint:allow allocfree(one pointer-free 24 KiB chunk per 1024 records; growth never copies a record; untraced runs return at the nil-receiver guard)
	}
	t.chunks[t.n/chunkLen][t.n%chunkLen] = r
	t.n++
	return t.n - 1
}

// join adds a point event at at to the last entry's run and reports
// whether it could: the entry must be a point event whose kind and
// annotations, compared as strings, equal the event's, so no map is
// consulted. A gap from the run's last member that is negative or does
// not fit 32 bits, or a run whose delta chunk is full, starts a new
// entry instead.
func (t *Tracer) join(at sim.Time, cat, name string, args []KV) bool {
	if t.n == 0 {
		return false
	}
	r := t.at(t.n - 1)
	gap := at - t.last
	if r.flags&recSpan != 0 || gap < 0 || gap > math.MaxUint32 {
		return false
	}
	if k := t.kinds[r.kind]; t.strs[k.cat] != cat || t.strs[k.name] != name || !t.isList(r.args, args) {
		return false
	}
	n, _ := r.run()
	if t.nd%deltaChunk == 0 {
		if n > 0 {
			return false // the run fills its chunk
		}
		if t.nd > math.MaxUint32-deltaChunk {
			panic("obs: a trace's run deltas outgrow 32-bit offsets")
		}
		t.deltas = append(t.deltas, new([deltaChunk]uint32)) //simlint:allow allocfree(one pointer-free 16 KiB chunk per 4096 events that repeat the one before them; growth never copies a delta)
	}
	off := t.nd - n // the run's deltas end where the arena's do
	t.deltas[t.nd/deltaChunk][t.nd%deltaChunk] = uint32(gap)
	t.nd++
	r.flags |= recRun
	r.end = sim.Time(n+1)<<32 | sim.Time(off)
	t.last = at
	return true
}

// kindOf returns the kind of (cat, name), adding it on first sight.
func (t *Tracer) kindOf(cat, name string) uint16 {
	p := kind{t.intern(cat), t.intern(name)}
	if k, ok := t.kindIDs[p]; ok {
		return k
	}
	if len(t.kinds) > math.MaxUint16 {
		panic("obs: a trace names more than 65536 category/name pairs")
	}
	k := uint16(len(t.kinds))
	t.kinds = append(t.kinds, p) //simlint:allow allocfree(first sight of a category/name pair only; call sites name a fixed set)
	t.kindIDs[p] = k             //simlint:allow allocfree(first sight of a category/name pair only; call sites name a fixed set)
	return k
}

// isList reports whether the list at off holds args.
func (t *Tracer) isList(off uint32, args []KV) bool {
	ids := t.argIDs(off)
	if len(ids) != 2*len(args) {
		return false
	}
	for j, kv := range args {
		if t.strs[ids[2*j]] != kv.K || t.strs[ids[2*j+1]] != kv.V {
			return false
		}
	}
	return true
}

// newList stores args as a list and returns its offset. A list that
// does not fit in the last chunk starts a new one.
func (t *Tracer) newList(args []KV) uint32 {
	c := len(t.lists) - 1
	if need := 1 + 2*len(args); len(t.lists[c])+need > cap(t.lists[c]) {
		if c++; c > math.MaxUint32/listChunk {
			panic("obs: a trace's annotation lists outgrow 32-bit offsets")
		}
		t.lists = append(t.lists, make([]uint32, 0, max(need, listChunk))) //simlint:allow allocfree(one pointer-free 16 KiB chunk per 4096 ids of lists unlike their predecessor; growth never copies a list)
	}
	off := uint32(c*listChunk + len(t.lists[c]))
	l := append(t.lists[c], uint32(len(args))) //simlint:allow allocfree(the chunk was checked above to have room for the whole list, so the append never grows it)
	for _, kv := range args {
		l = append(l, t.intern(kv.K), t.intern(kv.V)) //simlint:allow allocfree(the chunk was checked above to have room for the whole list, so the append never grows it)
	}
	t.lists[c] = l
	return off
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
	if t == nil || id < 0 || int(id) >= t.n {
		return
	}
	r := t.at(int(id))
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
// e.g. the kill-chain stages, built from each Dev's record when the run
// ends. The span is sequenced at record time, so it appears in exports
// after everything recorded before it; end times before start are
// clamped to start.
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
	for i := 0; i < t.n; i++ {
		t.EndSpan(SpanID(i), at)
	}
}

// at returns record i.
func (t *Tracer) at(i int) *record { return &t.chunks[i/chunkLen][i%chunkLen] }

// delta returns delta i.
func (t *Tracer) delta(i uint32) sim.Time {
	return sim.Time(t.deltas[i/deltaChunk][i%deltaChunk])
}

// argIDs returns the (key id, value id) pairs of the list at off.
func (t *Tracer) argIDs(off uint32) []uint32 {
	l := t.lists[off/listChunk][off%listChunk:]
	return l[1 : 1+2*l[0]]
}

// snapshot calls each for every span (span is recSpan) or every point
// event (span is 0), in record order, with its time (an event's instant,
// a span's start) and its annotations rebuilt. All of their Args share
// one backing array, allocated once; the members of a run share one
// Args.
func (t *Tracer) snapshot(span uint16, each func(i int, r *record, at sim.Time, args []KV)) {
	n := 0
	for i := 0; i < t.n; i++ {
		if r := t.at(i); r.flags&recSpan == span {
			n += len(t.argIDs(r.args)) / 2
		}
	}
	kvs := make([]KV, n)
	for i := 0; i < t.n; i++ {
		r := t.at(i)
		if r.flags&recSpan != span {
			continue
		}
		var args []KV
		if ids := t.argIDs(r.args); len(ids) > 0 {
			args, kvs = kvs[:len(ids)/2:len(ids)/2], kvs[len(ids)/2:]
			for j := range args {
				args[j] = KV{t.strs[ids[2*j]], t.strs[ids[2*j+1]]}
			}
		}
		at := r.start
		each(i, r, at, args)
		for m, off := r.run(); m > 0; m, off = m-1, off+1 {
			at += t.delta(off)
			each(i, r, at, args)
		}
	}
}

// Spans returns a copy of all recorded spans in begin order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	out := make([]Span, 0, t.nspans)
	t.snapshot(recSpan, func(i int, r *record, _ sim.Time, args []KV) {
		k := t.kinds[r.kind]
		out = append(out, Span{ID: SpanID(i), Cat: t.strs[k.cat], Name: t.strs[k.name],
			Start: r.start, End: r.end, Args: args})
	})
	return out
}

// Events returns a copy of all recorded point events in record order.
// The members of a run, events alike in all but time, share one Args.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, t.nevents)
	t.snapshot(0, func(_ int, r *record, at sim.Time, args []KV) {
		k := t.kinds[r.kind]
		out = append(out, Event{At: at, Cat: t.strs[k.cat], Name: t.strs[k.name], Args: args})
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
	for i := 0; i < t.n; i++ {
		r := t.at(i)
		k := t.kinds[r.kind]
		if r.flags&recSpan == 0 && (cat == "" || t.strs[k.cat] == cat) && (name == "" || t.strs[k.name] == name) {
			m, _ := r.run()
			n += 1 + m
		}
	}
	return n
}

func micros(t sim.Time) int64 { return int64(t / sim.Microsecond) }

// WriteChromeTrace writes the run as Chrome trace_event JSON (catapult
// "JSON Array Format"), loadable in chrome://tracing and Perfetto: spans
// become "X" complete events with a "dur", point events become "i"
// instants of thread scope, and timestamps are microseconds of simulated
// time. Each category gets its own track (tid), assigned in sorted
// category order for determinism. A run's members differ only in their
// timestamps, so the text around the head's timestamp is kept and
// copied around each member's.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	tid := t.tracks()
	e := newEnc(w)
	js := encodeStrs(t.strs)
	var around []byte // a run's text before its timestamp, then after it
	e.raw("[\n")
	for i := 0; i < t.n; i++ {
		r := t.at(i)
		k := t.kinds[r.kind]
		if i > 0 {
			e.raw(",\n")
		}
		head := len(e.buf)
		e.raw(`{"name":`)
		e.id(js, k.name)
		e.raw(`,"cat":`)
		e.id(js, k.cat)
		var ts, tail int // where a point event's timestamp starts and ends
		if r.flags&recSpan != 0 {
			e.raw(`,"ph":"X","ts":`)
			e.int(micros(r.start))
			e.raw(`,"dur":`)
			e.int(micros(r.end) - micros(r.start))
			e.raw(`,"pid":1,"tid":`)
			e.int(int64(tid[r.kind]))
		} else {
			e.raw(`,"ph":"i","ts":`)
			ts = len(e.buf)
			e.int(micros(r.start))
			tail = len(e.buf)
			e.raw(`,"pid":1,"tid":`)
			e.int(int64(tid[r.kind]))
			e.raw(`,"s":"t"`)
		}
		e.args(js, t.argIDs(r.args))
		e.raw("}")
		if n, off := r.run(); n > 0 {
			around = append(append(around[:0], e.buf[head:ts]...), e.buf[tail:]...)
			before, after := around[:ts-head], around[ts-head:]
			for at := r.start; n > 0; n, off = n-1, off+1 {
				if err := e.endRecord(); err != nil {
					return err
				}
				at += t.delta(off)
				e.raw(",\n")
				e.buf = append(e.buf, before...)
				e.int(micros(at))
				e.buf = append(e.buf, after...)
			}
		}
		if err := e.endRecord(); err != nil {
			return err
		}
	}
	if t.n > 0 {
		e.raw("\n")
	}
	e.raw("]\n")
	return e.flush()
}

// tracks numbers the recorded categories from 1 in sorted order and
// returns each kind's Chrome track. Every kind names a recorded entry,
// so the kinds' categories are the recorded ones.
func (t *Tracer) tracks() []int {
	cats := make([]string, len(t.kinds))
	for i, k := range t.kinds {
		cats[i] = t.strs[k.cat]
	}
	slices.Sort(cats)
	cats = slices.Compact(cats)
	tid := make([]int, len(t.kinds))
	for i, k := range t.kinds {
		j, _ := slices.BinarySearch(cats, t.strs[k.cat])
		tid[i] = j + 1
	}
	return tid
}
