package sim

import (
	"errors"
	"math/rand"
)

// ErrStopped is returned by Run when the simulation was halted by an
// explicit call to Stop rather than by exhausting the event queue or
// reaching the configured horizon.
var ErrStopped = errors.New("sim: simulation stopped")

// EventID identifies a scheduled event so it can be cancelled. An id
// packs a slot index and a generation stamp; the zero EventID is never
// issued, so a zero-valued id field is always safe to Cancel (a no-op).
type EventID uint64

// slot holds one scheduled event's mutable state. Slots live in a
// flat table and are recycled through a free list; the generation
// stamp distinguishes the current tenant from stale queue entries and
// stale EventIDs, which is what lets Cancel run in O(1) with no map.
type slot struct {
	fn   func()
	gen  uint32
	src  Source
	live bool
}

func packRef(idx uint32, gen uint32) uint64 { return uint64(idx)<<32 | uint64(gen) }

func unpackRef(ref uint64) (idx uint32, gen uint32) {
	return uint32(ref >> 32), uint32(ref)
}

// compactMin is the minimum number of cancelled-but-unpopped queue
// entries before a sweep is worthwhile; below it the stale entries are
// cheaper to skip lazily at pop time than to compact eagerly.
const compactMin = 64

// Scheduler is the discrete-event engine. It is single-threaded and
// deterministic: events execute in (time, insertion) order, and all
// randomness flows through the seeded RNG it owns.
//
// The steady-state hot path is allocation-free: events are value
// entries in a 4-ary heap or in one of up to maxLanes FIFO lanes,
// callbacks live in a recycled slot table, cancellation is a
// generation-stamp bump, and delivered events are counted per Source
// in a fixed array — no per-event heap object, no map.
//
// The zero value is not usable; construct with NewScheduler.
type Scheduler struct {
	q       heapQueue
	lanes   [maxLanes]lane
	slots   []slot
	free    []uint32
	scratch []Item // reused by compact

	now       Time
	seq       uint64
	pending   int // scheduled and not cancelled
	stale     int // cancelled entries still inside q or a lane
	rng       *rand.Rand
	stopped   bool
	processed uint64
	peak      int                // most events pending after a pop
	delivered [maxSources]uint64 // events run, by source
	hook      func(at Time, src string, pending int)
}

// NewScheduler returns a scheduler whose random source is seeded with
// seed. Two schedulers built with the same seed drive identical runs.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed))}
}

// Now reports the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// RNG exposes the run's deterministic random source. All model
// components must draw randomness from here, never from package-level
// rand, to keep runs reproducible.
func (s *Scheduler) RNG() *rand.Rand { return s.rng }

// Processed reports how many events have executed so far.
func (s *Scheduler) Processed() uint64 { return s.processed }

// Pending reports how many events are queued and not cancelled.
func (s *Scheduler) Pending() int { return s.pending }

// PeakPending reports the deepest the queue has been just after an
// event was taken off it to run: the highest pending count any
// delivered event saw.
func (s *Scheduler) PeakPending() int { return s.peak }

// EventsBySource reports how many events of each source have run,
// indexed by Source, up to the highest source registered so far.
func (s *Scheduler) EventsBySource() []uint64 {
	sources.mu.Lock()
	n := len(sources.ids)
	sources.mu.Unlock()
	out := make([]uint64, n)
	copy(out, s.delivered[:n])
	return out
}

// QueueLen reports the number of entries physically inside the heap
// and the lanes, which may exceed Pending by the number of cancelled
// entries not yet swept. The invariant QueueLen() == Pending()+stale is
// bounded: a compaction sweep runs whenever stale entries outnumber
// live ones (and exceed a small floor), so QueueLen never drifts past
// roughly twice Pending.
func (s *Scheduler) QueueLen() int {
	n := s.q.Len()
	for i := range s.lanes {
		n += s.lanes[i].n
	}
	return n
}

// SetHook installs an observer invoked once per executed event with
// the event's time, the name its Source was registered under, and the
// queue depth after the pop. A nil hook disables observation. The
// simulator installs none; the benchmark's traced round attaches here.
func (s *Scheduler) SetHook(hook func(at Time, src string, pending int)) {
	s.hook = hook
}

// Schedule queues fn to run after delay, attributed to src (e.g.
// "net.tx", "churn.epoch") in the kernel's per-source event counts. A
// negative delay is treated as zero (run at the current instant, after
// already-queued events for it).
//
// An event with a positive delay goes to the FIFO lane for that delay,
// claiming an empty lane if none holds it yet, and to the heap only
// when every lane holds another delay. The run loop pops the itemLess
// minimum of the heap top and the lane heads, so where an event waits
// never changes when it runs.
//
// Lifetime contract: fn outlives the scheduling frame, so it must not
// capture values it merely borrows — in particular a pooled
// *netsim.Packet received as a parameter, which its owner may recycle
// before the event fires. Capture an owned packet only to transfer
// ownership into the callback (which then releases or forwards it).
// The stalecapture analyzer enforces this statically.
func (s *Scheduler) Schedule(delay Time, src Source, fn func()) EventID {
	if delay <= 0 {
		return s.ScheduleAt(s.now, src, fn)
	}
	l := s.laneFor(delay)
	if l == nil {
		return s.ScheduleAt(s.now+delay, src, fn)
	}
	it := s.newItem(s.now+delay, src, fn)
	l.push(it)
	return EventID(it.Ref)
}

// laneFor returns the lane holding delay d, else an empty lane claimed
// for d, else nil.
func (s *Scheduler) laneFor(d Time) *lane {
	var free *lane
	for i := range s.lanes {
		l := &s.lanes[i]
		if l.delay == d {
			return l
		}
		if free == nil && l.n == 0 {
			free = l
		}
	}
	if free != nil {
		free.delay = d
	}
	return free
}

// ScheduleAt queues fn to run at absolute time at, attributed to src.
// Times in the past are clamped to the current instant.
func (s *Scheduler) ScheduleAt(at Time, src Source, fn func()) EventID {
	if at < s.now {
		at = s.now
	}
	it := s.newItem(at, src, fn)
	s.q.Push(it)
	return EventID(it.Ref)
}

// newItem stores fn in a slot and returns the queue entry for it,
// stamped with the next sequence number.
func (s *Scheduler) newItem(at Time, src Source, fn func()) Item {
	if fn == nil {
		panic("sim: ScheduleAt with nil fn")
	}
	s.seq++
	var idx uint32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.slots = append(s.slots, slot{gen: 1}) //simlint:allow allocfree(slab growth only when the free list is empty; steady state pops recycled slots and never allocates)
		idx = uint32(len(s.slots) - 1)
	}
	sl := &s.slots[idx]
	sl.fn, sl.src, sl.live = fn, src, true
	s.pending++
	return Item{At: at, Seq: s.seq, Ref: packRef(idx, sl.gen)}
}

// Cancel removes a scheduled event. Cancelling an event that already ran
// (or was already cancelled) is a no-op and reports false — including
// when the event's slot has since been recycled for a newer event: the
// generation stamp in the id no longer matches, so the newer tenant is
// untouched.
func (s *Scheduler) Cancel(id EventID) bool {
	idx, gen := unpackRef(uint64(id))
	if int(idx) >= len(s.slots) {
		return false
	}
	sl := &s.slots[idx]
	if !sl.live || sl.gen != gen {
		return false
	}
	s.releaseSlot(idx, sl)
	s.pending--
	s.stale++
	if s.stale > s.pending && s.stale >= compactMin {
		s.compact()
	}
	return true
}

// releaseSlot retires a slot's current tenant: the callback reference
// is dropped (so the closure is collectable immediately), the
// generation advances (invalidating outstanding ids and queue
// entries), and the slot returns to the free list.
func (s *Scheduler) releaseSlot(idx uint32, sl *slot) {
	sl.fn, sl.live = nil, false
	sl.gen++
	if sl.gen == 0 {
		sl.gen = 1
	}
	s.free = append(s.free, idx) //simlint:allow allocfree(free-list capacity tracks the slot slab, so the push reuses spare capacity at steady state)
}

// refLive reports whether a queue entry still refers to its slot's
// current tenant.
func (s *Scheduler) refLive(ref uint64) bool {
	idx, gen := unpackRef(ref)
	sl := &s.slots[idx]
	return sl.live && sl.gen == gen
}

// compact sweeps cancelled entries out of the heap and the lanes. The
// heap is drained (in order) into a scratch slice and its live entries
// are re-pushed with their original sequence numbers; each lane keeps
// its live entries in place, in order. Relative order — and therefore
// the run — is unchanged.
func (s *Scheduler) compact() {
	s.scratch = s.scratch[:0]
	for {
		it, ok := s.q.Pop()
		if !ok {
			break
		}
		if s.refLive(it.Ref) {
			s.scratch = append(s.scratch, it) //simlint:allow allocfree(compact is the rare cancellation sweep; scratch is reused across sweeps and grows at most to the live queue length)
		}
	}
	for _, it := range s.scratch {
		s.q.Push(it)
	}
	for i := range s.lanes {
		l := &s.lanes[i]
		mask := len(l.buf) - 1
		kept := 0
		for j := 0; j < l.n; j++ {
			it := l.buf[(l.head+j)&mask]
			if s.refLive(it.Ref) {
				l.buf[(l.head+kept)&mask] = it
				kept++
			}
		}
		l.n = kept
	}
	s.stale = 0
}

// Stop halts the run loop after the currently-executing event returns.
func (s *Scheduler) Stop() { s.stopped = true }

// Run executes events until the queue drains, until an event at a time
// strictly greater than until would execute, or until Stop is called.
// On a Stop it returns ErrStopped; otherwise nil. The clock is left at
// the later of its current value and until when the horizon is reached.
func (s *Scheduler) Run(until Time) error {
	if err := s.run(until); err != nil {
		return err
	}
	if s.now < until {
		s.now = until
	}
	return nil
}

// RunAll executes events until the queue drains or Stop is called, with
// no time horizon. The clock is left at the time of the last executed
// event. Useful in tests.
func (s *Scheduler) RunAll() error {
	return s.run(Time(int64(^uint64(0) >> 1)))
}

func (s *Scheduler) run(until Time) error {
	s.stopped = false
	for {
		// The next event is the itemLess minimum of the heap top and
		// the lane heads; from is its lane, or -1 for the heap.
		it, ok := s.q.Peek()
		from := -1
		for i := range s.lanes {
			l := &s.lanes[i]
			if l.n > 0 && (!ok || itemLess(l.peek(), it)) {
				it, ok, from = l.peek(), true, i
			}
		}
		if !ok {
			return nil
		}
		idx, gen := unpackRef(it.Ref)
		sl := &s.slots[idx]
		live := sl.live && sl.gen == gen
		// A cancelled entry at the front is discarded lazily,
		// regardless of horizon.
		if live && it.At > until {
			return nil
		}
		if from < 0 {
			s.q.Pop()
		} else {
			s.lanes[from].pop()
		}
		if !live {
			s.stale--
			continue
		}
		fn, src := sl.fn, sl.src
		s.releaseSlot(idx, sl)
		s.pending--
		s.now = it.At
		s.processed++
		s.delivered[src]++
		if s.pending > s.peak {
			s.peak = s.pending
		}
		if s.hook != nil {
			s.hook(it.At, sources.names[src], s.pending)
		}
		fn()
		if s.stopped {
			return ErrStopped
		}
	}
}
