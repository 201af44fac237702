package sim

import (
	"errors"
	"math/rand"
	"testing"
)

// TestLaneFIFO exercises the lane ring through growth and wrap-around:
// pushing 7 and popping 5 per round leaves the head mid-buffer, so the
// ring wraps and then grows while wrapped. Indices wrap with a mask,
// so the capacity must stay a power of two.
func TestLaneFIFO(t *testing.T) {
	var l lane
	next, out := uint64(0), uint64(0)
	grewWrapped := false
	pop := func() {
		out++
		if got := l.peek().Seq; got != out {
			t.Fatalf("pop = %d, want %d", got, out)
		}
		l.pop()
	}
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			next++
			wrapped, size := l.head+l.n > len(l.buf), len(l.buf)
			l.push(Item{Seq: next})
			if len(l.buf)&(len(l.buf)-1) != 0 {
				t.Fatalf("capacity %d is not a power of two", len(l.buf))
			}
			grewWrapped = grewWrapped || (wrapped && len(l.buf) > size)
		}
		for i := 0; i < 5; i++ {
			pop()
		}
	}
	for l.n > 0 {
		pop()
	}
	if out != next {
		t.Fatalf("drained %d, pushed %d", out, next)
	}
	if !grewWrapped {
		t.Fatal("the lane never grew while wrapped")
	}
}

// TestLaneClaimAndFallback pins where events wait: each new positive
// delay claims an empty lane, a fifth live delay goes to the heap, as
// do zero delays and ScheduleAt, and a drained lane is claimed by the
// next new delay.
func TestLaneClaimAndFallback(t *testing.T) {
	s := NewScheduler(1)
	for d := Time(1); d <= 4; d++ {
		s.Schedule(d*Millisecond, nop)
		s.Schedule(d*Millisecond, nop)
	}
	s.Schedule(5*Millisecond, nop)
	s.Schedule(0, nop)
	s.ScheduleAt(Millisecond, nop)
	for i := range s.lanes {
		if l := s.lanes[i]; l.delay != Time(i+1)*Millisecond || l.n != 2 {
			t.Fatalf("lane %d holds delay %v with %d items, want %v with 2", i, l.delay, l.n, Time(i+1)*Millisecond)
		}
	}
	if s.q.Len() != 3 {
		t.Fatalf("heap holds %d items, want 3 (the fifth delay, the zero delay, ScheduleAt)", s.q.Len())
	}
	// Drain the 1 ms lane only; a new delay then reuses it while the
	// other three lanes keep theirs.
	if err := s.Run(Millisecond); err != nil {
		t.Fatal(err)
	}
	s.Schedule(7*Millisecond, nop)
	if l := s.lanes[0]; l.delay != 7*Millisecond || l.n != 1 {
		t.Fatalf("drained lane holds delay %v with %d items, want 7ms with 1", l.delay, l.n)
	}
	if s.lanes[1].delay != 2*Millisecond || s.q.Len() != 1 {
		t.Fatalf("lane 1 delay %v, heap %d items; want 2ms and 1", s.lanes[1].delay, s.q.Len())
	}
}

// fuzzDelays is the small delay set the reference harness draws most
// events from: six delays, so the four lanes fill, further live delays
// fall back to the heap, and drained lanes are claimed again.
var fuzzDelays = [...]Time{Millisecond, 2 * Millisecond, 3 * Millisecond, 5 * Millisecond, 8 * Millisecond, 13 * Millisecond}

// remove deletes the item with sequence number seq, reporting whether
// it was queued.
func (q *refQueue) remove(seq uint64) bool {
	for i, it := range *q {
		if it.Seq == seq {
			*q = append((*q)[:i], (*q)[i+1:]...)
			return true
		}
	}
	return false
}

// refModel drives a Scheduler and the refQueue oracle with the same
// operations. Event k (the k-th scheduled, so Seq k) checks when it
// runs that it is the oracle's minimum and that the clock reads its
// time.
type refModel struct {
	t       *testing.T
	s       *Scheduler
	ref     refQueue
	ids     []EventID // ids[k-1] is event k's id
	stopped bool      // a stopping event ran in the current Run
	stopAt  Time

	// What the ops reached, for the property test's coverage check.
	heapFallbacks, reclaims, laneTombstones, laneCompactions int
}

// add schedules one event through Schedule (abs false) or ScheduleAt
// (abs true). When it runs, it schedules a child with delay child if
// child > 0, then calls Stop if stop is set.
func (m *refModel) add(abs bool, t Time, child Time, stop bool) {
	s := m.s
	k := uint64(len(m.ids) + 1)
	fn := func() { m.fire(k, child, stop) }
	var delays [maxLanes]Time
	for i := range s.lanes {
		delays[i] = s.lanes[i].delay
	}
	heapLen := s.q.Len()
	var id EventID
	at := t
	if abs {
		id = s.ScheduleAt(t, fn)
	} else {
		id = s.Schedule(t, fn)
		at = s.Now() + max(t, 0)
		if t > 0 && s.q.Len() > heapLen {
			m.heapFallbacks++
		}
	}
	for i := range s.lanes {
		if delays[i] != 0 && s.lanes[i].delay != delays[i] {
			m.reclaims++
		}
	}
	m.ids = append(m.ids, id)
	m.ref.Push(Item{At: max(at, s.Now()), Seq: k})
}

func (m *refModel) fire(k uint64, child Time, stop bool) {
	want, ok := m.ref.Pop()
	if !ok || want.Seq != k || want.At != m.s.Now() {
		m.t.Fatalf("ran event %d at %v; the reference runs event %d at %v next", k, m.s.Now(), want.Seq, want.At)
	}
	if child > 0 {
		m.add(false, child, 0, false)
	}
	if stop {
		m.s.Stop()
		m.stopped, m.stopAt = true, m.s.Now()
	}
}

func (m *refModel) cancel(j int) {
	if len(m.ids) == 0 {
		return
	}
	j %= len(m.ids)
	laneDead := m.tombstones(true)
	want := m.ref.remove(uint64(j + 1))
	if got := m.s.Cancel(m.ids[j]); got != want {
		m.t.Fatalf("Cancel(event %d) = %v, want %v", j+1, got, want)
	}
	if want && m.s.stale == 0 && laneDead > 0 {
		m.laneCompactions++
	}
}

// run calls Run(until) and checks that it ran exactly the reference
// events due by until, or stopped at a stopping event.
func (m *refModel) run(until Time) {
	before := m.s.Now()
	m.stopped = false
	err := m.s.Run(until)
	if m.stopped {
		if !errors.Is(err, ErrStopped) || m.s.Now() != m.stopAt {
			m.t.Fatalf("Run after Stop at %v: err %v, clock %v", m.stopAt, err, m.s.Now())
		}
		return
	}
	if err != nil {
		m.t.Fatalf("Run(%v): %v", until, err)
	}
	for _, it := range m.ref {
		if it.At <= until {
			m.t.Fatalf("Run(%v) returned with event %d at %v still queued", until, it.Seq, it.At)
		}
	}
	if want := max(before, until); m.s.Now() != want {
		m.t.Fatalf("Run(%v) left the clock at %v, want %v", until, m.s.Now(), want)
	}
}

// tombstones counts cancelled entries still in the lanes (lanesOnly)
// or in the lanes and the heap, checking on the way that every lane is
// in itemLess order.
func (m *refModel) tombstones(lanesOnly bool) int {
	s := m.s
	dead := 0
	for i := range s.lanes {
		l := &s.lanes[i]
		for j := 0; j < l.n; j++ {
			it := l.buf[(l.head+j)&(len(l.buf)-1)]
			if j > 0 && itemLess(it, l.buf[(l.head+j-1)&(len(l.buf)-1)]) {
				m.t.Fatalf("lane %d (delay %v) out of order at %d", i, l.delay, j)
			}
			if !s.refLive(it.Ref) {
				dead++
			}
		}
	}
	if lanesOnly {
		return dead
	}
	for _, it := range s.q.a {
		if !s.refLive(it.Ref) {
			dead++
		}
	}
	return dead
}

func (m *refModel) check() {
	s := m.s
	if s.Pending() != len(m.ref) {
		m.t.Fatalf("Pending = %d, reference holds %d", s.Pending(), len(m.ref))
	}
	if lanes := m.tombstones(true); lanes > 0 {
		m.laneTombstones++
	}
	dead := m.tombstones(false)
	if s.stale != dead || s.QueueLen() != s.Pending()+dead {
		m.t.Fatalf("QueueLen %d, Pending %d, stale count %d, tombstones %d", s.QueueLen(), s.Pending(), s.stale, dead)
	}
}

// runOps decodes data into scheduler operations, four bytes each, and
// checks the scheduler against the reference after every one, then
// drains both.
func runOps(t *testing.T, data []byte) *refModel {
	m := &refModel{t: t, s: NewScheduler(1)}
	for ; len(data) >= 4; data = data[4:] {
		op, a, b, c := data[0], data[1], data[2], data[3]
		i16 := Time(int16(uint16(b) | uint16(c)<<8))
		u16 := Time(uint16(b) | uint16(c)<<8)
		switch op % 8 {
		case 0: // a delay from the small set, maybe with a nested child
			var child Time
			if b%2 == 1 {
				child = fuzzDelays[int(c)%len(fuzzDelays)]
			}
			m.add(false, fuzzDelays[int(a)%len(fuzzDelays)], child, false)
		case 1: // any delay; a negative one clamps to zero
			m.add(false, i16*50*Microsecond, 0, false)
		case 2: // an absolute time, maybe in the past
			m.add(true, m.s.Now()+i16*50*Microsecond, 0, false)
		case 3:
			m.cancel(int(u16))
		case 4: // a burst over the small set
			for i := 0; i <= int(a%96); i++ {
				m.add(false, fuzzDelays[(int(c)+i)%len(fuzzDelays)], 0, false)
			}
		case 5: // cancel a run of events, enough to force a compaction
			for i := 0; i <= int(b%128); i++ {
				m.cancel(int(a)*7 + i)
			}
		case 6:
			m.run(m.s.Now() + u16*20*Microsecond)
		case 7: // an event that calls Stop when it runs
			m.add(false, fuzzDelays[int(a)%len(fuzzDelays)], 0, true)
		}
		m.check()
	}
	for {
		m.stopped = false
		err := m.s.RunAll()
		if (m.stopped && !errors.Is(err, ErrStopped)) || (!m.stopped && err != nil) {
			t.Fatalf("RunAll: err %v, stopping event ran %v", err, m.stopped)
		}
		if !m.stopped {
			break
		}
	}
	if len(m.ref) != 0 {
		t.Fatalf("RunAll returned with %d reference events left", len(m.ref))
	}
	if m.s.Pending() != 0 || m.s.QueueLen() != 0 {
		t.Fatalf("after drain: Pending %d, QueueLen %d", m.s.Pending(), m.s.QueueLen())
	}
	return m
}

// TestSchedulerMatchesReference runs random operation sequences through
// the scheduler and the reference queue, and checks that they reached
// the heap fallback, lane reclaiming, tombstones in lanes and a
// compaction that swept them.
func TestSchedulerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var total refModel
	for i := 0; i < 200; i++ {
		data := make([]byte, 4*rng.Intn(300))
		rng.Read(data)
		m := runOps(t, data)
		total.heapFallbacks += m.heapFallbacks
		total.reclaims += m.reclaims
		total.laneTombstones += m.laneTombstones
		total.laneCompactions += m.laneCompactions
	}
	if total.heapFallbacks == 0 || total.reclaims == 0 || total.laneTombstones == 0 || total.laneCompactions == 0 {
		t.Fatalf("coverage: %d heap fallbacks, %d lane reclaims, %d checks with lane tombstones, %d compactions of lane tombstones",
			total.heapFallbacks, total.reclaims, total.laneTombstones, total.laneCompactions)
	}
}

func FuzzScheduler(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { runOps(t, data) })
}

// BenchmarkRunDrainRepeatedDelays is BenchmarkRunDrain with a flood's
// delay mix: most events repeat one of three delays and wait in lanes,
// one in eight carries a random delay and waits in the heap.
func BenchmarkRunDrainRepeatedDelays(b *testing.B) {
	s := NewScheduler(1)
	rng := rand.New(rand.NewSource(2))
	delays := [...]Time{2 * Millisecond, 14800 * Microsecond, Second}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := delays[i%len(delays)]
		if i%8 == 7 {
			d = Time(rng.Intn(1000)) * Microsecond
		}
		s.Schedule(d, nop)
		if i%1024 == 1023 {
			if err := s.RunAll(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := s.RunAll(); err != nil {
		b.Fatal(err)
	}
}
