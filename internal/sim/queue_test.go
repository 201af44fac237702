package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

// refQueue is the heap's test oracle: an unordered slice whose Pop
// scans for the itemLess minimum. It is too slow for the kernel but
// obviously correct.
type refQueue []Item

func (q *refQueue) Push(it Item) { *q = append(*q, it) }

func (q *refQueue) Pop() (Item, bool) {
	if len(*q) == 0 {
		return Item{}, false
	}
	best := 0
	for i, it := range *q {
		if itemLess(it, (*q)[best]) {
			best = i
		}
	}
	it := (*q)[best]
	*q = append((*q)[:best], (*q)[best+1:]...)
	return it, true
}

// TestQueueBackendsPopIdenticalOrder: any interleaving of pushes and
// pops yields the exact same item sequence from the heap as from the
// reference queue, and that sequence is itemLess-sorted.
func TestQueueBackendsPopIdenticalOrder(t *testing.T) {
	f := func(ops []uint32) bool {
		var heap heapQueue
		var ref refQueue
		seq := uint64(0)
		lastAt := Time(0)
		var popped []Item
		pop := func() bool {
			it, ok := heap.Pop()
			want, wantOK := ref.Pop()
			if !ok || !wantOK || it != want {
				return false
			}
			popped = append(popped, it)
			lastAt = it.At
			return true
		}
		for _, op := range ops {
			if op%4 == 0 && heap.Len() > 0 {
				if !pop() {
					return false
				}
				continue
			}
			seq++
			// Times never precede the latest pop, mirroring the
			// scheduler's clamp-to-now rule.
			it := Item{At: lastAt + Time(op%977), Seq: seq, Ref: uint64(op)}
			heap.Push(it)
			ref.Push(it)
		}
		for heap.Len() > 0 {
			if !pop() {
				return false
			}
		}
		if len(ref) != 0 {
			return false
		}
		// The heap's own check, independent of the reference.
		for j := 1; j < len(popped); j++ {
			if itemLess(popped[j], popped[j-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSlotSize pins the per-event slot at 16 bytes: a callback, a
// generation stamp, a one-byte Source and a live flag. Every scheduled
// event holds one slot until it fires, so growth here is paid on the
// whole pending set.
func TestSlotSize(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n != 16 {
		t.Fatalf("unsafe.Sizeof(slot{}) = %d, want 16", n)
	}
}

// TestQueueLenPendingInvariant pins the drift fix: cancelled-but-
// unpopped entries are visible in QueueLen but never in Pending, and a
// compaction sweep bounds the gap once stale entries outnumber live
// ones — whether the tombstones sit in the heap, in the lanes, or in
// both.
func TestQueueLenPendingInvariant(t *testing.T) {
	for _, tc := range []struct {
		name     string
		schedule func(s *Scheduler, i int) EventID
		heap     bool // entries wait in the heap
		lanes    bool // entries wait in lanes
	}{
		{"heap", func(s *Scheduler, i int) EventID { return s.ScheduleAt(Time(i)*Millisecond, srcTest, func() {}) }, true, false},
		{"lanes", func(s *Scheduler, i int) EventID {
			return s.Schedule(Time(i%maxLanes+1)*Millisecond, srcTest, func() {})
		}, false, true},
		{"mixed", func(s *Scheduler, i int) EventID { return s.Schedule(Time(i)*Millisecond, srcTest, func() {}) }, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScheduler(1)
			const n = 100
			ids := make([]EventID, n)
			for i := 0; i < n; i++ {
				ids[i] = tc.schedule(s, i)
			}
			if s.Pending() != n || s.QueueLen() != n {
				t.Fatalf("after schedule: Pending=%d QueueLen=%d, want %d/%d", s.Pending(), s.QueueLen(), n, n)
			}
			if inHeap := s.q.Len(); (inHeap > 0) != tc.heap || (inHeap < n) != tc.lanes {
				t.Fatalf("%d of %d entries in the heap", inHeap, n)
			}
			// Cancel 40: stale (40) stays below live (60), so no sweep
			// runs and the gap must be visible.
			for i := 0; i < 40; i++ {
				if !s.Cancel(ids[i]) {
					t.Fatalf("Cancel(%d) failed", i)
				}
			}
			if s.Pending() != 60 {
				t.Fatalf("Pending = %d, want 60", s.Pending())
			}
			if s.QueueLen() != 100 {
				t.Fatalf("QueueLen = %d, want 100 (stale entries not yet swept)", s.QueueLen())
			}
			// Cancel 25 more. The sweep fires at the 64th cancel (stale
			// 64 > live 36, and at the compactMin floor), leaving the
			// 65th as the only stale entry afterwards.
			for i := 40; i < 65; i++ {
				if !s.Cancel(ids[i]) {
					t.Fatalf("Cancel(%d) failed", i)
				}
			}
			if s.Pending() != 35 {
				t.Fatalf("Pending = %d, want 35", s.Pending())
			}
			if s.QueueLen() != 36 {
				t.Fatalf("QueueLen = %d, want 36 (compaction at 64th cancel + 1 stale)", s.QueueLen())
			}
			// The survivors still run, and both counters drain to zero.
			if err := s.RunAll(); err != nil {
				t.Fatalf("RunAll: %v", err)
			}
			if s.Pending() != 0 || s.QueueLen() != 0 {
				t.Fatalf("after drain: Pending=%d QueueLen=%d", s.Pending(), s.QueueLen())
			}
			if got := s.Processed(); got != 35 {
				t.Fatalf("Processed = %d, want 35", got)
			}
		})
	}
}

// TestCompactionPreservesOrder: a sweep in the middle of a workload
// must not reorder survivors, whether they wait in the heap or in
// lanes interleaved with tombstones.
func TestCompactionPreservesOrder(t *testing.T) {
	const n = 300
	// Two of every three events are cancelled, enough to trigger a
	// sweep, and survivors sit between tombstones.
	cancel := func(i int) bool { return i%3 != 0 }
	for _, tc := range []struct {
		name  string
		delay func(i int) Time
	}{
		// Distinct delays: four claim lanes, the rest wait in the heap.
		{"heap", func(i int) Time { return Time(n-i) * Millisecond }},
		// Four delays, all in lanes.
		{"lanes", func(i int) Time { return Time(i%maxLanes+1) * Millisecond }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScheduler(9)
			var order, want []int
			ids := make([]EventID, n)
			for i := 0; i < n; i++ {
				i := i
				ids[i] = s.Schedule(tc.delay(i), srcTest, func() { order = append(order, i) })
			}
			for i := 0; i < n; i++ {
				if cancel(i) {
					s.Cancel(ids[i])
				} else {
					want = append(want, i)
				}
			}
			if s.QueueLen() >= n {
				t.Fatalf("QueueLen = %d: no sweep ran", s.QueueLen())
			}
			if err := s.RunAll(); err != nil {
				t.Fatalf("RunAll: %v", err)
			}
			// Survivors run by (delay, schedule order).
			sort.SliceStable(want, func(a, b int) bool { return tc.delay(want[a]) < tc.delay(want[b]) })
			if !reflect.DeepEqual(order, want) {
				t.Fatalf("ran %v,\nwant %v", order, want)
			}
		})
	}
}

// TestCancelFiredAndReusedIDs pins the generation-stamp semantics: an
// id goes dead the moment its event fires or is cancelled, and stays
// dead even after its slot is recycled for newer events.
func TestCancelFiredAndReusedIDs(t *testing.T) {
	s := NewScheduler(1)

	fired := s.Schedule(Millisecond, srcTest, func() {})
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if s.Cancel(fired) {
		t.Fatal("Cancel of already-fired id succeeded")
	}

	// The slot of `fired` is on the free list; this reuses it.
	ranB := false
	b := s.Schedule(Millisecond, srcTest, func() { ranB = true })
	if b == fired {
		t.Fatal("reused slot issued an identical id (generation did not advance)")
	}
	if s.Cancel(fired) {
		t.Fatal("stale id cancelled the slot's new tenant")
	}

	// Cancel-then-reuse: cancelling the old id again must not kill c.
	if !s.Cancel(b) {
		t.Fatal("Cancel(b) failed")
	}
	ranC := false
	c := s.Schedule(Millisecond, srcTest, func() { ranC = true })
	if s.Cancel(b) {
		t.Fatal("doubly-cancelled id reported success after slot reuse")
	}
	if s.Cancel(fired) {
		t.Fatal("ancient id still live")
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if ranB {
		t.Fatal("cancelled event ran")
	}
	if !ranC {
		t.Fatal("live event did not run")
	}
	_ = c

	// The zero EventID (a Ticker's zero-value pending field) is never
	// issued and never cancels anything.
	if s.Cancel(0) {
		t.Fatal("Cancel(0) succeeded")
	}
}

// TestPropertyFIFOWithinTimestamp: events sharing a timestamp run in
// schedule order.
func TestPropertyFIFOWithinTimestamp(t *testing.T) {
	f := func(slots []uint8) bool {
		s := NewScheduler(3)
		var got []int
		for i, slot := range slots {
			i := i
			// Few distinct timestamps → many ties.
			s.Schedule(Time(slot%5)*Second, srcTest, func() { got = append(got, i) })
		}
		if err := s.RunAll(); err != nil {
			return false
		}
		if len(got) != len(slots) {
			return false
		}
		// Expected order: stable sort by timestamp = for equal
		// timestamps, ascending schedule index.
		seen := make(map[uint8][]int)
		for _, i := range got {
			b := slots[i] % 5
			ns := seen[b]
			if len(ns) > 0 && ns[len(ns)-1] > i {
				return false
			}
			seen[b] = append(ns, i)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// nop is the benchmark callback: package-level so every Schedule call
// passes the same function value and the benchmark measures the
// kernel, not closure allocation.
func nop() {}

func BenchmarkSchedule(b *testing.B) {
	s := NewScheduler(1)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(Time(rng.Intn(1000))*Microsecond, srcTest, nop)
	}
}

func BenchmarkScheduleCancel(b *testing.B) {
	s := NewScheduler(1)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := s.Schedule(Time(rng.Intn(1000))*Microsecond, srcTest, nop)
		s.Cancel(id)
	}
}

func BenchmarkRunDrain(b *testing.B) {
	s := NewScheduler(1)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(Time(rng.Intn(1000))*Microsecond, srcTest, nop)
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
