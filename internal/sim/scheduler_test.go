package sim

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	s.Schedule(3*Second, srcTest, func() { got = append(got, 3) })
	s.Schedule(1*Second, srcTest, func() { got = append(got, 1) })
	s.Schedule(2*Second, srcTest, func() { got = append(got, 2) })
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order %v, want %v", got, want)
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(Second, srcTest, func() { got = append(got, i) })
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-timestamp events out of insertion order: %v", got)
		}
	}
}

func TestNowAdvances(t *testing.T) {
	s := NewScheduler(1)
	var at Time
	s.Schedule(5*Second, srcTest, func() { at = s.Now() })
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if at != 5*Second {
		t.Fatalf("Now inside event = %v, want 5s", at)
	}
	if s.Now() != 5*Second {
		t.Fatalf("Now after run = %v, want 5s", s.Now())
	}
}

func TestRunHorizon(t *testing.T) {
	s := NewScheduler(1)
	ran := 0
	s.Schedule(1*Second, srcTest, func() { ran++ })
	s.Schedule(10*Second, srcTest, func() { ran++ })
	if err := s.Run(5 * Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran != 1 {
		t.Fatalf("events past horizon ran: %d", ran)
	}
	if s.Now() != 5*Second {
		t.Fatalf("clock = %v, want clamped to horizon 5s", s.Now())
	}
	if err := s.Run(20 * Second); err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if ran != 2 {
		t.Fatalf("remaining event did not run")
	}
}

func TestNestedScheduling(t *testing.T) {
	s := NewScheduler(1)
	var got []Time
	s.Schedule(Second, srcTest, func() {
		s.Schedule(Second, srcTest, func() { got = append(got, s.Now()) })
	})
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(got) != 1 || got[0] != 2*Second {
		t.Fatalf("nested event times = %v, want [2s]", got)
	}
}

func TestZeroDelaySelfSchedulesAtCurrentInstant(t *testing.T) {
	s := NewScheduler(1)
	n := 0
	s.Schedule(Second, srcTest, func() {
		s.Schedule(0, srcTest, func() { n++ })
		s.Schedule(-5, srcTest, func() { n++ }) // negative clamps to zero
	})
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if n != 2 {
		t.Fatalf("zero-delay events ran %d times, want 2", n)
	}
}

func TestCancel(t *testing.T) {
	s := NewScheduler(1)
	ran := false
	id := s.Schedule(Second, srcTest, func() { ran = true })
	if !s.Cancel(id) {
		t.Fatal("Cancel of pending event returned false")
	}
	if s.Cancel(id) {
		t.Fatal("double Cancel returned true")
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if ran {
		t.Fatal("cancelled event executed")
	}
}

func TestCancelAfterRun(t *testing.T) {
	s := NewScheduler(1)
	id := s.Schedule(Second, srcTest, func() {})
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if s.Cancel(id) {
		t.Fatal("Cancel of executed event returned true")
	}
}

func TestStop(t *testing.T) {
	s := NewScheduler(1)
	ran := 0
	s.Schedule(1*Second, srcTest, func() { ran++; s.Stop() })
	s.Schedule(2*Second, srcTest, func() { ran++ })
	err := s.RunAll()
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("RunAll err = %v, want ErrStopped", err)
	}
	if ran != 1 {
		t.Fatalf("ran %d events after Stop, want 1", ran)
	}
}

func TestScheduleAtPastClamps(t *testing.T) {
	s := NewScheduler(1)
	var at Time = -1
	s.Schedule(2*Second, srcTest, func() {
		s.ScheduleAt(Second, srcTest, func() { at = s.Now() })
	})
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if at != 2*Second {
		t.Fatalf("past-scheduled event ran at %v, want clamped to 2s", at)
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []float64 {
		s := NewScheduler(seed)
		var out []float64
		for i := 0; i < 100; i++ {
			s.Schedule(Time(i)*Millisecond, srcTest, func() {
				out = append(out, s.RNG().Float64())
			})
		}
		if err := s.RunAll(); err != nil {
			t.Fatalf("RunAll: %v", err)
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical draws")
	}
}

func TestProcessedCounter(t *testing.T) {
	s := NewScheduler(1)
	for i := 0; i < 7; i++ {
		s.Schedule(Time(i)*Second, srcTest, func() {})
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if s.Processed() != 7 {
		t.Fatalf("Processed = %d, want 7", s.Processed())
	}
}

// TestPropertyTimeOrdering: for any set of delays, events execute in
// non-decreasing time order.
func TestPropertyTimeOrdering(t *testing.T) {
	f := func(delays []uint32) bool {
		s := NewScheduler(7)
		var times []Time
		for _, d := range delays {
			s.Schedule(Time(d), srcTest, func() { times = append(times, s.Now()) })
		}
		if err := s.RunAll(); err != nil {
			return false
		}
		if len(times) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCancelSubset: cancelling an arbitrary subset runs exactly
// the complement.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(n uint8, mask uint64) bool {
		s := NewScheduler(7)
		count := int(n % 60)
		ran := make(map[int]bool)
		ids := make([]EventID, count)
		for i := 0; i < count; i++ {
			i := i
			ids[i] = s.Schedule(Time(i), srcTest, func() { ran[i] = true })
		}
		want := 0
		for i := 0; i < count; i++ {
			if mask&(1<<uint(i)) != 0 {
				s.Cancel(ids[i])
			} else {
				want++
			}
		}
		if err := s.RunAll(); err != nil {
			return false
		}
		if len(ran) != want {
			return false
		}
		for i := 0; i < count; i++ {
			cancelled := mask&(1<<uint(i)) != 0
			if ran[i] == cancelled {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTicker(t *testing.T) {
	s := NewScheduler(1)
	n := 0
	tk := NewTicker(s, Second, srcTest, func() { n++ })
	tk.Start()
	if err := s.Run(5*Second + Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 5 {
		t.Fatalf("ticker fired %d times in 5s, want 5", n)
	}
	tk.Stop()
	if err := s.Run(10 * Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 5 {
		t.Fatalf("ticker fired after Stop: %d", n)
	}
}

func TestTickerImmediate(t *testing.T) {
	s := NewScheduler(1)
	var fires []Time
	tk := NewTicker(s, Second, srcTest, func() { fires = append(fires, s.Now()) })
	tk.StartImmediate()
	if err := s.Run(2*Second + Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fires) != 3 || fires[0] != 0 || fires[1] != Second {
		t.Fatalf("immediate ticker fires = %v", fires)
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	s := NewScheduler(1)
	n := 0
	var tk *Ticker
	tk = NewTicker(s, Second, srcTest, func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	tk.Start()
	if err := s.Run(100 * Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 3 {
		t.Fatalf("ticker fired %d times, want 3 (stopped from callback)", n)
	}
}

func TestTickerRestart(t *testing.T) {
	s := NewScheduler(1)
	n := 0
	tk := NewTicker(s, Second, srcTest, func() { n++ })
	tk.Start()
	_ = s.Run(2*Second + Millisecond)
	tk.Stop()
	tk.Start()
	_ = s.Run(4*Second + Millisecond)
	if n != 4 {
		t.Fatalf("restarted ticker fired %d times total, want 4", n)
	}
}

func TestTimeConversions(t *testing.T) {
	if got := FromDuration(1500 * time.Millisecond); got != 1500*Millisecond {
		t.Fatalf("FromDuration = %v", got)
	}
	if got := (2 * Second).Duration(); got != 2*time.Second {
		t.Fatalf("Duration = %v", got)
	}
	if got := Seconds(0.25); got != 250*Millisecond {
		t.Fatalf("Seconds(0.25) = %v", got)
	}
	if got := (1234 * Millisecond).Seconds(); got != 1.234 {
		t.Fatalf("Seconds() = %v", got)
	}
	if got := (1500 * Microsecond).Milliseconds(); got != 1.5 {
		t.Fatalf("Milliseconds() = %v", got)
	}
	if got := (1500 * Millisecond).String(); got != "1.500s" {
		t.Fatalf("String() = %q", got)
	}
}

func TestPendingAndNilFn(t *testing.T) {
	s := NewScheduler(1)
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d", s.Pending())
	}
	id := s.Schedule(Second, srcTest, func() {})
	s.Schedule(2*Second, srcTest, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d", s.Pending())
	}
	s.Cancel(id)
	if s.Pending() != 1 {
		t.Fatalf("Pending after cancel = %d", s.Pending())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("nil fn accepted")
		}
	}()
	s.Schedule(Second, srcTest, nil)
}

func TestTickerConstructorPanics(t *testing.T) {
	s := NewScheduler(1)
	for _, bad := range []func(){
		func() { NewTicker(s, 0, srcTest, func() {}) },
		func() { NewTicker(s, Second, srcTest, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad ticker constructor accepted")
				}
			}()
			bad()
		}()
	}
}

func TestTickerIdempotentStartStopAndRunning(t *testing.T) {
	s := NewScheduler(1)
	n := 0
	tk := NewTicker(s, Second, srcTest, func() { n++ })
	if tk.Running() {
		t.Fatal("fresh ticker running")
	}
	tk.Start()
	tk.Start()          // no-op
	tk.StartImmediate() // no-op while running
	if !tk.Running() {
		t.Fatal("started ticker not running")
	}
	_ = s.Run(3*Second + Millisecond)
	tk.Stop()
	tk.Stop() // no-op
	if tk.Running() {
		t.Fatal("stopped ticker running")
	}
	if n != 3 {
		t.Fatalf("double-start double-fired: %d ticks in 3s", n)
	}
}

// TestRunStopsMidHorizon: a Stop returns ErrStopped and leaves the
// clock at the stopping event, also when that event was the last one
// pending.
func TestRunStopsMidHorizon(t *testing.T) {
	for _, tc := range []struct {
		name  string
		run   func(s *Scheduler) error
		later bool // another event is queued after the stopping one
	}{
		{"Run", func(s *Scheduler) error { return s.Run(10 * Second) }, true},
		{"Run/last event", func(s *Scheduler) error { return s.Run(10 * Second) }, false},
		{"RunAll", (*Scheduler).RunAll, true},
		{"RunAll/last event", (*Scheduler).RunAll, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScheduler(1)
			s.Schedule(Second, srcTest, s.Stop)
			if tc.later {
				s.Schedule(2*Second, srcTest, func() {})
			}
			if err := tc.run(s); !errors.Is(err, ErrStopped) {
				t.Fatalf("err = %v, want ErrStopped", err)
			}
			if s.Now() != Second {
				t.Fatalf("clock advanced to %v after Stop", s.Now())
			}
		})
	}
}

func BenchmarkSchedulerThroughput(b *testing.B) {
	s := NewScheduler(1)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Schedule(Time(rng.Intn(1000))*Microsecond, srcTest, func() {})
	}
	if err := s.RunAll(); err != nil {
		b.Fatal(err)
	}
}
