package metrics

import (
	"testing"
	"testing/quick"

	"ddosim/internal/sim"
)

func TestSeriesBuckets(t *testing.T) {
	s := NewSeries()
	s.Add(500*sim.Millisecond, 100)
	s.Add(900*sim.Millisecond, 50)
	s.Add(2*sim.Second, 25)
	if got := s.BytesAt(0); got != 150 {
		t.Fatalf("second 0 = %d", got)
	}
	if got := s.BytesAt(1); got != 0 {
		t.Fatalf("second 1 = %d", got)
	}
	if got := s.BytesAt(2); got != 25 {
		t.Fatalf("second 2 = %d", got)
	}
	if s.TotalBytes() != 175 {
		t.Fatalf("total = %d", s.TotalBytes())
	}
	first, last := s.Bounds()
	if first != 0 || last != 2 {
		t.Fatalf("bounds = %d,%d", first, last)
	}
}

func TestSeriesEmpty(t *testing.T) {
	s := NewSeries()
	if !s.Empty() {
		t.Fatal("new series not empty")
	}
	if got := s.AvgReceivedKbps(0, 10); got != 0 {
		t.Fatalf("avg on empty = %v", got)
	}
	s.Add(0, 1)
	if s.Empty() {
		t.Fatal("series empty after Add")
	}
}

func TestAvgReceivedKbpsEq2(t *testing.T) {
	// Eq. 2: sum of kilobits over the window divided by window seconds.
	s := NewSeries()
	for sec := int64(0); sec < 10; sec++ {
		s.Add(sim.Time(sec)*sim.Second, 1250) // 10 kbit per second
	}
	if got := s.AvgReceivedKbps(0, 10); got != 10 {
		t.Fatalf("D_received = %v, want 10", got)
	}
	// Quiet seconds pull the average down, as in the paper's definition.
	if got := s.AvgReceivedKbps(0, 20); got != 5 {
		t.Fatalf("D_received over 20s = %v, want 5", got)
	}
	if got := s.AvgReceivedKbps(5, 5); got != 0 {
		t.Fatalf("zero-length window = %v", got)
	}
}

func TestBytesIn(t *testing.T) {
	s := NewSeries()
	s.Add(1*sim.Second, 10)
	s.Add(2*sim.Second, 20)
	s.Add(3*sim.Second, 30)
	if got := s.BytesIn(1, 3); got != 30 {
		t.Fatalf("BytesIn(1,3) = %d, want 30 (half-open)", got)
	}
}

func TestKbpsSeries(t *testing.T) {
	s := NewSeries()
	s.Add(0, 125) // 1 kbit
	got := s.KbpsSeries(0, 3)
	if len(got) != 3 || got[0] != 1 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("KbpsSeries = %v", got)
	}
}

func TestSparkline(t *testing.T) {
	s := NewSeries()
	if got := s.Sparkline(0, 3); len([]rune(got)) != 3 {
		t.Fatalf("empty sparkline = %q", got)
	}
	s.Add(0, 1000)
	s.Add(1*sim.Second, 500)
	line := []rune(s.Sparkline(0, 2))
	if len(line) != 2 || line[0] == line[1] {
		t.Fatalf("sparkline does not distinguish levels: %q", string(line))
	}
}

func TestSeriesNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add accepted")
		}
	}()
	NewSeries().Add(0, -1)
}

// Property: the average over any window equals total-kilobits/width and
// is never negative.
func TestPropertyAvgConsistent(t *testing.T) {
	f := func(amounts []uint16) bool {
		s := NewSeries()
		var total uint64
		for i, a := range amounts {
			s.Add(sim.Time(i)*sim.Second, int(a))
			total += uint64(a)
		}
		n := int64(len(amounts))
		if n == 0 {
			return s.AvgReceivedKbps(0, 10) == 0
		}
		want := float64(total) * 8 / 1000 / float64(n)
		got := s.AvgReceivedKbps(0, n)
		return got == want && got >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeline(t *testing.T) {
	tl := NewTimeline()
	tl.Record(1*sim.Second, "infected", "dev-1")
	tl.Record(2*sim.Second, "infected", "dev-2")
	tl.Record(3*sim.Second, "attack-start", "cnc")
	if tl.Count("infected") != 2 {
		t.Fatalf("Count = %d", tl.Count("infected"))
	}
	first, ok := tl.FirstOf("infected")
	if !ok || first.Actor != "dev-1" {
		t.Fatalf("FirstOf = %+v ok=%v", first, ok)
	}
	last, ok := tl.LastOf("infected")
	if !ok || last.Actor != "dev-2" {
		t.Fatalf("LastOf = %+v", last)
	}
	if _, ok := tl.FirstOf("missing"); ok {
		t.Fatal("FirstOf missing kind reported ok")
	}
	times, counts := tl.CumulativeCurve("infected")
	if len(times) != 2 || counts[1] != 2 || times[0] != 1 {
		t.Fatalf("curve = %v %v", times, counts)
	}
	actors := tl.ActorsOf("infected")
	if len(actors) != 2 || actors[0] != "dev-1" {
		t.Fatalf("actors = %v", actors)
	}
	if tl.String() == "" {
		t.Fatal("String empty")
	}
	if len(tl.Events()) != 3 {
		t.Fatalf("Events = %d", len(tl.Events()))
	}
}

// TestPropertySeriesMatchesMapModel checks the dense Series against a
// map of second to bytes: seconds arrive out of order and far apart,
// and every read — inside the bounds, in gaps, and outside them —
// agrees with the model, which reads 0 for any second never recorded.
func TestPropertySeriesMatchesMapModel(t *testing.T) {
	type add struct {
		Sec   int32
		Bytes uint16
	}
	f := func(adds []add, spread uint8) bool {
		s := NewSeries()
		model := map[int64]uint64{}
		var total uint64
		var first, last int64
		for i, a := range adds {
			// Scale seconds so some runs stay within a few seconds and
			// others jump up to ~10^5 apart, in either direction.
			sec := int64(a.Sec) % (1 + int64(spread)*400)
			at := sim.Time(sec)*sim.Second + sim.Time(i%7)*100*sim.Millisecond
			if sec < 0 {
				at = sim.Time(sec) * sim.Second // whole seconds: truncation stays exact
			}
			s.Add(at, int(a.Bytes))
			model[sec] += uint64(a.Bytes)
			total += uint64(a.Bytes)
			if i == 0 || sec < first {
				first = sec
			}
			if i == 0 || sec > last {
				last = sec
			}
		}
		if s.Empty() != (len(adds) == 0) || s.TotalBytes() != total {
			return false
		}
		if len(adds) == 0 {
			return s.BytesAt(0) == 0 && s.BytesIn(-5, 5) == 0
		}
		if f, l := s.Bounds(); f != first || l != last {
			return false
		}
		probes := []int64{first - 3, first - 1, last + 1, last + 1000}
		for sec := range model {
			probes = append(probes, sec, sec-1, sec+1)
		}
		for _, sec := range probes {
			if s.BytesAt(sec) != model[sec] {
				return false
			}
		}
		lo, hi := first-2, first+50
		var want uint64
		for sec := lo; sec < hi; sec++ {
			want += model[sec]
		}
		if s.BytesIn(lo, hi) != want {
			return false
		}
		kbps := s.KbpsSeries(lo, hi)
		for i, v := range kbps {
			if v != float64(model[lo+int64(i)])*8/1000 {
				return false
			}
		}
		return len(kbps) == int(hi-lo)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
