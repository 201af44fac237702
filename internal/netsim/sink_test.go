package netsim

import (
	"net/netip"
	"slices"
	"testing"
	"testing/quick"

	"ddosim/internal/sim"
)

// feedSink hands the sink one IPv4 UDP frame carrying pad payload bytes
// at time at, as TServer's tap does, and returns the frame's wire size.
func feedSink(s *Sink, at sim.Time, pad int) uint64 {
	pkt := &Packet{
		Proto: ProtoUDP,
		Src:   netip.MustParseAddrPort("10.0.0.2:4000"),
		Dst:   netip.MustParseAddrPort("10.0.0.1:80"),
		Pad:   pad,
	}
	s.onPacket(at, pkt)
	return uint64(pkt.Size())
}

// TestSinkPerSecondBuckets: a frame counts in the second it arrives
// in; a gap second, one before the run and one after the last frame
// read 0, and the total holds every frame.
func TestSinkPerSecondBuckets(t *testing.T) {
	s := &Sink{}
	a := feedSink(s, 500*sim.Millisecond, 100)
	b := feedSink(s, 900*sim.Millisecond, 50)
	c := feedSink(s, 2*sim.Second, 25)
	for sec, want := range map[int64]uint64{-1: 0, 0: a + b, 1: 0, 2: c, 3: 0, 100: 0} {
		if got := s.BytesAt(sec); got != want {
			t.Fatalf("second %d bytes = %d, want %d", sec, got, want)
		}
	}
	if got := s.TotalBytes(); got != a+b+c {
		t.Fatalf("TotalBytes = %d, want %d", got, a+b+c)
	}
}

// TestSinkKbpsSeries: the rate series has one entry per second of the
// range and fills quiet seconds with zeros, on either side of traffic.
func TestSinkKbpsSeries(t *testing.T) {
	s := &Sink{}
	if n := feedSink(s, 0, 83); n != 125 {
		t.Fatalf("frame is %d bytes on the wire, want 125 (1 kbit)", n)
	}
	want := []float64{0, 1, 0, 0}
	if got := s.KbpsSeries(-1, 3); !slices.Equal(got, want) {
		t.Fatalf("KbpsSeries(-1, 3) = %v, want %v", got, want)
	}
}

// TestSinkAvgReceivedKbpsEq2: Eq. 2 sums the kilobits over the window
// and divides by its length in seconds, so quiet seconds pull the
// average down; a zero-length or inverted window reads 0.
func TestSinkAvgReceivedKbpsEq2(t *testing.T) {
	s := &Sink{}
	for sec := 0; sec < 10; sec++ {
		if n := feedSink(s, sim.Time(sec)*sim.Second, 1208); n != 1250 {
			t.Fatalf("frame is %d bytes on the wire, want 1250 (10 kbit)", n)
		}
	}
	for _, c := range []struct {
		from, to int64
		want     float64
	}{
		{0, 10, 10},
		{0, 20, 5},
		{5, 5, 0},
		{6, 5, 0},
	} {
		if got := s.AvgReceivedKbps(c.from, c.to); got != c.want {
			t.Errorf("D_received over [%d, %d) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}

// TestSinkAvgReceivedHalfOpen: Eq. 2's window [from, to) takes the
// bytes of second from and leaves out those of second to.
func TestSinkAvgReceivedHalfOpen(t *testing.T) {
	s := &Sink{}
	a := feedSink(s, 1*sim.Second, 10)
	b := feedSink(s, 2*sim.Second, 20)
	feedSink(s, 3*sim.Second, 30)
	want := float64(a+b) * 8 / 1000 / 2
	if got := s.AvgReceivedKbps(1, 3); got != want {
		t.Fatalf("D_received over [1, 3) = %v, want %v (seconds 1 and 2 only)", got, want)
	}
}

// Property: Eq. 2 over any run of seconds equals its total kilobits
// divided by its length, and is never negative; a sink that saw
// nothing reads 0.
func TestPropertyAvgConsistent(t *testing.T) {
	f := func(amounts []uint16) bool {
		s := &Sink{}
		var total uint64
		for i, a := range amounts {
			total += feedSink(s, sim.Time(i)*sim.Second, int(a))
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

// TestPropertySinkMatchesMapModel checks the sink's per-second slice
// against a map of second to bytes: frames arrive in clock order, many
// to one second in some runs and ~10^3 s apart in others, and every
// read — in a busy second, in a
// gap, before second 0 and after the last frame — agrees with the
// model, which reads 0 for any second never recorded.
func TestPropertySinkMatchesMapModel(t *testing.T) {
	type frame struct {
		Gap uint16
		Pad uint16
	}
	f := func(frames []frame, spread uint8) bool {
		s := &Sink{}
		model := map[int64]uint64{}
		var total uint64
		at := sim.Time(0)
		for _, fr := range frames {
			// Advance the clock by up to spread*8 s in 100 ms steps:
			// spread 0 keeps every frame in second 0, and 255 lets
			// the run reach ~10^5 s.
			at += sim.Time(fr.Gap%(1+uint16(spread)*80)) * 100 * sim.Millisecond
			n := feedSink(s, at, int(fr.Pad))
			model[int64(at/sim.Second)] += n
			total += n
		}
		if s.TotalBytes() != total {
			return false
		}
		last := int64(at / sim.Second)
		probes := []int64{-3, -1, 0, last + 1, last + 1000}
		for sec := range model {
			probes = append(probes, sec, sec-1, sec+1)
		}
		for _, sec := range probes {
			if s.BytesAt(sec) != model[sec] {
				return false
			}
		}
		lo, hi := int64(-2), last+3
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
