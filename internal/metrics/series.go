// Package metrics implements DDoSim's measurement layer: per-second
// received-traffic buckets at TServer, the paper's average received
// data rate D_received (Eq. 2), and infection/attack timelines used by
// the experiment harness and the §V use cases.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"ddosim/internal/sim"
)

// Series buckets a byte count per simulated second, the structure
// TServer logs in the paper ("the received data rate at TServer during
// one second"). The buckets are a dense slice covering every second
// from the first to the last one recorded, so recording into a second
// already covered is an index, not a hash.
type Series struct {
	buckets []uint64 // buckets[i] is second first+i
	first   int64
	last    int64
	total   uint64
	any     bool
}

// NewSeries returns an empty per-second series.
func NewSeries() *Series { return &Series{} }

// Add records n bytes received at time at.
//
//simlint:hotpath
func (s *Series) Add(at sim.Time, n int) {
	if n < 0 {
		panic("metrics: negative byte count")
	}
	sec := int64(at / sim.Second)
	if !s.any || sec < s.first || sec > s.last {
		s.cover(sec)
	}
	s.buckets[sec-s.first] += uint64(n)
	s.total += uint64(n)
}

// cover extends the buckets to include second sec.
func (s *Series) cover(sec int64) {
	switch {
	case !s.any:
		s.first, s.last, s.any = sec, sec, true
		s.buckets = append(s.buckets[:0], 0) //simlint:allow allocfree(first second of the series only)
	case sec > s.last:
		//simlint:allow allocfree(once per new last second: the slice grows by amortized doubling as the run's clock advances)
		s.buckets = append(s.buckets, make([]uint64, sec-s.last)...)
		s.last = sec
	default: // sec < s.first: a second earlier than any recorded
		//simlint:allow allocfree(out-of-order seconds only; a sink records in clock order and never takes this branch)
		grown := make([]uint64, s.last-sec+1)
		copy(grown[s.first-sec:], s.buckets)
		s.buckets, s.first = grown, sec
	}
}

// TotalBytes reports the sum over all buckets.
func (s *Series) TotalBytes() uint64 { return s.total }

// Empty reports whether nothing was recorded.
func (s *Series) Empty() bool { return !s.any }

// Bounds reports the first and last second with any traffic. Invalid
// when the series is empty.
func (s *Series) Bounds() (first, last int64) { return s.first, s.last }

// BytesAt reports the bytes recorded for one second.
func (s *Series) BytesAt(sec int64) uint64 {
	if !s.any || sec < s.first || sec > s.last {
		return 0
	}
	return s.buckets[sec-s.first]
}

// BytesIn sums the bytes recorded in seconds [from, to).
func (s *Series) BytesIn(from, to int64) uint64 {
	var sum uint64
	for sec := from; sec < to; sec++ {
		sum += s.BytesAt(sec)
	}
	return sum
}

// KbpsSeries renders the per-second received data rate in kilobits per
// second over [from, to), with zeros for quiet seconds.
func (s *Series) KbpsSeries(from, to int64) []float64 {
	out := make([]float64, 0, to-from)
	for sec := from; sec < to; sec++ {
		out = append(out, float64(s.BytesAt(sec))*8/1000)
	}
	return out
}

// AvgReceivedKbps computes the paper's D_received (Eq. 2) over the
// window [from, to): total kilobits received divided by the window
// length in seconds.
func (s *Series) AvgReceivedKbps(from, to int64) float64 {
	n := to - from
	if n <= 0 {
		return 0
	}
	return float64(s.BytesIn(from, to)) * 8 / 1000 / float64(n)
}

// Sparkline renders a coarse text plot of the rate series, used by the
// CLI for quick inspection.
func (s *Series) Sparkline(from, to int64) string {
	levels := []rune("▁▂▃▄▅▆▇█")
	vals := s.KbpsSeries(from, to)
	maxV := 0.0
	for _, v := range vals {
		maxV = math.Max(maxV, v)
	}
	if maxV == 0 {
		return strings.Repeat("▁", len(vals))
	}
	var b strings.Builder
	for _, v := range vals {
		idx := int(v / maxV * float64(len(levels)-1))
		b.WriteRune(levels[idx])
	}
	return b.String()
}

// Timeline records timestamped labeled events (infections, C&C joins,
// attack start/stop). The epidemic use case reads infection timelines
// from here.
type Timeline struct {
	events []TimelineEvent
}

// TimelineEvent is one entry in a Timeline.
type TimelineEvent struct {
	At    sim.Time
	Kind  string
	Actor string
}

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline { return &Timeline{} }

// Record appends an event. Events arrive in simulation order because
// the kernel is single-threaded.
func (t *Timeline) Record(at sim.Time, kind, actor string) {
	t.events = append(t.events, TimelineEvent{At: at, Kind: kind, Actor: actor})
}

// Events returns a copy of all events.
func (t *Timeline) Events() []TimelineEvent {
	out := make([]TimelineEvent, len(t.events))
	copy(out, t.events)
	return out
}

// Count reports how many events of the given kind were recorded.
func (t *Timeline) Count(kind string) int {
	n := 0
	for _, e := range t.events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// FirstOf reports the earliest event of the given kind.
func (t *Timeline) FirstOf(kind string) (TimelineEvent, bool) {
	for _, e := range t.events {
		if e.Kind == kind {
			return e, true
		}
	}
	return TimelineEvent{}, false
}

// LastOf reports the latest event of the given kind.
func (t *Timeline) LastOf(kind string) (TimelineEvent, bool) {
	for i := len(t.events) - 1; i >= 0; i-- {
		if t.events[i].Kind == kind {
			return t.events[i], true
		}
	}
	return TimelineEvent{}, false
}

// CumulativeCurve returns, for each event of kind, the pair (seconds
// since start, cumulative count). This is the infected-device curve the
// §V-B use case fits an SIR model against.
func (t *Timeline) CumulativeCurve(kind string) (times []float64, counts []int) {
	for _, e := range t.events {
		if e.Kind == kind {
			times = append(times, e.At.Seconds())
			counts = append(counts, len(counts)+1)
		}
	}
	return times, counts
}

// ActorsOf lists the distinct actors of events of the given kind, in
// sorted order.
func (t *Timeline) ActorsOf(kind string) []string {
	set := make(map[string]bool)
	for _, e := range t.events {
		if e.Kind == kind {
			set[e.Actor] = true
		}
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// String renders the timeline compactly for debugging.
func (t *Timeline) String() string {
	var b strings.Builder
	for _, e := range t.events {
		fmt.Fprintf(&b, "%s %s %s\n", e.At, e.Kind, e.Actor)
	}
	return b.String()
}
