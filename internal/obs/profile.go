package obs

import (
	"sort"
	"time"

	"ddosim/internal/sim"
)

// SourceLoad is one event source's share of delivered scheduler events.
type SourceLoad struct {
	Source string `json:"source"`
	Events uint64 `json:"events"`
}

// SecSample records how much work one simulated second cost: how many
// events it delivered and how long it took on the wall clock.
type SecSample struct {
	Sec    int64  `json:"sec"`
	Events uint64 `json:"events"`
	WallNS int64  `json:"wall_ns"`
}

// Profiler measures the wall-clock cost of the discrete-event kernel:
// time per simulated second. Hook it into the scheduler with
// sim.Scheduler.SetHook (core does this automatically); the kernel
// itself counts events per source (see TopSources). Unlike the Tracer,
// the Profiler reads the wall clock — once per simulated-second
// boundary, never per event — so its samples are not deterministic and
// are kept out of trace and metrics dumps.
type Profiler struct {
	clock     func() int64 // wall nanoseconds; injectable for tests
	curSec    int64
	secStart  int64 // wall ns at entry to curSec
	secEvents uint64
	started   bool
	samples   []SecSample
}

// NewProfiler returns a profiler using the real wall clock.
func NewProfiler() *Profiler {
	return &Profiler{clock: func() int64 { return time.Now().UnixNano() }} //simlint:allow wallclock(per-second wall cost, kept out of the trace and metrics dumps)
}

// SetClock replaces the wall-clock source (tests).
func (p *Profiler) SetClock(clock func() int64) {
	if p == nil || clock == nil {
		return
	}
	p.clock = clock
}

// OnEvent records one delivered scheduler event. It matches the
// sim.Scheduler hook signature; the source and queue depth are the
// kernel's to count. The wall clock is only read when at crosses into
// a new simulated second.
func (p *Profiler) OnEvent(at sim.Time, _ string, _ int) {
	if p == nil {
		return
	}
	sec := int64(at / sim.Second)
	if !p.started {
		p.started = true
		p.curSec = sec
		p.secStart = p.clock()
		p.secEvents = 1
		return
	}
	if sec == p.curSec {
		p.secEvents++
		return
	}
	now := p.clock()
	p.samples = append(p.samples, SecSample{Sec: p.curSec, Events: p.secEvents, WallNS: now - p.secStart})
	p.curSec = sec
	p.secStart = now
	p.secEvents = 1
}

// Samples returns the closed per-second samples (the second in
// progress is not included).
func (p *Profiler) Samples() []SecSample {
	if p == nil {
		return nil
	}
	out := make([]SecSample, len(p.samples))
	copy(out, p.samples)
	return out
}

// TopSources returns the n busiest event sources the scheduler has
// delivered, descending by count with name as the tiebreak. The zero
// Source is reported as "unlabeled".
func TopSources(sched *sim.Scheduler, n int) []SourceLoad {
	if sched == nil {
		return nil
	}
	var all []SourceLoad
	for id, c := range sched.EventsBySource() {
		if c == 0 {
			continue
		}
		name := sim.Source(id).String()
		if name == "" {
			name = "unlabeled"
		}
		all = append(all, SourceLoad{Source: name, Events: c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Events != all[j].Events {
			return all[i].Events > all[j].Events
		}
		return all[i].Source < all[j].Source
	})
	if n < len(all) {
		all = all[:n]
	}
	return all
}

// MeanWallNSPerSimSec reports the mean wall-clock cost of one
// simulated second over all closed samples, or 0 with no samples.
func (p *Profiler) MeanWallNSPerSimSec() int64 {
	if p == nil || len(p.samples) == 0 {
		return 0
	}
	var sum int64
	for _, s := range p.samples {
		sum += s.WallNS
	}
	return sum / int64(len(p.samples))
}
