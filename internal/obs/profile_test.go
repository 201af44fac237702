package obs

import (
	"reflect"
	"testing"

	"ddosim/internal/sim"
)

func TestProfilerAccounting(t *testing.T) {
	// The kernel counts events per source and keeps the peak queue
	// depth; the profiler, hooked in, samples wall time per second.
	sched := sim.NewScheduler(1)
	p := NewProfiler()
	var wall int64
	p.SetClock(func() int64 { wall += 1000; return wall })
	sched.SetHook(p.OnEvent)

	tx, epoch := sim.NewSource("net.tx"), sim.NewSource("churn.epoch")
	for _, e := range []struct {
		at  sim.Time
		src sim.Source
	}{
		{0, tx},
		{500 * sim.Millisecond, tx},
		{900 * sim.Millisecond, 0}, // unlabeled
		{1500 * sim.Millisecond, epoch},
		{2100 * sim.Millisecond, tx},
	} {
		sched.ScheduleAtSrc(e.at, e.src, func() {})
	}
	if err := sched.RunAll(); err != nil {
		t.Fatal(err)
	}

	if got := sched.Processed(); got != 5 {
		t.Errorf("total = %d, want 5", got)
	}
	if got := sched.PeakPending(); got != 4 { // after the first pop
		t.Errorf("peak pending = %d, want 4", got)
	}
	by := sched.EventsBySource()
	if by[tx] != 3 || by[epoch] != 1 || by[0] != 1 {
		t.Errorf("by source = %v", by)
	}

	// Seconds 0 and 1 are closed; second 2 is still in progress. The
	// injected clock advances 1000ns per read, one read per boundary.
	samples := p.Samples()
	want := []SecSample{
		{Sec: 0, Events: 3, WallNS: 1000},
		{Sec: 1, Events: 1, WallNS: 1000},
	}
	if !reflect.DeepEqual(samples, want) {
		t.Errorf("samples = %v, want %v", samples, want)
	}
	if got := p.MeanWallNSPerSimSec(); got != 1000 {
		t.Errorf("mean wall/sim-sec = %d, want 1000", got)
	}

	top := TopSources(sched, 2)
	if len(top) != 2 || top[0].Source != "net.tx" || top[0].Events != 3 {
		t.Errorf("top sources = %v", top)
	}
	// Ties break by name: churn.epoch before unlabeled.
	if top[1].Source != "churn.epoch" {
		t.Errorf("tiebreak = %q, want churn.epoch", top[1].Source)
	}
	// The zero Source keeps its report name.
	if all := TopSources(sched, 5); len(all) != 3 || all[2] != (SourceLoad{Source: "unlabeled", Events: 1}) {
		t.Errorf("all sources = %v", all)
	}
}

func TestProfilerClockReadsOnlyAtBoundaries(t *testing.T) {
	p := NewProfiler()
	reads := 0
	p.SetClock(func() int64 { reads++; return int64(reads) })
	for i := 0; i < 1000; i++ {
		p.OnEvent(sim.Time(i)*sim.Millisecond, "net.tx", 0) // all within second 0
	}
	if reads != 1 { // one read arming second 0
		t.Errorf("clock reads = %d, want 1", reads)
	}
	p.OnEvent(sim.Second, "net.tx", 0)
	if reads != 2 { // one more closing second 0
		t.Errorf("clock reads after boundary = %d, want 2", reads)
	}
}

func TestProfilerNilSafe(t *testing.T) {
	var p *Profiler
	p.OnEvent(0, "x", 1)
	p.SetClock(func() int64 { return 0 })
	if p.Samples() != nil || TopSources(nil, 3) != nil {
		t.Error("nil profiler returned data")
	}
	if p.MeanWallNSPerSimSec() != 0 {
		t.Error("nil profiler reported wall time")
	}
}

func TestObsSummarizeAndHook(t *testing.T) {
	var o *Obs
	if s := o.Summarize(sim.NewScheduler(1)); !reflect.DeepEqual(s, Summary{}) {
		t.Errorf("nil Summarize = %+v", s)
	}
	if o.SchedulerHook() != nil {
		t.Error("nil Obs produced a hook")
	}
	if o.Tracer() != nil || o.Registry() != nil || o.Profiler() != nil {
		t.Error("nil Obs handed out components")
	}

	live := New()
	live.Trace.Event(0, CatNet, "queue-drop")
	live.Trace.BeginSpan(0, CatPhase, "deploy")
	hook := live.SchedulerHook()
	if hook == nil {
		t.Fatal("no hook from live Obs")
	}
	sched := sim.NewScheduler(1)
	sched.SetHook(hook)
	tx := sim.NewSource("net.tx")
	sched.ScheduleSrc(0, tx, func() {})
	sched.ScheduleSrc(0, tx, func() {})
	for i := 0; i < 4; i++ {
		sched.Schedule(sim.Second, func() {})
	}
	if err := sched.Run(0); err != nil {
		t.Fatal(err)
	}
	s := live.Summarize(sched)
	if s.TraceSpans != 1 || s.TraceEvents != 1 {
		t.Errorf("summary trace counts = %+v", s)
	}
	if s.EventsDelivered != 2 || s.PeakPending != 5 {
		t.Errorf("summary kernel counts = %+v", s)
	}
	if len(s.TopSources) != 1 || s.TopSources[0] != (SourceLoad{Source: "net.tx", Events: 2}) {
		t.Errorf("summary top sources = %v", s.TopSources)
	}
	if s := live.Summarize(nil); s.EventsDelivered != 0 || s.TopSources != nil || s.TraceEvents != 1 {
		t.Errorf("summary without a kernel = %+v", s)
	}
}
