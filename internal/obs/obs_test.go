package obs

import (
	"reflect"
	"testing"

	"ddosim/internal/sim"
)

// TestTopSources: the kernel counts events per source and keeps the
// peak queue depth; TopSources ranks the sources by those counts.
func TestTopSources(t *testing.T) {
	sched := sim.NewScheduler(1)
	tx, epoch, prop := sim.NewSource("net.tx"), sim.NewSource("churn.epoch"), sim.NewSource("net.prop")
	for _, e := range []struct {
		at  sim.Time
		src sim.Source
	}{
		{0, tx},
		{500 * sim.Millisecond, tx},
		{900 * sim.Millisecond, prop},
		{1500 * sim.Millisecond, epoch},
		{2100 * sim.Millisecond, tx},
	} {
		sched.ScheduleAt(e.at, e.src, func() {})
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
	if by[tx] != 3 || by[epoch] != 1 || by[prop] != 1 || by[0] != 0 {
		t.Errorf("by source = %v", by)
	}

	top := TopSources(sched, 2)
	if len(top) != 2 || top[0].Source != "net.tx" || top[0].Events != 3 {
		t.Errorf("top sources = %v", top)
	}
	// Ties break by name: churn.epoch before net.prop.
	if top[1].Source != "churn.epoch" {
		t.Errorf("tiebreak = %q, want churn.epoch", top[1].Source)
	}
	if all := TopSources(sched, 5); len(all) != 3 || all[2] != (SourceLoad{Source: "net.prop", Events: 1}) {
		t.Errorf("all sources = %v", all)
	}
	if TopSources(nil, 3) != nil {
		t.Error("TopSources without a kernel returned data")
	}
}

func TestObsSummarizeAndHook(t *testing.T) {
	var o *Obs
	if s := o.Summarize(sim.NewScheduler(1)); !reflect.DeepEqual(s, Summary{}) {
		t.Errorf("nil Summarize = %+v", s)
	}
	if o.Tracer() != nil || o.Registry() != nil {
		t.Error("nil Obs handed out components")
	}

	live := New()
	if live.SchedulerHook() != nil {
		t.Error("obs handed the scheduler a hook")
	}
	live.Trace.Event(0, CatNet, "queue-drop")
	live.Trace.BeginSpan(0, CatPhase, "deploy")
	sched := sim.NewScheduler(1)
	tx := sim.NewSource("net.tx")
	sched.Schedule(0, tx, func() {})
	sched.Schedule(0, tx, func() {})
	for i := 0; i < 4; i++ {
		sched.Schedule(sim.Second, tx, func() {})
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
