// Package obs is DDoSim's unified observability layer: structured run
// tracing, a metrics registry, and a scheduler profiler. It plays the
// role a tracing/metrics stack plays in a production serving system —
// every phase of a run (deploy, recruitment, attack window, churn
// epochs) and every notable point event (exploit attempt, C&C command,
// device up/down, queue drop) is recorded against the simulated clock,
// so a run can be replayed, diffed, and inspected after the fact.
//
// Three components, bundled by Obs:
//
//   - Tracer: typed spans and point events keyed to sim.Time,
//     exportable as JSONL or as Chrome trace_event JSON that opens
//     directly in chrome://tracing or Perfetto.
//   - Registry: named counters, gauges, and histograms with a
//     Prometheus-style text dump, replacing scattered one-off counters.
//   - Profiler: wall-clock-per-sim-second samples hooked into the
//     scheduler's run loop; the per-source event counts it reports
//     beside them are the kernel's own.
//
// Determinism contract: everything the Tracer and Registry emit is a
// pure function of the simulation (timestamps are sim.Time, never
// time.Now), so two runs with the same seed dump byte-identical traces
// and metrics. Only the Profiler touches the wall clock, and its
// samples never feed back into trace or metrics output.
//
// All methods are safe on a nil receiver, so instrumented packages can
// hold an optional *obs.Obs and skip the nil checks at every call site.
package obs

import "ddosim/internal/sim"

// Obs bundles the three observability components for one run.
type Obs struct {
	Trace   *Tracer
	Metrics *Registry
	Prof    *Profiler
}

// New returns a fully-armed observability bundle.
func New() *Obs {
	return &Obs{
		Trace:   NewTracer(),
		Metrics: NewRegistry(),
		Prof:    NewProfiler(),
	}
}

// Tracer returns the tracer, or nil when o is nil.
func (o *Obs) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.Trace
}

// Registry returns the metrics registry, or nil when o is nil.
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// Profiler returns the profiler, or nil when o is nil.
func (o *Obs) Profiler() *Profiler {
	if o == nil {
		return nil
	}
	return o.Prof
}

// Summary condenses a run's observability data for reports: it is
// embedded in core.Results and serialized by internal/report.
type Summary struct {
	// TraceSpans and TraceEvents count recorded spans and point
	// events; TraceDropped counts events discarded past the cap.
	TraceSpans   int    `json:"trace_spans"`
	TraceEvents  int    `json:"trace_events"`
	TraceDropped uint64 `json:"trace_dropped,omitempty"`

	// EventsDelivered is the total scheduler events run; TopSources
	// are the busiest event sources, descending.
	EventsDelivered uint64       `json:"events_delivered"`
	TopSources      []SourceLoad `json:"top_sources,omitempty"`

	// PeakPending is the deepest the scheduler queue got.
	PeakPending int `json:"peak_pending"`

	// WallNSPerSimSec is the mean wall-clock nanoseconds spent per
	// simulated second (0 when the profiler saw under one second).
	WallNSPerSimSec int64 `json:"wall_ns_per_sim_sec,omitempty"`
}

// Summarize condenses the bundle, reading event counts from the
// kernel that ran: sched, which may be nil. Safe on nil (returns the
// zero Summary).
func (o *Obs) Summarize(sched *sim.Scheduler) Summary {
	var s Summary
	if o == nil {
		return s
	}
	if o.Trace != nil {
		s.TraceSpans = len(o.Trace.recs) - o.Trace.nevents
		s.TraceEvents = o.Trace.nevents
		s.TraceDropped = o.Trace.Dropped()
	}
	if sched != nil {
		s.EventsDelivered = sched.Processed()
		s.TopSources = TopSources(sched, 5)
		s.PeakPending = sched.PeakPending()
	}
	s.WallNSPerSimSec = o.Prof.MeanWallNSPerSimSec()
	return s
}

// SchedulerHook adapts the bundle to sim.Scheduler.SetHook: it feeds
// the profiler every delivered event. Safe on nil (returns nil, which
// the scheduler treats as "no hook").
func (o *Obs) SchedulerHook() func(at sim.Time, src string, pending int) {
	if o == nil || o.Prof == nil {
		return nil
	}
	return o.Prof.OnEvent
}
