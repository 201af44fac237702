// Package obs is DDoSim's unified observability layer: structured run
// tracing and a metrics registry. It plays the role a tracing/metrics
// stack plays in a production serving system — every phase of a run
// (deploy, recruitment, attack window, churn epochs) and every notable
// point event (exploit attempt, C&C command, device up/down, queue
// drop) is recorded against the simulated clock, so a run can be
// replayed, diffed, and inspected after the fact.
//
// Two components, bundled by Obs:
//
//   - Tracer: typed spans and point events keyed to sim.Time,
//     exportable as Chrome trace_event JSON that opens directly in
//     chrome://tracing or Perfetto.
//   - Registry: the table of named counters and gauges a run
//     publishes once, from the counts it kept, when it has ended,
//     with a Prometheus-style text dump. Nothing updates a metric
//     while the run is going.
//
// Where the event loop's work went is the kernel's own account: it
// counts delivered events per sim.Source, and Summarize reads those
// counts from the scheduler that ran.
//
// Determinism contract: everything obs emits is a pure function of the
// simulation (timestamps are sim.Time, never time.Now), so two runs
// with the same seed dump byte-identical traces, metrics and report
// summaries. No part of it reads the wall clock.
//
// All methods are safe on a nil receiver, so instrumented packages can
// hold an optional *obs.Obs and skip the nil checks at every call site.
package obs

import (
	"sort"

	"ddosim/internal/sim"
)

// Obs bundles the two observability components for one run.
type Obs struct {
	Trace   *Tracer
	Metrics *Registry
}

// New returns a fully-armed observability bundle.
func New() *Obs {
	return &Obs{
		Trace:   NewTracer(),
		Metrics: NewRegistry(),
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
		s.TraceSpans = o.Trace.nspans
		s.TraceEvents = o.Trace.nevents
		s.TraceDropped = o.Trace.Dropped()
	}
	if sched != nil {
		s.EventsDelivered = sched.Processed()
		s.TopSources = TopSources(sched, 5)
		s.PeakPending = sched.PeakPending()
	}
	return s
}

// SchedulerHook returns nil, the scheduler's "no hook": obs observes
// no event as it runs. It remains for cmd/bench, which chains it
// before its own timing hook.
func (o *Obs) SchedulerHook() func(at sim.Time, src string, pending int) {
	return nil
}

// SourceLoad is one event source's share of delivered scheduler events.
type SourceLoad struct {
	Source string `json:"source"`
	Events uint64 `json:"events"`
}

// TopSources returns the n busiest event sources the scheduler has
// delivered, descending by count with name as the tiebreak.
func TopSources(sched *sim.Scheduler, n int) []SourceLoad {
	if sched == nil {
		return nil
	}
	var all []SourceLoad
	for id, c := range sched.EventsBySource() {
		if c > 0 {
			all = append(all, SourceLoad{Source: sim.Source(id).String(), Events: c})
		}
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
