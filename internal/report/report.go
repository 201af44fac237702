// Package report serializes a run's results into one JSON document:
// configuration echo, headline metrics, the per-second rate series, the
// full timeline, and the observability, flow and phase summaries — the
// raw material for the figure-plotting and ML-dataset-generation
// workflows the paper envisions (§V-A).
package report

import (
	"encoding/json"
	"io"

	"ddosim/internal/core"
	"ddosim/internal/faults"
	"ddosim/internal/obs"
)

// Event is a timeline entry in serializable form.
type Event struct {
	AtSecs float64 `json:"at_s"`
	Kind   string  `json:"kind"`
	Actor  string  `json:"actor"`
}

// Run is the serializable view of one simulation run.
type Run struct {
	// Configuration echo.
	Devs           int    `json:"devs"`
	ChurnMode      string `json:"churn"`
	Vector         string `json:"vector"`
	AttackMethod   string `json:"attack_method"`
	AttackDuration int    `json:"attack_duration_s"`
	Seed           int64  `json:"seed"`

	// Headline metrics.
	ExploitAttempts int     `json:"exploit_attempts"`
	Hijacked        int     `json:"hijacked"`
	Infected        int     `json:"infected"`
	Crashed         int     `json:"crashed"`
	InfectionRate   float64 `json:"infection_rate"`
	BotsRegistered  int     `json:"bots_registered"`
	BotsAtCommand   int     `json:"bots_at_command"`
	AttackIssuedAtS float64 `json:"attack_issued_at_s"`
	DReceivedKbps   float64 `json:"d_received_kbps"`
	SinkBytes       uint64  `json:"sink_bytes"`
	DistinctSources int     `json:"distinct_sources"`
	ChurnDepartures uint64  `json:"churn_departures"`
	ChurnRejoins    uint64  `json:"churn_rejoins"`
	WeakCredDevs    int     `json:"weak_cred_devs,omitempty"`
	CanaryDevs      int     `json:"canary_devs,omitempty"`

	// Table I estimates.
	PreAttackMemGB float64 `json:"pre_attack_mem_gb"`
	AttackMemGB    float64 `json:"attack_mem_gb"`
	AttackTimeSecs float64 `json:"attack_time_s"`

	// Faults counts injected faults; omitted for fault-free runs so
	// their reports stay byte-identical to builds without the
	// subsystem.
	Faults *faults.Stats `json:"faults,omitempty"`

	// Series and events.
	PerSecondKbps []float64 `json:"per_second_kbps,omitempty"`
	Timeline      []Event   `json:"timeline,omitempty"`

	// Obs condenses the run's observability layer: trace volume and
	// scheduler load by source.
	Obs obs.Summary `json:"obs"`

	// Flows aggregates the exported flow records by ground-truth label;
	// Phases summarizes kill-chain (and fault) span latencies.
	Flows  obs.FlowStats   `json:"flows"`
	Phases []obs.PhaseStat `json:"phases,omitempty"`
}

// FromResults builds the serializable view, with the per-second series
// and the timeline embedded.
func FromResults(cfg core.Config, r *core.Results) Run {
	run := Run{
		Devs:            r.DevsTotal,
		ChurnMode:       cfg.Churn.String(),
		Vector:          cfg.Vector.String(),
		AttackMethod:    cfg.AttackMethod,
		AttackDuration:  cfg.AttackDuration,
		Seed:            cfg.Seed,
		ExploitAttempts: r.ExploitAttempts,
		Hijacked:        r.Hijacked,
		Infected:        r.Infected,
		Crashed:         r.Crashed,
		InfectionRate:   r.InfectionRate(),
		BotsRegistered:  r.BotsRegistered,
		BotsAtCommand:   r.BotsAtCommand,
		AttackIssuedAtS: r.AttackIssuedAt.Seconds(),
		DReceivedKbps:   r.DReceivedKbps,
		SinkBytes:       r.SinkBytes,
		DistinctSources: r.DistinctSources,
		ChurnDepartures: r.ChurnDepartures,
		ChurnRejoins:    r.ChurnRejoins,
		WeakCredDevs:    r.WeakCredDevs,
		CanaryDevs:      r.CanaryDevs,
		PreAttackMemGB:  r.Usage.PreAttackMemGB,
		AttackMemGB:     r.Usage.AttackMemGB,
		AttackTimeSecs:  r.Usage.AttackTimeSecs,
		Faults:          r.Faults,
		PerSecondKbps:   r.PerSecondKbps,
		Obs:             r.Obs,
		Flows:           r.Flows,
		Phases:          r.Phases,
	}
	if r.Timeline != nil {
		for _, e := range r.Timeline.Events() {
			run.Timeline = append(run.Timeline, Event{
				AtSecs: e.At.Seconds(), Kind: e.Kind, Actor: e.Actor,
			})
		}
	}
	return run
}

// WriteJSON renders the run as indented JSON.
func (r Run) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
