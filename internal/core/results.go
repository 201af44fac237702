package core

import (
	"fmt"
	"math"
	"strings"

	"ddosim/internal/epidemic"
	"ddosim/internal/faults"
	"ddosim/internal/netsim"
	"ddosim/internal/obs"
	"ddosim/internal/resources"
	"ddosim/internal/sim"
)

// Timeline event kinds recorded during a run.
const (
	EventExploitHit   = "exploit-hit"    // daemon hijacked, shell executed
	EventExploitCrash = "exploit-crash"  // daemon crashed (defenses held)
	EventBotJoined    = "bot-registered" // bot completed C&C registration
	EventBotLost      = "bot-lost"       // C&C dropped a bot
	EventAttackOrder  = "attack-order"   // C&C broadcast the command
	EventFloodStart   = "flood-start"    // a bot's first flood packet of an order
	EventChurnOffline = "churn-offline"
	EventChurnOnline  = "churn-online"
	// EventLoaded marks a credential-vector infection: the loader
	// pushed the bot through a brute-forced telnet session.
	EventLoaded = "bot-loaded"
)

// Timeline records timestamped labelled events (infections, C&C joins
// and losses, the attack order, flood starts, churn flips, faults). It
// is the run's one uncapped event log and keeps every repeat: a Dev
// that rejoins, or a bot that restarts its flood at each command wave,
// logs each time. Only the run itself writes it.
type Timeline struct {
	events []TimelineEvent
}

// TimelineEvent is one entry in a Timeline.
type TimelineEvent struct {
	At    sim.Time
	Kind  string
	Actor string
}

// record appends an event. Events arrive in simulation order because
// the kernel is single-threaded.
func (t *Timeline) record(at sim.Time, kind, actor string) {
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

// Results collects everything a run measured.
type Results struct {
	// DevsTotal is the configured fleet size.
	DevsTotal int

	// ExploitAttempts counts parses of attacker payloads by Dev
	// daemons; Hijacked of those overwrote a return address;
	// Infected of those executed the infection shell; Crashed of
	// those faulted (defenses held or chain mismatched).
	ExploitAttempts int
	Hijacked        int
	Infected        int
	Crashed         int

	// BotsRegistered is the count of distinct Devs that completed C&C
	// registration at least once; BotsAtCommand is how many received
	// the attack order.
	BotsRegistered int
	BotsAtCommand  int

	// WeakCredDevs (credentials vector only) is how many Devs shipped
	// a dictionary credential — the recruitable population.
	WeakCredDevs int
	// CanaryDevs is how many Devs run stack-protector builds.
	CanaryDevs int

	// AttackIssuedAt is when the C&C broadcast the order; the
	// measurement window for D_received is
	// [issue second, issue second + AttackDuration).
	AttackIssuedAt sim.Time

	// DReceivedKbps is the paper's Eq. 2 average received data rate.
	DReceivedKbps float64
	// PerSecondKbps is the received rate in each window second.
	PerSecondKbps []float64
	// SinkBytes is the total attack volume TServer logged, and
	// DistinctSources the number of bots it observed.
	SinkBytes       uint64
	DistinctSources int

	// Usage is the Table I resource estimate for this run.
	Usage resources.Usage

	// ChurnDepartures/ChurnRejoins count membership flips.
	ChurnDepartures uint64
	ChurnRejoins    uint64

	// NetStats snapshots network-wide counters at the end of the run.
	NetStats netsim.NetworkStats

	// Timeline is the full event log.
	Timeline *Timeline

	// Faults counts injected faults; nil when the run declared no
	// fault scenario.
	Faults *faults.Stats

	// Obs condenses the run's observability data (trace volume and
	// scheduler load breakdown).
	Obs obs.Summary

	// Flows aggregates the NetFlow-style records exported during the
	// run, broken down by ground-truth label.
	Flows obs.FlowStats

	// Phases summarizes kill-chain (and fault) span latencies: one row
	// per phase name with count/min/mean/max durations.
	Phases []obs.PhaseStat

	// infectedAt holds each infected Dev's first infection time, in
	// time order.
	infectedAt []sim.Time
}

// InfectionRate reports the paper's R2 metric: the fraction of
// targeted Devs recruited into the botnet, that is, whose bot joined it
// at least once. A Dev whose infection command ran but could not fetch
// the bot (§IV-C's missing curl) is infected, not recruited.
func (r *Results) InfectionRate() float64 {
	if r.DevsTotal == 0 {
		return 0
	}
	return float64(r.BotsRegistered) / float64(r.DevsTotal)
}

// InfectionCurve is the measured cumulative-infections curve the §V-B
// use case fits epidemic models to: one point per infected Dev, at the
// instant it was first infected, under either recruitment vector.
func (r *Results) InfectionCurve() epidemic.Curve {
	c := epidemic.Curve{Times: make([]float64, len(r.infectedAt)), Counts: make([]int, len(r.infectedAt))}
	for i, at := range r.infectedAt {
		c.Times[i], c.Counts[i] = at.Seconds(), i+1
	}
	return c
}

// MeanPhaseSecs reports the mean duration of the named kill-chain
// phase, and whether any span of that phase was recorded.
func (r *Results) MeanPhaseSecs(phase string) (float64, bool) {
	for i := range r.Phases {
		if r.Phases[i].Phase == phase {
			return r.Phases[i].MeanSecs, true
		}
	}
	return 0, false
}

// Sparkline renders PerSecondKbps, the received rate over the attack
// window, as a coarse text plot for quick inspection.
func (r *Results) Sparkline() string {
	levels := []rune("▁▂▃▄▅▆▇█")
	maxV := 0.0
	for _, v := range r.PerSecondKbps {
		maxV = math.Max(maxV, v)
	}
	if maxV == 0 {
		return strings.Repeat("▁", len(r.PerSecondKbps))
	}
	var b strings.Builder
	for _, v := range r.PerSecondKbps {
		b.WriteRune(levels[int(v/maxV*float64(len(levels)-1))])
	}
	return b.String()
}

// Summary renders a human-readable report.
func (r *Results) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "devices:            %d\n", r.DevsTotal)
	fmt.Fprintf(&b, "exploit attempts:   %d (hijacked %d, crashed %d)\n", r.ExploitAttempts, r.Hijacked, r.Crashed)
	fmt.Fprintf(&b, "infected:           %d\n", r.Infected)
	fmt.Fprintf(&b, "bots registered:    %d (%.0f%%)\n", r.BotsRegistered, 100*r.InfectionRate())
	fmt.Fprintf(&b, "bots ordered:       %d (at %s)\n", r.BotsAtCommand, r.AttackIssuedAt)
	fmt.Fprintf(&b, "D_received:         %.1f kbps\n", r.DReceivedKbps)
	fmt.Fprintf(&b, "attack volume:      %d bytes from %d sources\n", r.SinkBytes, r.DistinctSources)
	fmt.Fprintf(&b, "churn:              -%d/+%d\n", r.ChurnDepartures, r.ChurnRejoins)
	if r.Faults != nil {
		fmt.Fprintf(&b, "faults injected:    %d (flaps %d, bursts %d, degrades %d, crashes %d+%d cnc, outages %d cnc/%d sink; restarts %d)\n",
			r.Faults.Total(), r.Faults.LinkFlaps, r.Faults.LossBursts, r.Faults.DegradeWindows,
			r.Faults.ProcCrashes, r.Faults.CNCCrashes, r.Faults.CNCOutages, r.Faults.SinkOutages,
			r.Faults.ProcRestarts)
	}
	fmt.Fprintf(&b, "est. pre-attack mem: %.2f GB, attack mem: %.2f GB, attack time: %s\n",
		r.Usage.PreAttackMemGB, r.Usage.AttackMemGB, r.Usage.AttackTimeMMSS())
	fmt.Fprintf(&b, "flows exported:     %d (%d packets, %d bytes)\n",
		r.Flows.Flows, r.Flows.Packets, r.Flows.Bytes)
	for _, ls := range r.Flows.Labels {
		fmt.Fprintf(&b, "  %-20s %d flows, %d packets\n", ls.Label, ls.Flows, ls.Packets)
	}
	if len(r.Phases) > 0 {
		fmt.Fprintf(&b, "kill-chain phases:\n")
		for _, p := range r.Phases {
			fmt.Fprintf(&b, "  %-20s n=%d min=%.3fs mean=%.3fs max=%.3fs\n",
				p.Phase, p.Count, p.MinSecs, p.MeanSecs, p.MaxSecs)
		}
	}
	fmt.Fprintf(&b, "observability:      %d spans, %d trace events, %d kernel events (peak pending %d)\n",
		r.Obs.TraceSpans, r.Obs.TraceEvents, r.Obs.EventsDelivered, r.Obs.PeakPending)
	for _, src := range r.Obs.TopSources {
		fmt.Fprintf(&b, "  %-20s %d\n", src.Source, src.Events)
	}
	return b.String()
}
