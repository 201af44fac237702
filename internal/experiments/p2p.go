package experiments

import (
	"fmt"
	"strings"

	"ddosim/internal/core"
	"ddosim/internal/faults"
	"ddosim/internal/sim"
)

// p2pTakedownSecs is how long after the attack order the permanent
// C&C takedown lands in the P2P experiment.
const p2pTakedownSecs = 30

// p2pPostGraceSecs skips the drain right after the takedown before the
// post-takedown rate is averaged: in-flight heartbeat orders keep the
// centralized flood alive for up to one command wave, and the
// teardown of the C&C uplink takes a TCP timeout to propagate.
const p2pPostGraceSecs = 15

// P2PRow is one point of the family × fault-intensity sweep.
type P2PRow struct {
	Family        string
	Intensity     float64
	InfectionRate float64
	// DissemLatencySecs is the mean attack-order → first-flood-packet
	// latency across the fleet: a TCP push for mirai, a record lookup
	// (or replica push) for p2p.
	DissemLatencySecs float64
	DReceivedKbps     float64
	// Pre/PostTakedownKbps average the received rate before the
	// permanent C&C takedown and after it (past the drain grace);
	// SustainRatio is their quotient — the takedown-resilience metric.
	PreTakedownKbps  float64
	PostTakedownKbps float64
	SustainRatio     float64
}

// P2P runs the takedown-resilience contrast between the botnet
// families: both recruit the same fleet through the same memory-error
// exploits and flood the same sink, but p2pTakedownSecs into the
// attack the botmaster is permanently taken down — process killed,
// uplink severed, no restart. The centralized family runs in heartbeat
// mode (CommandWave), so its flood starves within one wave; the P2P
// family's bots hold a signed record with the campaign's absolute end
// and keep flooding off the surviving replicas.
func P2P(opt Options) ([]P2PRow, error) {
	devs := 30
	intensities := []float64{0, 0.5}
	if opt.Quick {
		devs = 12
		intensities = []float64{0}
	}
	families := []string{core.BotnetMirai, core.BotnetP2P}
	type job struct {
		family    string
		intensity float64
	}
	var jobs []job
	for _, fam := range families {
		for _, x := range intensities {
			jobs = append(jobs, job{family: fam, intensity: x})
		}
	}
	return parallelMap(len(jobs), func(i int) (P2PRow, error) {
		j := jobs[i]
		row := P2PRow{Family: j.family, Intensity: j.intensity}
		var preSum, postSum, dSum, rateSum, dissemSum float64
		dissemRuns := 0
		for _, seed := range opt.seeds() {
			cfg := core.DefaultConfig(devs)
			opt.apply(&cfg)
			cfg.Seed = seed
			cfg.Botnet = j.family
			cfg.SimDuration = 400 * sim.Second
			cfg.AttackDuration = 120
			// Keep the flood ramp short so the pre-takedown window
			// measures a steady rate, not the jitter ramp.
			cfg.StartJitterPerDev = 50 * sim.Millisecond
			if j.family == core.BotnetMirai {
				cfg.CommandWave = 10 * sim.Second
			} else {
				cfg.P2PPollPeriod = 10 * sim.Second
			}
			cfg.Faults = faults.AtIntensity(j.intensity)
			cfg.Faults.CNCTakedownAfterOrder = p2pTakedownSecs * sim.Second
			s, err := core.New(cfg)
			if err != nil {
				return P2PRow{}, fmt.Errorf("p2p %s x=%v: %w", j.family, j.intensity, err)
			}
			r, err := s.Run()
			if err != nil {
				return P2PRow{}, fmt.Errorf("p2p %s x=%v: %w", j.family, j.intensity, err)
			}
			label := fmt.Sprintf("p2p-%s-x%03d-s%d", j.family, int(j.intensity*100), seed)
			if err := opt.dumpObs(label, s); err != nil {
				return P2PRow{}, err
			}
			rateSum += r.InfectionRate()
			dSum += r.DReceivedKbps
			if lat, ok := dissemLatency(r); ok {
				dissemSum += lat
				dissemRuns++
			}
			pre, post := takedownSplit(r.PerSecondKbps)
			preSum += pre
			postSum += post
		}
		n := float64(len(opt.seeds()))
		row.InfectionRate = rateSum / n
		row.DReceivedKbps = dSum / n
		row.PreTakedownKbps = preSum / n
		row.PostTakedownKbps = postSum / n
		if dissemRuns > 0 {
			row.DissemLatencySecs = dissemSum / float64(dissemRuns)
		}
		if row.PreTakedownKbps > 0 {
			row.SustainRatio = row.PostTakedownKbps / row.PreTakedownKbps
		}
		return row, nil
	})
}

// dissemLatency is the mean attack-order → first-flood-packet latency
// over the fleet (heartbeat waves re-record flood starts, so only each
// bot's first counts).
func dissemLatency(r *core.Results) (float64, bool) {
	if r.AttackIssuedAt < 0 {
		return 0, false
	}
	first := make(map[string]sim.Time)
	var order []string
	for _, e := range r.Timeline.Events() {
		if e.Kind != core.EventFloodStart || e.At < r.AttackIssuedAt {
			continue
		}
		if _, ok := first[e.Actor]; !ok {
			first[e.Actor] = e.At
			order = append(order, e.Actor)
		}
	}
	if len(order) == 0 {
		return 0, false
	}
	var sum float64
	for _, actor := range order {
		sum += (first[actor] - r.AttackIssuedAt).Seconds()
	}
	return sum / float64(len(order)), true
}

// takedownSplit averages the per-second received series before the
// takedown instant and after it plus the drain grace.
func takedownSplit(series []float64) (pre, post float64) {
	avg := func(s []float64) float64 {
		if len(s) == 0 {
			return 0
		}
		var sum float64
		for _, v := range s {
			sum += v
		}
		return sum / float64(len(s))
	}
	td := p2pTakedownSecs
	if td > len(series) {
		td = len(series)
	}
	from := p2pTakedownSecs + p2pPostGraceSecs
	if from > len(series) {
		from = len(series)
	}
	return avg(series[:td]), avg(series[from:])
}

// RenderP2P prints the contrast.
func RenderP2P(rows []P2PRow) string {
	var b strings.Builder
	b.WriteString("P2P: takedown resilience, centralized (mirai) vs Kademlia overlay (p2p)\n")
	fmt.Fprintf(&b, "%-8s %-10s %15s %12s %14s %13s %14s %9s\n",
		"family", "intensity", "infection rate", "dissem (s)", "D_recv (kbps)", "pre-TD (kbps)", "post-TD (kbps)", "sustain")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-10.2f %14.0f%% %12.2f %14.1f %13.1f %14.1f %8.0f%%\n",
			r.Family, r.Intensity, 100*r.InfectionRate, r.DissemLatencySecs,
			r.DReceivedKbps, r.PreTakedownKbps, r.PostTakedownKbps, 100*r.SustainRatio)
	}
	return b.String()
}
