package experiments

import (
	"fmt"
	"strings"

	"ddosim/internal/core"
	"ddosim/internal/faults"
	"ddosim/internal/sim"
)

// ResilienceRow is one point of the fault-intensity sweep.
type ResilienceRow struct {
	Intensity       float64
	DReceivedKbps   float64
	InfectionRate   float64
	MeanRecruitSecs float64
	// FaultEvents is the mean number of injected faults per run, and
	// LoaderRedials the mean number of backoff retries plus re-loads of
	// crashed bots — the robustness response the sweep is exercising.
	FaultEvents   float64
	LoaderRedials float64
}

// Resilience sweeps the canonical fault scenario (faults.AtIntensity)
// over the credentials-vector botnet: as flaps, loss bursts, crashes,
// and C&C outages intensify, the received rate degrades, while the
// loader's re-dial backoff keeps recruitment near-complete far longer
// than a single-shot loader would.
func Resilience(opt Options) ([]ResilienceRow, error) {
	devs := 30
	intensities := []float64{0, 0.25, 0.5, 0.75, 1.0}
	if opt.Quick {
		devs = 15
		intensities = []float64{0, 0.5, 1.0}
	}
	return parallelMap(len(intensities), func(i int) (ResilienceRow, error) {
		x := intensities[i]
		var dSum, rateSum, timeSum, faultSum, retrySum float64
		timed := 0
		for _, seed := range opt.seeds() {
			cfg := core.DefaultConfig(devs)
			cfg.Seed = seed
			cfg.Vector = core.VectorCredentials
			cfg.SimDuration = 900 * sim.Second
			cfg.RecruitTimeout = 600 * sim.Second
			cfg.ScanPeriod = sim.Second
			cfg.AttackDuration = 60
			cfg.Faults = faults.AtIntensity(x)
			s, r, err := opt.run(cfg, fmt.Sprintf("resilience-x%03d", int(x*100)))
			if err != nil {
				return ResilienceRow{}, fmt.Errorf("resilience x=%v: %w", x, err)
			}
			dSum += r.DReceivedKbps
			rateSum += r.InfectionRate()
			if mean, ok := r.MeanPhaseSecs("recruit"); ok {
				timeSum += mean
				timed++
			}
			if r.Faults != nil {
				faultSum += float64(r.Faults.Total())
			}
			if l := s.Loader(); l != nil {
				retrySum += float64(l.Retries + l.Reloads)
			}
		}
		n := float64(len(opt.seeds()))
		row := ResilienceRow{
			Intensity:     x,
			DReceivedKbps: dSum / n,
			InfectionRate: rateSum / n,
			FaultEvents:   faultSum / n,
			LoaderRedials: retrySum / n,
		}
		if timed > 0 {
			row.MeanRecruitSecs = timeSum / float64(timed)
		}
		return row, nil
	})
}

// RenderResilience prints the sweep.
func RenderResilience(rows []ResilienceRow) string {
	var b strings.Builder
	b.WriteString("Resilience: botnet performance vs fault-injection intensity (credentials vector)\n")
	fmt.Fprintf(&b, "%-10s %14s %15s %18s %12s %14s\n",
		"intensity", "D_recv (kbps)", "infection rate", "mean recruit (s)", "faults/run", "loader redials")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10.2f %14.1f %14.0f%% %18.1f %12.1f %14.1f\n",
			r.Intensity, r.DReceivedKbps, 100*r.InfectionRate, r.MeanRecruitSecs,
			r.FaultEvents, r.LoaderRedials)
	}
	return b.String()
}
