// Botnetspread: the paper's §V-B use case — test mathematical models
// of botnet propagation against the simulation. The example measures
// DDoSim's cumulative infection curve, fits two epidemic models to it
// (the classic SI contact model and an external-force model), and
// reports which one the measured dynamics support.
package main

import (
	"fmt"
	"os"

	"ddosim/ddosim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "botnetspread:", err)
		os.Exit(1)
	}
}

func run() error {
	const devs = 80
	cfg := ddosim.DefaultConfig(devs)
	// An all-Connman fleet with a slowed query period: each Dev is
	// exploited when its own jittered DNS query fires, so infections
	// arrive one at a time — a curve worth fitting. (The DHCPv6
	// channel would infect every Dnsmasq Dev in one multicast burst.)
	cfg.ConnmanFraction = 1
	cfg.ConnmanQueryPeriod = 25 * ddosim.Second
	cfg.RecruitTimeout = 150 * ddosim.Second

	sim, err := ddosim.New(cfg)
	if err != nil {
		return err
	}
	results, err := sim.Run()
	if err != nil {
		return err
	}

	curve := results.InfectionCurve()
	if len(curve.Times) == 0 {
		return fmt.Errorf("no infections recorded")
	}
	horizon := curve.Times[len(curve.Times)-1] + 5

	lambda, rmseExt := ddosim.FitInfectionLambda(curve, devs, horizon)
	beta, rmseSI := ddosim.FitInfectionBeta(curve, devs, horizon)

	fmt.Println("=== Botnet-spread modeling: fitting epidemic models to DDoSim ===")
	fmt.Println()
	fmt.Printf("fleet: %d Devs, %d infected by t=%.0fs\n", devs, results.Infected, horizon)
	fmt.Println()
	fmt.Printf("external-force model  dI/dt = λ(N−I):   λ = %.4f /s,  RMSE = %.2f devices\n", lambda, rmseExt)
	fmt.Printf("SI contact model      dI/dt = βSI/N:    β = %.4f /s,  RMSE = %.2f devices\n", beta, rmseSI)
	fmt.Println()

	// Show measured vs best-fit model at a few checkpoints.
	times, infected := ddosim.SimulateExternalInfection(lambda, devs, 0.05, horizon)
	fmt.Println("  t(s)   measured   fitted(ext)")
	for k := 0; k < len(curve.Times); k += max(1, len(curve.Times)/8) {
		t := curve.Times[k]
		fitted := interp(times, infected, t)
		fmt.Printf("  %5.1f  %9d  %12.1f\n", t, curve.Counts[k], fitted)
	}
	fmt.Println()
	if rmseExt < rmseSI {
		fmt.Println("verdict: the external-force model fits better — as expected, since")
		fmt.Println("DDoSim's infection radiates from one Attacker rather than spreading")
		fmt.Println("bot-to-bot, the curve is concave (no sigmoidal takeoff).")
	} else {
		fmt.Println("verdict: the SI contact model fits better on this run.")
	}
	return nil
}

func interp(times, values []float64, t float64) float64 {
	for i := 1; i < len(times); i++ {
		if times[i] >= t {
			frac := (t - times[i-1]) / (times[i] - times[i-1])
			return values[i-1] + frac*(values[i]-values[i-1])
		}
	}
	if len(values) == 0 {
		return 0
	}
	return values[len(values)-1]
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
