// Command ddosim runs a single botnet DDoS simulation and reports its
// measurements.
//
// Examples:
//
//	ddosim -devs 50
//	ddosim -devs 100 -churn dynamic -duration 200 -seed 3
//	ddosim -devs 20 -hardened            # PIE fleet: recruitment fails
//	ddosim -devs 30 -json                # machine-readable output
//	ddosim -devs 30 -timeline            # full kill-chain event log
//	ddosim -devs 30 -trace run.trace.json   # open in Perfetto / chrome://tracing
//	ddosim -devs 30 -metrics-out run.prom   # Prometheus-style counter dump
//	ddosim -devs 30 -flows-out run.flows.csv -ts-out run.ts.csv   # labeled flow dataset + windowed metrics
//	ddosim -devs 30 -faults intensity=0.5   # canonical fault scenario, half strength
//	ddosim -devs 30 -faults 'flap:period=60s,down=5s;crash:period=120s' -cnc-replay
//	ddosim -devs 30 -botnet p2p              # decentralized family: Kademlia overlay, signed records
//	ddosim -devs 30 -botnet p2p -faults 'cnc:takedown=30s'   # permanent takedown mid-attack
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ddosim/ddosim"
	"ddosim/internal/report"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ddosim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		devs      = flag.Int("devs", 50, "number of Dev containers")
		churnMode = flag.String("churn", "none", "churn mode: none|static|dynamic|sessions")
		duration  = flag.Int("duration", 100, "attack duration in seconds")
		simSecs   = flag.Int("sim", 600, "NS-3 simulation horizon in seconds")
		seed      = flag.Int64("seed", 1, "random seed")
		frac      = flag.Float64("connman-frac", 0.5, "fraction of Devs running Connman (rest Dnsmasq)")
		payload   = flag.Int("payload", 512, "UDP-PLAIN payload bytes")
		method    = flag.String("method", "udpplain", "attack method: udpplain|syn|ack")
		overV6    = flag.Bool("ipv6", false, "flood TServer's IPv6 address")
		vector    = flag.String("vector", "memory", "recruitment vector: memory|credentials")
		weakCreds = flag.Float64("weak-creds", 1.0, "credentials vector: fraction of Devs with dictionary credentials")
		hardened  = flag.Bool("hardened", false, "use PIE rebuilds of the Dev daemons")
		canary    = flag.Float64("canary", 0, "fraction of Devs built with a stack protector")
		noCurl    = flag.Bool("remove-curl", false, "strip curl/wget from Dev firmware (§IV-C insight)")
		asJSON    = flag.Bool("json", false, "emit JSON (with series and timeline) instead of text")
		timeline  = flag.Bool("timeline", false, "print the full event timeline")
		spark     = flag.Bool("sparkline", false, "print a sparkline of the per-second rate")
		traceOut  = flag.String("trace", "", "write the run trace to this file (Chrome trace_event JSON)")
		promOut   = flag.String("metrics-out", "", "write a Prometheus-style metrics dump to this file")
		flowsOut  = flag.String("flows-out", "", "write the labeled NetFlow-style flow records to this file (CSV)")
		tsOut     = flag.String("ts-out", "", "write the windowed time-series metrics to this file (CSV)")
		window    = flag.Float64("window", 1, "time-series window size in seconds")
		faultSpec = flag.String("faults", "", "fault-injection spec: \"intensity=0.5\" or \"kind:key=val,...;...\" (kinds: flap|loss|degrade|crash|cnc|sink)")
		cncReplay = flag.Bool("cnc-replay", false, "C&C replays the attack order (trimmed) to bots that register during the attack window")
		botnet    = flag.String("botnet", "mirai", "botnet family: mirai (centralized C&C) | p2p (Kademlia overlay, signed command records)")
		cmdWave   = flag.Float64("command-wave", 0, "mirai only: re-send the attack order every this many seconds until the window ends (0 = single shot)")
	)
	flag.Parse()

	cfg := ddosim.DefaultConfig(*devs)
	cfg.Seed = *seed
	cfg.AttackDuration = *duration
	cfg.SimDuration = ddosim.Time(*simSecs) * ddosim.Second
	cfg.ConnmanFraction = *frac
	cfg.PayloadBytes = *payload
	cfg.AttackMethod = *method
	cfg.AttackOverIPv6 = *overV6
	cfg.Hardened = *hardened
	cfg.CanaryFraction = *canary
	cfg.RemoveCurl = *noCurl
	switch *vector {
	case "memory", "":
		cfg.Vector = ddosim.VectorMemoryError
	case "credentials", "creds":
		cfg.Vector = ddosim.VectorCredentials
		cfg.WeakCredFraction = *weakCreds
		// Scanning recruitment is much slower than the exploit
		// channels; give it most of the horizon before the order.
		if timeout := cfg.SimDuration - ddosim.Time(*duration+60)*ddosim.Second; timeout > cfg.RecruitTimeout {
			cfg.RecruitTimeout = timeout
		}
	default:
		return fmt.Errorf("unknown vector %q (memory|credentials)", *vector)
	}
	mode, err := ddosim.ParseChurnMode(*churnMode)
	if err != nil {
		return err
	}
	cfg.Churn = mode
	fc, err := ddosim.ParseFaultSpec(*faultSpec)
	if err != nil {
		return err
	}
	cfg.Faults = fc
	cfg.CNCReplayAttack = *cncReplay
	switch *botnet {
	case "mirai", "":
		cfg.Botnet = ddosim.BotnetMirai
	case "p2p":
		cfg.Botnet = ddosim.BotnetP2P
	default:
		return fmt.Errorf("unknown botnet family %q (mirai|p2p)", *botnet)
	}
	cfg.CommandWave = ddosim.Time(*cmdWave * float64(ddosim.Second))
	cfg.WindowSize = ddosim.Time(*window * float64(ddosim.Second))

	sim, err := ddosim.New(cfg)
	if err != nil {
		return err
	}
	r, err := sim.Run()
	if err != nil {
		return err
	}

	if *traceOut != "" {
		if err := writeTo(*traceOut, sim.Obs().Trace.WriteChromeTrace); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if *promOut != "" {
		if err := writeTo(*promOut, sim.Obs().Metrics.WritePrometheus); err != nil {
			return fmt.Errorf("write metrics: %w", err)
		}
	}
	if *flowsOut != "" {
		if err := writeTo(*flowsOut, sim.Flows().WriteCSV); err != nil {
			return fmt.Errorf("write flows: %w", err)
		}
	}
	if *tsOut != "" {
		if err := writeTo(*tsOut, sim.Windows().WriteCSV); err != nil {
			return fmt.Errorf("write time series: %w", err)
		}
	}

	if *asJSON {
		return report.FromResults(cfg, r).WriteJSON(os.Stdout)
	}
	fmt.Printf("DDoSim run: %d devs, %s, %ds attack, seed %d\n\n", *devs, mode, *duration, *seed)
	fmt.Print(r.Summary())
	if *spark && len(r.PerSecondKbps) > 0 {
		fmt.Printf("\nrate: %s\n", r.Sparkline())
	}
	if *timeline {
		fmt.Println("\ntimeline:")
		for _, e := range r.Timeline.Events() {
			fmt.Printf("  %10s  %-15s %s\n", e.At, e.Kind, e.Actor)
		}
	}
	return nil
}

// writeTo streams one observability artifact into a freshly created
// file, keeping the close error (the last write may be buffered).
func writeTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
