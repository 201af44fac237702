// Command benchjson runs the repository's benchmark workloads at
// reduced scale and writes machine-readable BENCH_*.json files — the
// CI-friendly counterpart of `go test -bench`. Each file holds one
// suite: the end-to-end kill chain across fleet sizes (with the
// observability layer's own accounting of where kernel time went),
// the raw discrete-event kernel throughput, and the UDP-flood send
// path with flow accounting off vs on.
//
// Examples:
//
//	benchjson                 # write BENCH_killchain.json, BENCH_scheduler.json, BENCH_flood.json (+ BENCH_flood_before.json), BENCH_lint.json
//	benchjson -out results/   # write them elsewhere
//	benchjson -devs 10,50,100 -seeds 3
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ddosim/ddosim"
	"ddosim/internal/lint"
	"ddosim/internal/netsim"
	"ddosim/internal/obs"
	"ddosim/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// killChainRow is one end-to-end measurement: simulation outcomes plus
// the cost of producing them.
type killChainRow struct {
	Devs            int     `json:"devs"`
	Seed            int64   `json:"seed"`
	WallMS          float64 `json:"wall_ms"`
	SimSeconds      float64 `json:"sim_seconds"`
	EventsProcessed uint64  `json:"events_processed"`
	EventsPerSec    float64 `json:"events_per_wall_sec"`
	PeakPending     int     `json:"peak_pending"`
	WallNSPerSimSec int64   `json:"wall_ns_per_sim_sec"`
	AllocsPerEvent  float64 `json:"allocs_per_event"`
	Infected        int     `json:"infected"`
	DReceivedKbps   float64 `json:"d_received_kbps"`
	TraceEvents     int     `json:"trace_events"`
}

// schedRow is one kernel-throughput measurement: a self-rescheduling
// event chain with no simulation payload.
type schedRow struct {
	Events         int     `json:"events"`
	WallMS         float64 `json:"wall_ms"`
	EventsPerSec   float64 `json:"events_per_wall_sec"`
	NSPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
}

// floodRow is one UDP-flood hot-path measurement: per-packet cost of
// the send path with flow accounting off vs on.
type floodRow struct {
	Packets         int     `json:"packets"`
	FlowsEnabled    bool    `json:"flows_enabled"`
	WallMS          float64 `json:"wall_ms"`
	NSPerPacket     float64 `json:"ns_per_packet"`
	AllocsPerPacket float64 `json:"allocs_per_packet"`
	FlowsExported   uint64  `json:"flows_exported"`
}

type suite struct {
	Name      string `json:"name"`
	GoVersion string `json:"go_version"`
	Rows      any    `json:"rows"`
}

func run() error {
	var (
		outDir   = flag.String("out", ".", "directory to write BENCH_*.json into")
		devsList = flag.String("devs", "10,30,50", "comma-separated fleet sizes for the kill-chain suite")
		seeds    = flag.Int("seeds", 1, "seeds per fleet size")
		megaDevs = flag.Int("mega-devs", 0, "when > 0, append one reduced-horizon kill-chain row at this fleet size")
	)
	flag.Parse()

	var devCounts []int
	for _, s := range strings.Split(*devsList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return fmt.Errorf("bad -devs entry %q: %w", s, err)
		}
		devCounts = append(devCounts, n)
	}

	kill, err := benchKillChain(devCounts, *seeds)
	if err != nil {
		return err
	}
	if *megaDevs > 0 {
		mega, err := benchMegaKillChain(*megaDevs)
		if err != nil {
			return err
		}
		kill = append(kill, mega)
	}
	if err := writeSuite(*outDir, "BENCH_killchain.json", "killchain", kill); err != nil {
		return err
	}
	if err := writeSuite(*outDir, "BENCH_scheduler.json", "scheduler", benchScheduler()); err != nil {
		return err
	}
	// The flood suite writes its own before/after pair: _before pins
	// the send path without flow accounting, the main file carries both
	// variants so the overhead is a one-file diff.
	off, on := benchFlood(false), benchFlood(true)
	if err := writeSuite(*outDir, "BENCH_flood_before.json", "flood", []floodRow{off}); err != nil {
		return err
	}
	if err := writeSuite(*outDir, "BENCH_flood.json", "flood", []floodRow{off, on}); err != nil {
		return err
	}
	// The lint suite analyzes the module's own source, so it only runs
	// when benchjson is invoked from inside the repo; elsewhere the
	// other suites still work. The file carries the full suite plus
	// one timing row per analyzer.
	if rows, err := benchLint(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: skipping lint suite: %v\n", err)
	} else if err := writeSuite(*outDir, "BENCH_lint.json", "lint", rows); err != nil {
		return err
	}
	return nil
}

// lintRow is one static-analysis measurement: the cost of loading and
// type-checking the module vs the cost of the analyzers themselves
// (the interprocedural engines — ownership and allocation
// reachability — dominate the latter). A row with an empty Analyzer
// times the whole suite; a named row times that analyzer run
// standalone on a fresh engine, so the engine-backed siblings pktown
// and stalecapture each carry their shared engine's full cost rather
// than splitting it.
type lintRow struct {
	Analyzer      string  `json:"analyzer,omitempty"`
	Packages      int     `json:"packages,omitempty"`
	Analyzers     int     `json:"analyzers"`
	Diags         int     `json:"diags"`
	InventoryRows int     `json:"inventory_rows,omitempty"`
	LoadMS        float64 `json:"load_ms,omitempty"`
	AnalyzeMS     float64 `json:"analyze_ms"`
	InventoryMS   float64 `json:"inventory_ms,omitempty"`
}

// benchLint runs the default suite over the whole module — the same
// work `go run ./cmd/simlint ./...` does in CI — plus the inventory
// build and one standalone timing per analyzer.
func benchLint() ([]lintRow, error) {
	l, err := lint.NewLoader(".")
	if err != nil {
		return nil, err
	}
	start := time.Now()
	pkgs, err := l.LoadAll(".")
	if err != nil {
		return nil, err
	}
	loadMS := float64(time.Since(start).Microseconds()) / 1000

	measure := func(suite []lint.Analyzer) (int, float64) {
		start := time.Now()
		diags := lint.Run(pkgs, suite)
		return len(diags), float64(time.Since(start).Microseconds()) / 1000
	}

	full := lint.DefaultSuite()
	nDiags, analyzeMS := measure(full)
	start = time.Now()
	inv := lint.BuildInventory(pkgs)
	inventoryMS := float64(time.Since(start).Microseconds()) / 1000

	rows := []lintRow{{
		Packages:      len(pkgs),
		Analyzers:     len(full),
		Diags:         nDiags,
		InventoryRows: len(inv),
		LoadMS:        loadMS,
		AnalyzeMS:     analyzeMS,
		InventoryMS:   inventoryMS,
	}}
	// Per-analyzer rows: a fresh suite per measurement so memoized
	// engine Prepares never subsidize a later row.
	for i, a := range full {
		n, ms := measure([]lint.Analyzer{lint.DefaultSuite()[i]})
		rows = append(rows, lintRow{Analyzer: a.Name(), Analyzers: 1, Diags: n, AnalyzeMS: ms})
	}
	return rows, nil
}

// benchFlood measures the UDP flood send path — the hot loop behind
// every attack experiment — with and without flow accounting. One
// continuous src→dst stream, one padded datagram per 100 µs of sim
// time, mirroring internal/netsim's BenchmarkUDPFloodPath.
func benchFlood(withFlows bool) floodRow {
	const warmup, packets = 1_000, 200_000
	sched := sim.NewScheduler(1)
	w := netsim.New(sched)
	star := netsim.NewStar(w)
	var buf obs.FlowBuffer
	if withFlows {
		w.EnableFlows(netsim.FlowConfig{Sink: &buf})
	}
	src := star.AttachHost("src", 100*netsim.Mbps, sim.Millisecond, 64)
	dst := star.AttachHost("dst", 100*netsim.Mbps, sim.Millisecond, 64)
	if _, err := dst.BindUDP(80, nil); err != nil {
		panic(err)
	}
	sock, err := src.BindUDP(0, nil)
	if err != nil {
		panic(err)
	}
	target := netip.AddrPortFrom(dst.Addr4(), 80)

	now := sched.Now()
	step := func() {
		sock.SendPadded(target, nil, 512)
		now += 100 * sim.Microsecond
		if err := sched.Run(now); err != nil {
			panic(err)
		}
	}
	for i := 0; i < warmup; i++ {
		step()
	}
	start := time.Now()
	mallocs0 := mallocCount()
	for i := 0; i < packets; i++ {
		step()
	}
	mallocs := mallocCount() - mallocs0
	wall := time.Since(start)

	row := floodRow{
		Packets:         packets,
		FlowsEnabled:    withFlows,
		WallMS:          float64(wall.Microseconds()) / 1000,
		NSPerPacket:     float64(wall.Nanoseconds()) / float64(packets),
		AllocsPerPacket: float64(mallocs) / float64(packets),
	}
	if ft := w.Flows(); ft != nil {
		ft.Stop()
		ft.FlushAll(sched.Now())
		row.FlowsExported = ft.Stats().Exported
	}
	return row
}

// runKillChain times one complete build-exploit-infect-flood-measure
// cycle for a prepared config, reading the kernel cost breakdown from
// the run's own profiler and the allocation rate from the runtime's
// mallocs counter.
func runKillChain(cfg ddosim.Config) (killChainRow, error) {
	s, err := ddosim.New(cfg)
	if err != nil {
		return killChainRow{}, err
	}
	start := time.Now()
	mallocs0 := mallocCount()
	r, err := s.Run()
	if err != nil {
		return killChainRow{}, err
	}
	mallocs := mallocCount() - mallocs0
	wall := time.Since(start)

	sum := r.Obs
	row := killChainRow{
		Devs:            cfg.NumDevs,
		Seed:            cfg.Seed,
		WallMS:          float64(wall.Microseconds()) / 1000,
		SimSeconds:      cfg.SimDuration.Seconds(),
		EventsProcessed: sum.EventsDelivered,
		PeakPending:     sum.PeakPending,
		WallNSPerSimSec: sum.WallNSPerSimSec,
		Infected:        r.Infected,
		DReceivedKbps:   r.DReceivedKbps,
		TraceEvents:     sum.TraceEvents,
	}
	if sum.EventsDelivered > 0 {
		row.AllocsPerEvent = float64(mallocs) / float64(sum.EventsDelivered)
	}
	if secs := wall.Seconds(); secs > 0 {
		row.EventsPerSec = float64(sum.EventsDelivered) / secs
	}
	return row, nil
}

// benchKillChain sweeps the kill chain over (devs, seed).
func benchKillChain(devCounts []int, seeds int) ([]killChainRow, error) {
	var rows []killChainRow
	for _, devs := range devCounts {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			cfg := ddosim.DefaultConfig(devs)
			cfg.Seed = seed
			cfg.SimDuration = 300 * ddosim.Second
			cfg.AttackDuration = 30
			cfg.RecruitTimeout = 60 * ddosim.Second

			row, err := runKillChain(cfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// benchMegaKillChain is the large-fleet variant: one reduced-horizon
// run at fleets where the full 300 s horizon would take hours. The
// horizon is cut to 60 s with a 30 s recruit timeout — the attack
// order fires at the timeout regardless of recruitment progress, so
// the row still exercises the complete kill chain — and the
// time-series window is widened so windowed telemetry stays bounded.
func benchMegaKillChain(devs int) (killChainRow, error) {
	cfg := ddosim.DefaultConfig(devs)
	cfg.Seed = 1
	cfg.SimDuration = 60 * ddosim.Second
	cfg.AttackDuration = 10
	cfg.RecruitTimeout = 30 * ddosim.Second
	cfg.WindowSize = 5 * ddosim.Second
	if devs >= 100_000 {
		// Event volume is ~devs × horizon; at these fleets the 60 s
		// horizon costs hours on one core. 20 s still covers boot,
		// recruit-timeout attack order, and a 5 s flood window.
		cfg.SimDuration = 20 * ddosim.Second
		cfg.RecruitTimeout = 10 * ddosim.Second
		cfg.AttackDuration = 5
		cfg.WindowSize = 10 * ddosim.Second
	}
	return runKillChain(cfg)
}

// mallocCount reads the runtime's cumulative heap-allocation counter.
func mallocCount() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// benchScheduler measures raw kernel throughput: a chain of
// self-rescheduling no-op events, the simulator's fundamental cost
// floor.
func benchScheduler() []schedRow {
	var rows []schedRow
	for _, events := range []int{100_000, 1_000_000} {
		sched := sim.NewScheduler(1)
		left := events
		var tick func()
		tick = func() {
			left--
			if left > 0 {
				sched.Schedule(sim.Microsecond, tick)
			}
		}
		sched.Schedule(0, tick)
		start := time.Now()
		mallocs0 := mallocCount()
		if err := sched.RunAll(); err != nil {
			continue
		}
		mallocs := mallocCount() - mallocs0
		wall := time.Since(start)
		row := schedRow{
			Events:         events,
			WallMS:         float64(wall.Microseconds()) / 1000,
			AllocsPerEvent: float64(mallocs) / float64(events),
		}
		if secs := wall.Seconds(); secs > 0 {
			row.EventsPerSec = float64(events) / secs
			row.NSPerEvent = float64(wall.Nanoseconds()) / float64(events)
		}
		rows = append(rows, row)
	}
	return rows
}

func writeSuite(dir, file, name string, rows any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(suite{Name: name, GoVersion: runtime.Version(), Rows: rows}); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
