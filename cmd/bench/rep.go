package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"ddosim/ddosim"
)

// stats is a set of named numbers; encoding/json writes its keys sorted.
type stats map[string]float64

// repResult is what one repetition reports to the parent process.
type repResult struct {
	SetupS  float64 `json:"setup_s"`
	RunS    float64 `json:"run_s"`
	ExportS float64 `json:"export_s"`
	// PeakRSSMB is the process's peak resident set over set-up, Run and
	// the first export pass. Later passes add garbage in proportion to
	// how many of them fit exportBudget, which depends on speed.
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// Sim holds the simulated statistics and counters. They are a pure
	// function of workload and seed, so every rep at one seed must
	// report the same values.
	Sim stats `json:"sim"`
	// Host holds host-side per-layer costs: allocation and GC during
	// Run, and the time of each export writer.
	Host stats `json:"host"`
	// Trace holds a traced rep's wall-time split by event source.
	Trace stats `json:"trace,omitempty"`
}

// Export passes per rep: up to exportPasses, stopping early once
// exportBudget has gone into exporting.
const (
	exportPasses = 25
	exportBudget = 500 * time.Millisecond
)

// clock is the benchmark's only wall-clock read.
func clock() time.Time {
	return time.Now() //simlint:allow wallclock(benchmark timing; never runs inside the simulation)
}

// runRep is one repetition: build the workload's testbed, run it to the
// horizon, and write its artifacts to io.Discard through the public
// writers, timing each step. A traced rep also splits Run's wall time
// by event source.
func runRep(w workload, seed int64, traced bool) (*repResult, error) {
	t0 := clock()
	s, err := ddosim.New(w.config(seed))
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	setup := clock().Sub(t0)

	var spans *spanClock
	if traced {
		// Chain the run's own profiler hook so Results.Obs is unchanged.
		// The sharded kernel installs none (see core.New).
		prof := s.Obs().SchedulerHook()
		if s.ShardSet() != nil {
			prof = nil
		}
		spans = &spanClock{cur: -1}
		s.Sched().SetHook(func(at ddosim.Time, src string, pending int) {
			spans.event(src)
			if prof != nil {
				prof(at, src, pending)
			}
		})
	}

	rt0 := readRuntime()
	t0 = clock()
	r, err := s.Run()
	run := clock().Sub(t0)
	rt1 := readRuntime()
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}

	res := &repResult{SetupS: setup.Seconds(), RunS: run.Seconds(), Sim: simStats(r), Host: stats{}}
	writers := []struct {
		name  string
		write func(io.Writer) error
	}{
		{"flows_csv", s.Flows().WriteCSV},
		{"windows_csv", s.Windows().WriteCSV},
		{"prometheus", s.Obs().Registry().WritePrometheus},
		{"chrome_trace", s.Obs().Tracer().WriteChromeTrace},
	}
	// A small run's artifacts take a few ms to write, too short to time
	// once, so export passes repeat. Each pass is reported in units of
	// the format probe run before and after it (see probe.go), and the
	// rep reports the median. Exporting starts from a collected heap, so
	// the GC debt Run left behind does not land in the first passes.
	runtime.GC()
	var passes []float64
	perWriter := make([][]float64, len(writers))
	var pass time.Duration
	for spent := time.Duration(0); len(passes) < exportPasses && spent < exportBudget; spent += pass {
		before := formatProbe(pass)
		pass = 0
		for i, wr := range writers {
			t0 := clock()
			if err := wr.write(io.Discard); err != nil {
				return nil, fmt.Errorf("export %s: %w", wr.name, err)
			}
			d := clock().Sub(t0)
			pass += d
			perWriter[i] = append(perWriter[i], ms(d))
		}
		after := formatProbe(pass)
		passes = append(passes, pass.Seconds()*float64(2*formatProbeRef)/float64(before+after))
		if len(passes) == 1 {
			if res.PeakRSSMB, err = peakRSSMB(); err != nil {
				return nil, err
			}
		}
	}
	res.ExportS = median(passes)
	for i, wr := range writers {
		res.Host["obs.export_ms."+wr.name] = median(perWriter[i])
	}

	events := res.Sim["sim.events"]
	allocs := rt1[rtAllocObjects] - rt0[rtAllocObjects]
	res.Host["runtime.allocs_per_event"] = ratio(allocs, events)
	res.Host["runtime.alloc_mb"] = (rt1[rtAllocBytes] - rt0[rtAllocBytes]) / 1e6
	res.Host["runtime.gc_cycles"] = rt1[rtGCCycles] - rt0[rtGCCycles]
	busy := (rt1[rtCPUTotal] - rt1[rtCPUIdle]) - (rt0[rtCPUTotal] - rt0[rtCPUIdle])
	res.Host["runtime.gc_cpu_frac"] = ratio(rt1[rtCPUGC]-rt0[rtCPUGC], busy)
	res.Host["sim.events_per_s"] = ratio(events, run.Seconds())
	res.Host["netsim.ns_per_frame"] = ratio(float64(run.Nanoseconds()), res.Sim["netsim.tx_frames"])
	if spans != nil {
		res.Trace = spans.stats(run)
	}
	return res, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB. The
// parent's rusage Maxrss would not do: Linux carries the forking
// parent's peak across exec into the child's.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// simStats extracts the simulated statistics and counters from a run's
// results, named after the module that produces them.
func simStats(r *ddosim.Results) stats {
	faults := 0.0
	if r.Faults != nil {
		faults = float64(r.Faults.Total())
	}
	issued := -1.0
	if r.AttackIssuedAt >= 0 {
		issued = r.AttackIssuedAt.Seconds()
	}
	tx, drops := float64(r.NetStats.TxFrames), float64(r.NetStats.Drops)
	return stats{
		"sim.events":               float64(r.Obs.EventsDelivered),
		"sim.peak_pending":         float64(r.Obs.PeakPending),
		"core.attack_issued_s":     issued,
		"netsim.tx_frames":         tx,
		"netsim.drops":             drops,
		"netsim.drop_frac":         ratio(drops, tx),
		"netsim.peak_queued":       float64(r.NetStats.PeakQueued),
		"netsim.flows_exported":    float64(r.Flows.Flows),
		"exploit.attempts":         float64(r.ExploitAttempts),
		"exploit.infected":         float64(r.Infected),
		"exploit.yield":            ratio(float64(r.Infected), float64(r.ExploitAttempts)),
		"mirai.bots_registered":    float64(r.BotsRegistered),
		"mirai.bots_at_command":    float64(r.BotsAtCommand),
		"metrics.sink_mb":          float64(r.SinkBytes) / 1e6,
		"metrics.d_received_kbps":  r.DReceivedKbps,
		"metrics.distinct_sources": float64(r.DistinctSources),
		"churn.departures":         float64(r.ChurnDepartures),
		"churn.rejoins":            float64(r.ChurnRejoins),
		"faults.injected":          faults,
		"obs.trace_events":         float64(r.Obs.TraceEvents),
		"obs.trace_dropped":        float64(r.Obs.TraceDropped),
	}
}

// spanLabels are the scheduler event sources a traced rep reports one
// by one, most frequent first to keep the per-event lookup short. ""
// is the kernel's unlabelled source; any other label counts as other.
var spanLabels = [...]string{
	"net.tx", "net.prop", "", "container.shell", "p2p.poll", "dht.timeout",
	"net.flows", "dht.refresh", "faults", "churn.epoch", "core.watcher",
	"obs.windows", "p2p.republish",
}

const otherSpan = len(spanLabels)

// spanName is a span label as it appears in metric names.
func spanName(i int) string {
	switch {
	case i == otherSpan:
		return "other"
	case spanLabels[i] == "":
		return "unlabelled"
	}
	return spanLabels[i]
}

// spanClock charges the wall time between consecutive scheduler hook
// calls to the source of the earlier call's event: a span around each
// call from the kernel into a layer's handler. It allocates nothing
// per event.
type spanClock struct {
	self   [otherSpan + 1]time.Duration
	events [otherSpan + 1]uint64
	cur    int // source of the running event; -1 before the first
	last   time.Time
}

func (c *spanClock) event(src string) {
	now := clock()
	if c.cur >= 0 {
		c.self[c.cur] += now.Sub(c.last)
	}
	c.cur = otherSpan
	for i := range spanLabels {
		if spanLabels[i] == src {
			c.cur = i
			break
		}
	}
	c.events[c.cur]++
	c.last = now
}

// stats reports the split of a traced Run that took run. The last
// event, and Run's own work before the first and after the last event,
// fall outside every span; trace.self_sum_frac shows how much that is.
func (c *spanClock) stats(run time.Duration) stats {
	out := stats{}
	var sum time.Duration
	for i := range c.self {
		out["self_ms."+spanName(i)] = ms(c.self[i])
		out["events."+spanName(i)] = float64(c.events[i])
		sum += c.self[i]
	}
	out["trace.self_sum_frac"] = ratio(float64(sum), float64(run))
	return out
}

// Indices into readRuntime's result.
const (
	rtAllocObjects = iota
	rtAllocBytes
	rtGCCycles
	rtCPUGC
	rtCPUIdle
	rtCPUTotal
)

var runtimeMetrics = [...]string{
	rtAllocObjects: "/gc/heap/allocs:objects",
	rtAllocBytes:   "/gc/heap/allocs:bytes",
	rtGCCycles:     "/gc/cycles/total:gc-cycles",
	rtCPUGC:        "/cpu/classes/gc/total:cpu-seconds",
	rtCPUIdle:      "/cpu/classes/idle:cpu-seconds",
	rtCPUTotal:     "/cpu/classes/total:cpu-seconds",
}

// readRuntime samples the runtime's cumulative allocation, GC and CPU
// counters.
func readRuntime() [len(runtimeMetrics)]float64 {
	var samples [len(runtimeMetrics)]metrics.Sample
	for i, name := range runtimeMetrics {
		samples[i].Name = name
	}
	metrics.Read(samples[:])
	var out [len(runtimeMetrics)]float64
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
