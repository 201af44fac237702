package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Report is the outcome of one benchmark invocation, as written by
// --out and read by --compare.
type Report struct {
	Machine   Machine          `json:"machine"`
	Workloads []WorkloadReport `json:"workloads"`
}

// Machine records what produced a report.
type Machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	// Rotation is the order reps run in within every round; Rounds
	// counts the timed rounds between the warm-up and traced rounds.
	Rotation []string `json:"rotation"`
	Rounds   int      `json:"rounds"`
	// ProbeMS is the run's median probe time. Run and set-up times are
	// scaled by probe_ref_ms over the probe times around each rep.
	ProbeMS    float64 `json:"probe_ms"`
	ProbeRefMS float64 `json:"probe_ref_ms"`
}

// WorkloadReport aggregates one workload's reps.
type WorkloadReport struct {
	Name      string   `json:"name"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// EndToEnd summarizes the untraced reps' end-to-end metrics.
	EndToEnd map[string]Summary `json:"end_to_end"`
	// Sim is the simulated statistics every rep reproduced.
	Sim stats `json:"sim"`
	// PerLayer holds medians of the host-side per-layer metrics and,
	// with tracing, of the traced reps' split.
	PerLayer stats `json:"per_layer"`
}

// Summary is a metric's distribution over reps. Q1 and Q3 follow
// Python's statistics.quantiles(values, n=4).
type Summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// tally accumulates one workload's reps.
type tally struct {
	w      workload
	ref    stats // Sim of the workload's first successful rep
	report WorkloadReport
	reps   []timedRep // the reps that passed every check
}

// timedRep is a successful rep and where it ran in the run's sequence
// of probes: probes[probe] was taken just before it, probes[probe+1]
// just after.
type timedRep struct {
	res    *repResult
	traced bool
	probe  int
}

func newTally(w workload) *tally {
	return &tally{w: w, report: WorkloadReport{Name: w.name}}
}

// bench runs the protocol: one discarded warm-up round, then timed
// rounds for about seconds, then with trace one traced round.
// A round runs one rep of each workload in turn. One child runs at a
// time, and the probe runs before the first timed child and after each
// one.
func bench(exe string, ws []workload, seed int64, seconds int, trace bool) *Report {
	rep := &Report{Machine: Machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		ProbeRefMS: ms(probeRef),
	}}
	tallies := make([]*tally, len(ws))
	for i, w := range ws {
		rep.Machine.Rotation = append(rep.Machine.Rotation, w.name)
		tallies[i] = newTally(w)
	}
	for _, t := range tallies {
		if res, err := runChild(exe, t.w, seed, false); err == nil {
			t.ref = res.Sim
		}
	}

	p := newProbe()
	probes := []float64{ms(p.time())}
	run := func(t *tally, traced bool) {
		i := len(probes) - 1
		res, err := runChild(exe, t.w, seed, traced)
		probes = append(probes, ms(p.time()))
		t.add(res, err, traced, i)
	}
	// Rounds go on while one more would end nearer to seconds than
	// stopping now, so a run measures for seconds give or take half a
	// round.
	start := clock()
	for elapsed := 0.0; rep.Machine.Rounds == 0 || elapsed+elapsed/float64(2*rep.Machine.Rounds) < float64(seconds); {
		for _, t := range tallies {
			run(t, false)
		}
		rep.Machine.Rounds++
		elapsed = clock().Sub(start).Seconds()
	}
	if trace {
		for _, t := range tallies {
			run(t, true)
		}
	}
	rep.Machine.ProbeMS = median(probes)
	for _, t := range tallies {
		rep.Workloads = append(rep.Workloads, t.finish(probes))
	}
	return rep
}

// runChild runs one rep in a fresh process of this binary.
func runChild(exe string, w workload, seed int64, traced bool) (*repResult, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--child", "--workload", w.name,
		"--seed", strconv.FormatInt(seed, 10), "--trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	var res repResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("child output: %w", err)
	}
	return &res, nil
}

// check validates a rep: it ran, it reproduced the workload's
// reference statistics, and it passes the workload's sanity checks.
func (t *tally) check(res *repResult, err error) bool {
	t.report.Attempted++
	if err == nil && t.ref == nil {
		t.ref = res.Sim
	}
	if err == nil {
		if diff := diffStats(t.ref, res.Sim); diff != "" {
			err = fmt.Errorf("statistics differ from the first rep at this seed: %s", diff)
		} else {
			err = t.w.sane(res.Sim)
		}
	}
	if err != nil {
		t.report.Failed++
		t.report.Failures = append(t.report.Failures, err.Error())
		return false
	}
	return true
}

// add records a rep's outcome.
func (t *tally) add(res *repResult, err error, traced bool, probe int) {
	if t.check(res, err) {
		t.reps = append(t.reps, timedRep{res, traced, probe})
	}
}

// finish aggregates the reps. Each rep's run and set-up times are
// scaled to the probe's reference speed by the median of the probes
// taken within two children of it: local enough to follow the host's
// drift, and robust to one probe caught in a spike. The child already
// scaled its export time by the format probe.
func (t *tally) finish(probes []float64) WorkloadReport {
	r := t.report
	r.Sim = t.ref
	e2e := map[string][]float64{}
	perLayer := map[string][]float64{}
	var tracedRunS []float64
	for _, tr := range t.reps {
		lo, hi := max(0, tr.probe-1), min(len(probes), tr.probe+3)
		speed := ms(probeRef) / median(probes[lo:hi])
		res := tr.res
		if tr.traced {
			tracedRunS = append(tracedRunS, res.RunS*speed)
			for k, v := range res.Trace {
				perLayer[k] = append(perLayer[k], v)
			}
			continue
		}
		e2e["run_s"] = append(e2e["run_s"], res.RunS*speed)
		e2e["setup_s"] = append(e2e["setup_s"], res.SetupS*speed)
		e2e["export_s"] = append(e2e["export_s"], res.ExportS)
		e2e["peak_rss_mb"] = append(e2e["peak_rss_mb"], res.PeakRSSMB)
		for k, v := range res.Host {
			perLayer[k] = append(perLayer[k], v)
		}
	}
	r.EndToEnd = map[string]Summary{}
	for k, vs := range e2e {
		r.EndToEnd[k] = summarize(vs)
	}
	r.PerLayer = stats{}
	for k, vs := range perLayer {
		r.PerLayer[k] = median(vs)
	}
	if len(tracedRunS) > 0 && len(e2e["run_s"]) > 0 {
		r.PerLayer["trace.overhead_frac"] = median(tracedRunS)/median(e2e["run_s"]) - 1
	}
	return r
}

// endToEnd names the end-to-end metrics and their units, in the order
// BENCHMARK.json lists them.
var endToEnd = []struct{ name, unit string }{
	{"run_s", "s"}, {"setup_s", "s"}, {"export_s", "s"}, {"peak_rss_mb", "MB"},
}

// perLayerUnit gives a per-layer metric's unit.
func perLayerUnit(name string) string {
	switch {
	case strings.HasPrefix(name, "self_ms."), strings.HasPrefix(name, "obs.export_ms."):
		return "ms"
	case strings.HasSuffix(name, "_frac"), name == "exploit.yield":
		return "fraction"
	case name == "sim.events_per_s":
		return "1/s"
	case name == "runtime.allocs_per_event":
		return "allocs/event"
	case name == "netsim.ns_per_frame":
		return "ns"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_kbps"):
		return "kbps"
	case strings.HasSuffix(name, "_s"):
		return "s"
	}
	return "count"
}

// result renders the machine-readable last line: end-to-end metrics
// untraced, per-layer metrics traced.
func (r *WorkloadReport) result(trace bool) (string, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	if trace {
		for k, v := range r.Sim {
			metrics[k] = metric{v, perLayerUnit(k)}
		}
		for k, v := range r.PerLayer {
			metrics[k] = metric{v, perLayerUnit(k)}
		}
	} else {
		for _, m := range endToEnd {
			s, ok := r.EndToEnd[m.name]
			if !ok {
				return "", fmt.Errorf("%s: no successful rep to report", r.Name)
			}
			metrics[m.name] = metric{s.Median, m.unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	return string(line), err
}

// print writes the human-readable report: per workload, each
// end-to-end metric's median and quartiles, failures, and the
// simulated statistics, so a speed-only change can be seen to leave
// them identical.
func (r *Report) print(w io.Writer) {
	m := r.Machine
	fmt.Fprintf(w, "machine: nproc=%d GOMAXPROCS=%d %s cpu=%q seed=%d seconds=%d trace=%v rounds=%d rotation=%s probe=%.1fms (ref %.0fms)\n",
		m.NProc, m.GOMAXPROCS, m.GoVersion, m.CPUModel, m.Seed, m.Seconds, m.Trace, m.Rounds,
		strings.Join(m.Rotation, ","), m.ProbeMS, m.ProbeRefMS)
	for _, wr := range r.Workloads {
		fmt.Fprintf(w, "%s: %d reps attempted, %d failed\n", wr.Name, wr.Attempted, wr.Failed)
		for _, f := range wr.Failures {
			fmt.Fprintf(w, "  FAILED: %s\n", f)
		}
		for _, e := range endToEnd {
			if s, ok := wr.EndToEnd[e.name]; ok {
				fmt.Fprintf(w, "  %-12s median %.4f %s  q1 %.4f  q3 %.4f  n=%d\n", e.name, s.Median, e.unit, s.Q1, s.Q3, s.N)
			}
		}
		fmt.Fprintf(w, "  sim: %s\n", formatStats(wr.Sim))
		fmt.Fprintf(w, "  per-layer: %s\n", formatStats(wr.PerLayer))
	}
}

func (r *Report) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// diffStats lists the keys whose values differ between a and b.
func diffStats(a, b stats) string {
	var diffs []string
	for _, k := range unionKeys(a, b) {
		va, oka := a[k]
		vb, okb := b[k]
		if oka != okb || va != vb {
			diffs = append(diffs, fmt.Sprintf("%s %v -> %v", k, va, vb))
		}
	}
	return strings.Join(diffs, ", ")
}

func unionKeys(a, b stats) []string {
	var keys []string
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

func formatStats(s stats) string {
	keys := unionKeys(s, nil)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + strconv.FormatFloat(s[k], 'g', 6, 64)
	}
	return strings.Join(parts, " ")
}

// cpuModel reads the host CPU's model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
