package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"

	"ddosim/ddosim"
)

// small shrinks a workload to a few devices and a short horizon,
// keeping its departures from the default config.
func small(w workload) workload {
	w.devs = 8
	w.recruit = 20 * ddosim.Second
	w.attack = 60
	w.horizon = 90 * ddosim.Second
	w.check = nil // the workload's own checks hold only at full scale
	return w
}

// TestRepPath runs every workload's child path at small scale: the
// result carries every field, two reps at one seed agree, and the
// traced rep's per-source spans cover Run's wall time.
func TestRepPath(t *testing.T) {
	for _, w := range workloads {
		w := small(w)
		t.Run(w.name, func(t *testing.T) {
			a, err := runRep(w, 7, false)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runRep(w, 7, true)
			if err != nil {
				t.Fatal(err)
			}
			if a.RunS <= 0 || a.SetupS <= 0 || a.ExportS <= 0 {
				t.Errorf("timings run=%v setup=%v export=%v, want all > 0", a.RunS, a.SetupS, a.ExportS)
			}
			if diff := diffStats(a.Sim, b.Sim); diff != "" {
				t.Errorf("same seed, different statistics: %s", diff)
			}
			if err := w.sane(a.Sim); err != nil {
				t.Error(err)
			}
			if a.Trace != nil {
				t.Error("untraced rep reported a trace split")
			}
			var events float64
			for i := range spanLabels {
				events += b.Trace["events."+spanName(i)]
			}
			events += b.Trace["events.other"]
			if events != b.Sim["sim.events"] {
				t.Errorf("traced rep saw %v events, kernel ran %v", events, b.Sim["sim.events"])
			}
			if f := b.Trace["trace.self_sum_frac"]; f < 0.95 || f > 1 {
				t.Errorf("trace.self_sum_frac = %v, want in [0.95, 1]", f)
			}
		})
	}
}

// TestMetricsMatchBenchmarkJSON pins the metric names and units the
// result line reports to the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	w := small(workloads[0])
	res, err := runRep(w, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	tl := newTally(w)
	tl.add(res, nil, false, 0)
	tl.add(res, nil, true, 1)
	rep := tl.finish([]float64{80, 80, 80})
	for _, c := range []struct {
		trace bool
		want  []decl
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		line, err := rep.result(c.trace)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Metrics map[string]struct{ Unit string } `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatal(err)
		}
		var have []decl
		for k, m := range got.Metrics {
			have = append(have, decl{k, m.Unit})
		}
		want := append([]decl(nil), c.want...)
		for _, ds := range [][]decl{have, want} {
			sort.Slice(ds, func(i, j int) bool { return ds[i].Name < ds[j].Name })
		}
		if len(have) != len(want) {
			t.Fatalf("trace=%v: reported %d metrics, BENCHMARK.json declares %d:\n%v\n%v", c.trace, len(have), len(want), have, want)
		}
		for i := range have {
			if have[i] != want[i] {
				t.Errorf("trace=%v: reported %v, BENCHMARK.json declares %v", c.trace, have[i], want[i])
			}
		}
	}
}

// TestTallyFailures checks that a rep whose statistics differ from the
// first rep, or that fails its workload's sanity check, counts as
// failed and contributes no timings.
func TestTallyFailures(t *testing.T) {
	w, _ := findWorkload("flood-uncongested")
	tl := newTally(w)
	good := stats{"core.attack_issued_s": 10, "exploit.infected": 60, "netsim.drops": 0}
	tl.add(&repResult{RunS: 1, Sim: good}, nil, false, 0)
	tl.add(&repResult{RunS: 1, Sim: stats{"core.attack_issued_s": 10, "exploit.infected": 59, "netsim.drops": 0}}, nil, false, 1)
	tl.ref = stats{"core.attack_issued_s": 10, "exploit.infected": 60, "netsim.drops": 3}
	tl.add(&repResult{RunS: 1, Sim: tl.ref}, nil, false, 2)
	if tl.report.Attempted != 3 || tl.report.Failed != 2 || len(tl.reps) != 1 {
		t.Errorf("attempted %d failed %d timed %d, want 3, 2, 1: %v",
			tl.report.Attempted, tl.report.Failed, len(tl.reps), tl.report.Failures)
	}
}

// TestQuartiles matches Python's statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{4, 1, 3}, [3]float64{1, 3, 4}},
		{[]float64{5}, [3]float64{5, 5, 5}},
	} {
		q1, med, q3 := quartiles(c.in)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	b := bound{Name: "run_s", Better: "lower", Bound: 0.1}
	steady := func(m float64) Summary {
		return summarize([]float64{m * 0.99, m, m, m * 1.01})
	}
	for _, c := range []struct {
		before, after Summary
		want          string
	}{
		{steady(1), steady(1.05), "unchanged"},
		{steady(1), steady(1.2), "worse"},
		{steady(1), steady(0.8), "better"},
		{steady(1), summarize([]float64{0.4, 1, 1.3, 1.9}), "unresolved"},
		{summarize([]float64{1, 1.5, 2.5, 3.5}), summarize([]float64{0.2, 0.3, 0.5, 0.9}), "better"},
	} {
		worse, v := verdict(b, c.before, c.after)
		if v != c.want || math.IsNaN(worse) {
			t.Errorf("verdict(%v, %v) = %v (%+.3f), want %s", c.before.Values, c.after.Values, v, worse, c.want)
		}
	}
}
