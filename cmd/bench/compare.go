package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// summarize condenses a metric's values over reps.
func summarize(vs []float64) Summary {
	q1, med, q3 := quartiles(vs)
	return Summary{Median: med, Q1: q1, Q3: q3, N: len(vs), Values: vs}
}

func median(vs []float64) float64 {
	_, med, _ := quartiles(vs)
	return med
}

// quartiles computes the three cut points the way Python's
// statistics.quantiles(values, n=4) does with its default exclusive
// method; a single value is all three.
func quartiles(vs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), vs...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// medianSpread estimates the distance between the quartiles that the
// median of N reps would show across repeated runs, as a share of the
// median: for independent, roughly normal rep-to-rep noise it is
// sqrt(pi/2) times the reps' quartile spread over sqrt(N). A drifting
// host makes reps of one run alike, so the true spread between runs
// can be wider.
func (s Summary) medianSpread() float64 {
	return math.Sqrt(math.Pi/2) * ratio(s.Q3-s.Q1, s.Median) / math.Sqrt(float64(s.N))
}

// bound is one end-to-end metric's regression bound from
// BENCHMARK.json: the share of the before median by which it may get
// worse.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) ([]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b.EndToEnd, nil
}

// verdict judges after against before for a metric with bound b.
// worse is the change in the direction b calls worse, as a share of
// the before median.
func verdict(b bound, before, after Summary) (worse float64, v string) {
	worse = ratio(after.Median-before.Median, before.Median)
	if b.Better == "higher" {
		worse = -worse
	}
	lower := func(x, y float64) bool {
		if b.Better == "higher" {
			return x > y
		}
		return x < y
	}
	switch {
	case before.medianSpread() > b.Bound || after.medianSpread() > b.Bound:
		// Too noisy to call, unless every after rep beats every before
		// rep (or loses to it).
		if dominates(after.Values, before.Values, lower) {
			return worse, "better"
		}
		if dominates(before.Values, after.Values, lower) {
			return worse, "worse"
		}
		return worse, "unresolved"
	case worse > b.Bound:
		return worse, "worse"
	case worse < -b.Bound:
		return worse, "better"
	}
	return worse, "unchanged"
}

// dominates reports whether every x in xs is lower than (in the better
// direction) every y in ys.
func dominates(xs, ys []float64, lower func(x, y float64) bool) bool {
	if len(xs) == 0 || len(ys) == 0 {
		return false
	}
	for _, x := range xs {
		for _, y := range ys {
			if !lower(x, y) {
				return false
			}
		}
	}
	return true
}

// compareFiles prints, for each workload in both reports and each
// end-to-end metric, both medians and quartiles, the change and a
// verdict against the metric's bound; then any change in the simulated
// statistics.
func compareFiles(w io.Writer, boundsPath, beforePath, afterPath string) error {
	bounds, err := readBounds(boundsPath)
	if err != nil {
		return err
	}
	before, err := readReport(beforePath)
	if err != nil {
		return err
	}
	after, err := readReport(afterPath)
	if err != nil {
		return err
	}
	for _, r := range []*Report{before, after} {
		m := r.Machine
		fmt.Fprintf(w, "machine: nproc=%d GOMAXPROCS=%d %s cpu=%q seed=%d rounds=%d\n",
			m.NProc, m.GOMAXPROCS, m.GoVersion, m.CPUModel, m.Seed, m.Rounds)
	}
	fmt.Fprintf(w, "%-18s %-12s %-30s %-30s %8s %6s  %s\n",
		"workload", "metric", "before median [q1, q3]", "after median [q1, q3]", "change", "bound", "verdict")
	for _, b := range before.Workloads {
		a, ok := findReport(after, b.Name)
		if !ok {
			fmt.Fprintf(w, "%-18s missing from %s\n", b.Name, afterPath)
			continue
		}
		for _, bd := range bounds {
			sb, okb := b.EndToEnd[bd.Name]
			sa, oka := a.EndToEnd[bd.Name]
			if !okb || !oka {
				fmt.Fprintf(w, "%-18s %-12s not measured in both\n", b.Name, bd.Name)
				continue
			}
			worse, v := verdict(bd, sb, sa)
			fmt.Fprintf(w, "%-18s %-12s %-30s %-30s %+7.1f%% %5.0f%%  %s\n",
				b.Name, bd.Name, formatSummary(sb), formatSummary(sa), 100*worse, 100*bd.Bound, v)
		}
		if b.Failed > 0 || a.Failed > 0 {
			fmt.Fprintf(w, "%-18s failed reps: %d/%d before, %d/%d after\n",
				b.Name, b.Failed, b.Attempted, a.Failed, a.Attempted)
		}
		if diff := diffStats(b.Sim, a.Sim); diff != "" {
			fmt.Fprintf(w, "%-18s SIMULATED STATISTICS CHANGED: %s\n", b.Name, diff)
		} else {
			fmt.Fprintf(w, "%-18s simulated statistics identical\n", b.Name)
		}
	}
	return nil
}

func findReport(r *Report, name string) (WorkloadReport, bool) {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return WorkloadReport{}, false
}

func formatSummary(s Summary) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.Median, s.Q1, s.Q3)
}
