package obs

import "sort"

// PhaseStat summarizes the latency distribution of one named phase
// across all spans that recorded it — e.g. kill-chain stages (scan,
// exploit, load, recruit, register, attack) or fault windows
// (link-flap, cnc-outage).
type PhaseStat struct {
	Phase     string  `json:"phase"`
	Count     int     `json:"count"`
	MinSecs   float64 `json:"min_s"`
	MeanSecs  float64 `json:"mean_s"`
	MaxSecs   float64 `json:"max_s"`
	TotalSecs float64 `json:"total_s"`
}

// SummarizePhases aggregates closed spans whose category is in cats
// into per-phase latency summaries keyed by span name, sorted by phase
// name for deterministic serialization. Open spans (End < Start after
// CloseOpenSpans clamping they never are, but guard anyway) count with
// zero duration floor.
func SummarizePhases(spans []Span, cats ...string) []PhaseStat {
	want := make(map[string]bool, len(cats))
	for _, c := range cats {
		want[c] = true
	}
	byName := make(map[string]*PhaseStat)
	for i := range spans {
		sp := &spans[i]
		if !want[sp.Cat] {
			continue
		}
		d := (sp.End - sp.Start).Seconds()
		if d < 0 {
			d = 0
		}
		st := byName[sp.Name]
		if st == nil {
			st = &PhaseStat{Phase: sp.Name, MinSecs: d, MaxSecs: d}
			byName[sp.Name] = st
		}
		st.Count++
		st.TotalSecs += d
		if d < st.MinSecs {
			st.MinSecs = d
		}
		if d > st.MaxSecs {
			st.MaxSecs = d
		}
	}
	out := make([]PhaseStat, 0, len(byName))
	for _, st := range byName { //simlint:allow maporder(collect-then-sort: phases are sorted by name before return)
		st.MeanSecs = st.TotalSecs / float64(st.Count)
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Phase < out[j].Phase })
	return out
}
