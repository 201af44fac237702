package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"ddosim/internal/sim"
)

func TestSummarizePhases(t *testing.T) {
	tr := NewTracer()
	tr.RecordSpan(0, 2*sim.Second, CatKillChain, "exploit")
	tr.RecordSpan(0, 4*sim.Second, CatKillChain, "exploit")
	tr.RecordSpan(1*sim.Second, 2*sim.Second, CatKillChain, "load")
	tr.RecordSpan(0, 10*sim.Second, "fault", "cnc-outage")
	// Different category, must be excluded.
	id := tr.BeginSpan(0, CatPhase, "recruitment")
	tr.EndSpan(id, 30*sim.Second)

	stats := SummarizePhases(tr.Spans(), CatKillChain, "fault")
	if len(stats) != 3 {
		t.Fatalf("got %d phases: %+v", len(stats), stats)
	}
	// Sorted by phase name: cnc-outage, exploit, load.
	if stats[0].Phase != "cnc-outage" || stats[1].Phase != "exploit" || stats[2].Phase != "load" {
		t.Fatalf("order: %+v", stats)
	}
	ex := stats[1]
	if ex.Count != 2 || ex.MinSecs != 2 || ex.MaxSecs != 4 || ex.MeanSecs != 3 || ex.TotalSecs != 6 {
		t.Fatalf("exploit stat %+v", ex)
	}
}

func TestSummarizePhasesEmpty(t *testing.T) {
	if got := SummarizePhases(nil, CatKillChain); len(got) != 0 {
		t.Fatalf("want empty, got %+v", got)
	}
}

func TestRecordSpanClampsAndSequences(t *testing.T) {
	tr := NewTracer()
	tr.Event(1*sim.Second, CatNet, "before")
	tr.RecordSpan(5*sim.Second, 3*sim.Second, CatKillChain, "weird") // end < start
	sp := tr.Spans()
	if len(sp) != 1 {
		t.Fatalf("spans %d", len(sp))
	}
	if sp[0].End != sp[0].Start {
		t.Fatalf("end not clamped: %+v", sp[0])
	}
	// Recorded after the event, so it must be exported after it.
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var types []string
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		var rec struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		types = append(types, rec.Type)
	}
	if got := strings.Join(types, ","); got != "event,span" {
		t.Fatalf("export order %s, want event,span:\n%s", got, buf.String())
	}
}
