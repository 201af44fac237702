package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"ddosim/internal/churn"
	"ddosim/internal/obs"
)

// runTraced executes one small seeded run — dynamic churn keeps epoch
// spans and device up/down events in the trace — and returns the
// simulation for observability inspection.
func runTraced(t *testing.T, seed int64) (*Simulation, *Results) {
	t.Helper()
	cfg := smallConfig(10)
	cfg.Seed = seed
	cfg.Churn = churn.Dynamic
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return s, r
}

func TestTraceDeterminism(t *testing.T) {
	// The determinism contract: two runs with the same seed export
	// byte-identical traces and metrics in every format.
	s1, _ := runTraced(t, 42)
	s2, _ := runTraced(t, 42)

	var chrome1, chrome2 bytes.Buffer
	if err := s1.Obs().Trace.WriteChromeTrace(&chrome1); err != nil {
		t.Fatal(err)
	}
	if err := s2.Obs().Trace.WriteChromeTrace(&chrome2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(chrome1.Bytes(), chrome2.Bytes()) {
		t.Error("same-seed runs exported different Chrome trace bytes")
	}

	var jsonl1, jsonl2 bytes.Buffer
	if err := s1.Obs().Trace.WriteJSONL(&jsonl1); err != nil {
		t.Fatal(err)
	}
	if err := s2.Obs().Trace.WriteJSONL(&jsonl2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonl1.Bytes(), jsonl2.Bytes()) {
		t.Error("same-seed runs exported different JSONL bytes")
	}

	var prom1, prom2 bytes.Buffer
	if err := s1.Obs().Metrics.WritePrometheus(&prom1); err != nil {
		t.Fatal(err)
	}
	if err := s2.Obs().Metrics.WritePrometheus(&prom2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(prom1.Bytes(), prom2.Bytes()) {
		t.Error("same-seed runs dumped different metrics bytes")
	}
}

func TestTraceCoversKillChain(t *testing.T) {
	s, r := runTraced(t, 1)
	tr := s.Obs().Trace

	// Phase spans: deploy -> recruitment -> attack, in that order.
	var phases []string
	for _, sp := range tr.Spans() {
		if sp.Cat == obs.CatPhase {
			phases = append(phases, sp.Name)
		}
	}
	want := []string{"deploy", "recruitment", "attack"}
	if len(phases) != len(want) {
		t.Fatalf("phase spans = %v, want %v", phases, want)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("phase spans = %v, want %v", phases, want)
		}
	}

	// No span may be left open, and the attack span must cover the
	// configured window.
	for _, sp := range tr.Spans() {
		if sp.End < sp.Start {
			t.Errorf("span %s/%s ends before it starts", sp.Cat, sp.Name)
		}
	}

	// At least three distinct event categories with traffic.
	cats := 0
	for _, cat := range []string{obs.CatExploit, obs.CatCNC, obs.CatChurn, obs.CatNet} {
		if tr.CountEvents(cat, "") > 0 {
			cats++
		}
	}
	if cats < 3 {
		t.Errorf("only %d event categories populated, want >= 3", cats)
	}

	// Trace events agree with the measured kill chain.
	if got := tr.CountEvents(obs.CatExploit, "exploit-success"); got != r.Infected {
		t.Errorf("exploit-success events = %d, infected = %d", got, r.Infected)
	}
	if got := tr.CountEvents(obs.CatCNC, "attack-command"); got != 1 {
		t.Errorf("attack-command events = %d, want 1", got)
	}
}

func TestSchedulerAccountingMatchesTrace(t *testing.T) {
	// The kernel's per-source counts must account for every event it
	// processed, the summary and the registry gauge must report the
	// same number, and the profiler hook must have seen the run.
	s, r := runTraced(t, 3)
	processed := s.sched.Processed()
	if processed == 0 {
		t.Fatal("run processed no events")
	}
	if r.Obs.EventsDelivered != processed {
		t.Errorf("summary delivered %d events, scheduler processed %d", r.Obs.EventsDelivered, processed)
	}
	if got := s.Obs().Metrics.GaugeValue("sim_events_processed"); uint64(got) != processed {
		t.Errorf("sim_events_processed gauge = %v, scheduler processed %d", got, processed)
	}
	var bySource uint64
	for _, n := range s.sched.EventsBySource() {
		bySource += n
	}
	if bySource != processed {
		t.Errorf("per-source counts sum to %d, want %d", bySource, processed)
	}
	var sampled uint64
	for _, smp := range s.Obs().Prof.Samples() {
		sampled += smp.Events
	}
	if sampled == 0 || sampled > processed {
		t.Errorf("profiler sampled %d events of %d processed", sampled, processed)
	}
}

func TestMetricsAgreeWithResults(t *testing.T) {
	s, r := runTraced(t, 2)
	reg := s.Obs().Metrics
	checks := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"exploit_attempts_total", reg.CounterValue("exploit_attempts_total"), uint64(r.ExploitAttempts)},
		{"exploit_hijacked_total", reg.CounterValue("exploit_hijacked_total"), uint64(r.Hijacked)},
		{"infections_total", reg.CounterValue("infections_total"), uint64(r.Infected)},
		{"exploit_crashes_total", reg.CounterValue("exploit_crashes_total"), uint64(r.Crashed)},
		{"net_queue_drops_total", reg.CounterValue("net_queue_drops_total"), r.NetStats.Drops},
		{"net_tx_frames_total", reg.CounterValue("net_tx_frames_total"), r.NetStats.TxFrames},
		{"net_tx_bytes_total", reg.CounterValue("net_tx_bytes_total"), r.NetStats.TxBytes},
		{"churn_departures_total", reg.CounterValue("churn_departures_total"), r.ChurnDepartures},
		{"churn_rejoins_total", reg.CounterValue("churn_rejoins_total"), r.ChurnRejoins},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, Results says %d", c.name, c.got, c.want)
		}
	}
	if got := reg.GaugeValue("sink_rx_bytes_total"); uint64(got) != r.SinkBytes {
		t.Errorf("sink_rx_bytes_total = %v, Results says %d", got, r.SinkBytes)
	}
	// Queue drops must also appear as individual trace events.
	if drops := s.Obs().Trace.CountEvents(obs.CatNet, "queue-drop"); uint64(drops) != r.NetStats.Drops {
		t.Errorf("queue-drop trace events = %d, NetStats.Drops = %d", drops, r.NetStats.Drops)
	}
}

func TestResultsCarryObsSummary(t *testing.T) {
	s, r := runTraced(t, 5)
	sum := r.Obs
	if sum.TraceSpans == 0 || sum.TraceEvents == 0 {
		t.Errorf("summary empty: %+v", sum)
	}
	if sum.EventsDelivered != s.sched.Processed() {
		t.Errorf("summary delivered %d, scheduler processed %d", sum.EventsDelivered, s.sched.Processed())
	}
	if len(sum.TopSources) == 0 || sum.PeakPending == 0 {
		t.Errorf("summary missing profiler data: %+v", sum)
	}
	// The summary serializes cleanly (report embeds it).
	b, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"events_delivered"`)) {
		t.Errorf("summary JSON missing fields: %s", b)
	}
}
