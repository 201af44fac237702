package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"ddosim/internal/churn"
	"ddosim/internal/faults"
	"ddosim/internal/obs"
	"ddosim/internal/sim"
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
	// byte-identical traces and metrics.
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

	// Kill-chain spans and trace events agree with the measured kill
	// chain.
	recruits := 0
	for _, sp := range tr.Spans() {
		if sp.Cat == obs.CatKillChain && sp.Name == "recruit" {
			recruits++
		}
	}
	if recruits != r.Infected {
		t.Errorf("recruit spans = %d, infected = %d", recruits, r.Infected)
	}
	if got := tr.CountEvents(obs.CatCNC, "attack-command"); got != 1 {
		t.Errorf("attack-command events = %d, want 1", got)
	}
}

func TestSchedulerAccountingMatchesTrace(t *testing.T) {
	// The kernel's per-source counts must account for every event it
	// processed, and the summary and the registry gauge must report the
	// same number.
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
}

// TestEveryEventLabelled pins that every event a run delivers counts
// under a named source: the kernel's count for the zero Source stays
// 0 under both recruitment vectors, under command waves with churn and
// faults, and for the P2P family under faults.
func TestEveryEventLabelled(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tweak func(*Config)
	}{
		{"memory-error", func(*Config) {}},
		{"credentials", func(c *Config) { c.Vector, c.ScanPeriod = VectorCredentials, sim.Second }},
		{"command waves, churn, faults", func(c *Config) {
			c.CommandWave, c.Churn, c.Faults = 5*sim.Second, churn.Dynamic, faults.AtIntensity(0.6)
		}},
		{"p2p faults", func(c *Config) {
			c.Botnet, c.P2PPollPeriod, c.Faults = BotnetP2P, 10*sim.Second, faults.AtIntensity(0.5)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig(10)
			cfg.Seed = 7
			tc.tweak(&cfg)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if r.BotsRegistered == 0 {
				t.Fatal("no bot registered; the scenario leaves the attack unchecked")
			}
			if n := s.Sched().EventsBySource()[0]; n != 0 {
				t.Errorf("%d of %d events carry no source", n, s.Sched().Processed())
			}
		})
	}
}

func TestMetricsAgreeWithResults(t *testing.T) {
	s, r := runTraced(t, 2)
	checkMetricsAgree(t, s, r)
	checkCNCRows(t, s, r)

	// A faulted run with C&C crashes: every faults_* row equals the
	// injector's count, and the cnc_* rows span the C&C's re-execs.
	cfg := smallConfig(10)
	cfg.Seed = 2
	cfg.Churn = churn.Dynamic
	cfg.Faults = faults.AtIntensity(0.6)
	cfg.Faults.CNCCrashPeriod = 60 * sim.Second
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r, err = s.Run(); err != nil {
		t.Fatal(err)
	}
	f := r.Faults
	if f == nil || f.LinkFlaps == 0 || f.LossBursts == 0 || f.ProcCrashes == 0 || f.CNCCrashes == 0 {
		t.Fatalf("faulted run injected too little to check: %+v", f)
	}
	checkMetricsAgree(t, s, r)
	reg := s.Obs().Metrics
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"faults_link_flaps_total", f.LinkFlaps},
		{"faults_loss_bursts_total", f.LossBursts},
		{"faults_degrade_windows_total", f.DegradeWindows},
		{"faults_proc_crashes_total", f.ProcCrashes + f.CNCCrashes},
		{"faults_proc_restarts_total", f.ProcRestarts},
		{"faults_cnc_outages_total", f.CNCOutages},
		{"faults_cnc_takedowns_total", f.CNCTakedowns},
		{"faults_sink_outages_total", f.SinkOutages},
	} {
		if got := reg.CounterValue(c.name); got != c.want {
			t.Errorf("faulted run: %s = %d, the injector counted %d", c.name, got, c.want)
		}
	}
	checkCNCRows(t, s, r)

	// Command waves: every wave is one more attack command.
	cfg = smallConfig(10)
	cfg.Seed = 2
	cfg.Churn = churn.Dynamic
	cfg.CommandWave = 5 * sim.Second
	if s, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	if r, err = s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.CNC().AttacksIssued < 2 {
		t.Fatalf("wave run issued %d commands; the scenario no longer re-commands", s.CNC().AttacksIssued)
	}
	checkMetricsAgree(t, s, r)
	checkCNCRows(t, s, r)
}

// checkCNCRows compares the cnc_* rows with the facts behind them,
// which span every C&C instance a run executes: registrations and
// losses with the timeline's entries, commands with the C&C's trace
// events.
func checkCNCRows(t *testing.T, s *Simulation, r *Results) {
	t.Helper()
	reg := s.Obs().Metrics
	for _, c := range []struct {
		name string
		want int
	}{
		{"cnc_registrations_total", r.Timeline.Count(EventBotJoined)},
		{"cnc_bots_lost_total", r.Timeline.Count(EventBotLost)},
		{"cnc_attack_commands_total", s.Obs().Trace.CountEvents(obs.CatCNC, "attack-command")},
	} {
		if got := reg.CounterValue(c.name); got != uint64(c.want) {
			t.Errorf("%s = %d, the run recorded %d", c.name, got, c.want)
		}
	}
}

// TestCommandWavesStopAtTakedown: a C&C that a takedown killed sends
// no further wave. Every attack command precedes the takedown, and
// cnc_attack_commands_total counts exactly the commands traced.
func TestCommandWavesStopAtTakedown(t *testing.T) {
	cfg := smallConfig(12)
	cfg.Seed = 7
	cfg.AttackDuration = 60
	cfg.CommandWave = 10 * sim.Second
	cfg.Faults = faults.Config{CNCTakedownAfterOrder: 20 * sim.Second}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	takedown := sim.Time(-1)
	var orders []sim.Time
	for _, e := range s.Obs().Trace.Events() {
		switch {
		case e.Cat == faults.CatFault && e.Name == faults.EventCNCTakedown:
			takedown = e.At
		case e.Cat == obs.CatCNC && e.Name == "attack-command":
			orders = append(orders, e.At)
		}
	}
	if takedown < 0 || len(orders) == 0 {
		t.Fatalf("takedown at %v, %d attack commands; want both", takedown, len(orders))
	}
	for _, at := range orders {
		if at >= takedown {
			t.Errorf("attack command at %v, at or after the takedown at %v", at, takedown)
		}
	}
	if got := s.Obs().Metrics.CounterValue("cnc_attack_commands_total"); got != uint64(len(orders)) {
		t.Errorf("cnc_attack_commands_total = %d, the trace holds %d attack commands", got, len(orders))
	}
}

// checkMetricsAgree compares each registry row of a finished run with
// the count it mirrors.
func checkMetricsAgree(t *testing.T, s *Simulation, r *Results) {
	t.Helper()
	reg := s.Obs().Metrics
	shell := uint64(s.Engine().Stats().ShellExecs)
	if shell == 0 || s.Attacker().DNS.QueriesServed == 0 || s.Attacker().DHCP.MessagesSent == 0 {
		t.Fatalf("run ran no shell (%d), served no DNS exploit or sent no DHCPv6 exploit", shell)
	}
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
		{"container_shell_execs_total", reg.CounterValue("container_shell_execs_total"), shell},
		{"exploit_dns_responses_total", reg.CounterValue("exploit_dns_responses_total"), s.Attacker().DNS.QueriesServed},
		{"exploit_dhcpv6_messages_total", reg.CounterValue("exploit_dhcpv6_messages_total"), s.Attacker().DHCP.MessagesSent},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, the run counted %d", c.name, c.got, c.want)
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
		t.Errorf("summary missing kernel data: %+v", sum)
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
