package core

import (
	"bytes"
	"strings"
	"testing"

	"ddosim/internal/churn"
	"ddosim/internal/faults"
)

// TestMetricSetPinned pins which rows each shape of run puts in its
// Prometheus dump, and their types: a faulted mirai run, a P2P run, a
// credentials-vector run and a fault-free mirai run. A row that goes
// missing, appears, or changes type changes the dump's bytes, whoever
// keeps the count behind it.
func TestMetricSetPinned(t *testing.T) {
	churnRows := []string{
		"churn_departures_total counter",
		"churn_rejoins_total counter",
	}
	shell := []string{"container_shell_execs_total counter"}
	cnc := []string{
		"cnc_attack_commands_total counter",
		"cnc_bots_lost_total counter",
		"cnc_registrations_total counter",
	}
	exploit := []string{
		"exploit_attempts_total counter",
		"exploit_crashes_total counter",
		"exploit_dhcpv6_messages_total counter",
		"exploit_dns_responses_total counter",
		"exploit_hijacked_total counter",
	}
	faultRows := []string{
		"faults_cnc_outages_total counter",
		"faults_cnc_takedowns_total counter",
		"faults_degrade_windows_total counter",
		"faults_link_flaps_total counter",
		"faults_loss_bursts_total counter",
		"faults_proc_crashes_total counter",
		"faults_proc_restarts_total counter",
		"faults_sink_outages_total counter",
	}
	tail := []string{
		"infections_per_sec gauge",
		"infections_total counter",
		"net_queue_depth gauge",
		"net_queue_depth_peak gauge",
		"net_queue_drops_total counter",
		"net_tx_bytes_tcp_total counter",
		"net_tx_bytes_total counter",
		"net_tx_bytes_udp_total counter",
		"net_tx_frames_total counter",
		"sim_events_processed gauge",
		"sim_queue_depth gauge",
		"sink_rx_bytes_total gauge",
	}
	join := func(parts ...[]string) []string {
		var out []string
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	cases := []struct {
		name  string
		tweak func(*Config)
		want  []string
	}{
		{"mirai-churn-faults", func(c *Config) {
			c.Churn = churn.Dynamic
			c.Faults = faults.AtIntensity(0.6)
		}, join(churnRows, cnc, shell, exploit, faultRows, tail)},
		{"p2p", func(c *Config) { c.Botnet = BotnetP2P }, join(churnRows, shell, exploit, tail)},
		{"credentials", func(c *Config) { c.Vector = VectorCredentials }, join(churnRows, cnc, shell, tail)},
		{"mirai", func(*Config) {}, join(churnRows, cnc, shell, exploit, tail)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig(8)
			cfg.Seed = 7
			cfg.AttackDuration = 20
			tc.tweak(&cfg)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if r.Infected == 0 {
				t.Fatal("no Dev infected; the run does not exercise the infection rows")
			}
			var dump bytes.Buffer
			if err := s.Obs().Metrics.WritePrometheus(&dump); err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, line := range strings.Split(dump.String(), "\n") {
				if row, ok := strings.CutPrefix(line, "# TYPE "); ok {
					got = append(got, row)
				}
			}
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Errorf("TYPE rows:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
			}
		})
	}
}
