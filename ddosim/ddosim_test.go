package ddosim_test

import (
	"testing"

	"ddosim/ddosim"
)

func smallConfig(devs int) ddosim.Config {
	cfg := ddosim.DefaultConfig(devs)
	cfg.SimDuration = 300 * ddosim.Second
	cfg.AttackDuration = 30
	cfg.RecruitTimeout = 90 * ddosim.Second
	return cfg
}

func TestRunFacade(t *testing.T) {
	r, err := ddosim.Run(smallConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if r.Infected != 8 || r.InfectionRate() != 1.0 {
		t.Fatalf("infected = %d", r.Infected)
	}
	if r.DReceivedKbps <= 0 {
		t.Fatal("no measured attack traffic")
	}
}

func TestNewExposesComponents(t *testing.T) {
	s, err := ddosim.New(smallConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if s.CNC() == nil || s.Sink() == nil || s.TServer() == nil || s.Attacker() == nil {
		t.Fatal("missing component accessors")
	}
	if got := len(s.Devs()); got != 4 {
		t.Fatalf("devs = %d", got)
	}
	if s.Sched() == nil || s.Network() == nil || s.Engine() == nil {
		t.Fatal("missing infrastructure accessors")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := smallConfig(0)
	if _, err := ddosim.Run(cfg); err == nil {
		t.Fatal("zero devs accepted")
	}
}

func TestParseChurnMode(t *testing.T) {
	m, err := ddosim.ParseChurnMode("dynamic")
	if err != nil || m != ddosim.ChurnDynamic {
		t.Fatalf("got %v, %v", m, err)
	}
	if _, err := ddosim.ParseChurnMode("bogus"); err == nil {
		t.Fatal("bogus mode accepted")
	}
}

func TestChurnModesRunnable(t *testing.T) {
	for _, mode := range []ddosim.ChurnMode{
		ddosim.ChurnNone, ddosim.ChurnStatic, ddosim.ChurnDynamic, ddosim.ChurnSessions,
	} {
		cfg := smallConfig(6)
		cfg.Churn = mode
		if _, err := ddosim.Run(cfg); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
	}
}
