package core

import (
	"strings"
	"testing"
)

// Defense-configuration tests: the per-device countermeasures the
// paper's discussion invites testing inside the framework.

func TestCanaryFractionPartialRecruitment(t *testing.T) {
	cfg := smallConfig(20)
	cfg.CanaryFraction = 0.5
	cfg.Seed = 5
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.CanaryDevs == 0 || r.CanaryDevs == 20 {
		t.Fatalf("canary devs = %d at fraction 0.5 (degenerate draw)", r.CanaryDevs)
	}
	// Exactly the canary-less share is recruited; canary devices
	// crash on the first exploit attempt instead.
	if r.Infected != 20-r.CanaryDevs {
		t.Fatalf("infected %d, want %d (20 - %d canary devs)\nlog:\n%s",
			r.Infected, 20-r.CanaryDevs, r.CanaryDevs, r.Timeline)
	}
	if r.Crashed < r.CanaryDevs {
		t.Fatalf("crashes = %d, want >= %d", r.Crashed, r.CanaryDevs)
	}
	// Crash log mentions stack smashing on some Dev.
	smashed := false
	for _, d := range s.Devs() {
		for _, line := range d.Container().Logs() {
			if strings.Contains(line, "stack smashing detected") {
				smashed = true
			}
		}
	}
	if !smashed {
		t.Fatal("no stack-smashing abort logged")
	}
}

func TestFullCanaryFleetResists(t *testing.T) {
	cfg := smallConfig(8)
	cfg.CanaryFraction = 1.0
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.CanaryDevs != 8 {
		t.Fatalf("canary devs = %d", r.CanaryDevs)
	}
	if r.Infected != 0 || r.SinkBytes != 0 {
		t.Fatalf("canary fleet infected=%d sink=%d", r.Infected, r.SinkBytes)
	}
}

func TestRemoveCurlBlocksInfectionNotHijack(t *testing.T) {
	// run executes cfg with curl and wget stripped from the Devs and
	// checks that none was recruited: no bot registered, an R2 of 0, no
	// attack traffic, and the failed download in some container's log.
	run := func(cfg Config) *Results {
		t.Helper()
		cfg.RemoveCurl = true
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if r.BotsRegistered != 0 || r.InfectionRate() != 0 {
			t.Fatalf("%v: bots registered = %d, R2 = %v despite missing curl",
				cfg.Vector, r.BotsRegistered, r.InfectionRate())
		}
		if r.SinkBytes != 0 {
			t.Fatalf("%v: attack traffic from bots that could not be downloaded", cfg.Vector)
		}
		for _, d := range s.Devs() {
			for _, line := range d.Container().Logs() {
				if strings.Contains(line, "not found") {
					return r
				}
			}
		}
		t.Fatalf("%v: no 'not found' shell error logged", cfg.Vector)
		return nil
	}

	// The §IV-C insight: without curl the ROP chain still hijacks the
	// daemon (execlp runs), but the infection script cannot download
	// the bot — recruitment fails downstream of exploitation.
	r := run(smallConfig(8))
	if r.Hijacked == 0 {
		t.Fatal("no hijacks; curl removal must not stop the exploit itself")
	}
	if r.Infected != 8 {
		// The hijack executes the shell (counted as Infected at the
		// execlp boundary) ...
		t.Fatalf("shell executions = %d", r.Infected)
	}

	// The credentials vector's loader logs in and pushes the same
	// curl|sh, so stripping curl starves the Mirai baseline too.
	run(credConfig(12))
}

func TestCanaryValidation(t *testing.T) {
	cfg := smallConfig(5)
	cfg.CanaryFraction = -0.1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative CanaryFraction accepted")
	}
	cfg.CanaryFraction = 1.1
	if err := cfg.Validate(); err == nil {
		t.Fatal("CanaryFraction > 1 accepted")
	}
}
