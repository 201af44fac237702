package core

import (
	"testing"

	"ddosim/internal/sim"
)

// credConfig is a credentials-vector configuration sized for tests:
// recruitment through telnet scanning needs more wall-clock than the
// memory-error vector.
func credConfig(devs int) Config {
	cfg := DefaultConfig(devs)
	cfg.Vector = VectorCredentials
	cfg.SimDuration = 600 * sim.Second
	cfg.AttackDuration = 30
	cfg.RecruitTimeout = 400 * sim.Second
	cfg.ScanPeriod = sim.Second
	return cfg
}

func TestCredentialVectorEndToEnd(t *testing.T) {
	// The Mirai baseline: seed one victim, let bots self-propagate
	// through telnet dictionary attacks, then flood.
	cfg := credConfig(12)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.WeakCredDevs != 12 {
		t.Fatalf("weak-cred devs = %d/12 at fraction 1.0", r.WeakCredDevs)
	}
	if r.Infected != 12 {
		t.Fatalf("infected = %d/12\nlog:\n%s", r.Infected, r.Timeline)
	}
	if r.BotsRegistered != 12 {
		t.Fatalf("bots registered = %d", r.BotsRegistered)
	}
	if r.DReceivedKbps <= 0 {
		t.Fatal("no attack traffic")
	}
	// Infections arrive through the loader, not the exploit path.
	if r.Timeline.Count(EventLoaded) != 12 {
		t.Fatalf("bot-loaded events = %d", r.Timeline.Count(EventLoaded))
	}
	if r.ExploitAttempts != 0 {
		t.Fatalf("exploit attempts = %d under credentials vector", r.ExploitAttempts)
	}
	if s.Loader() == nil || s.Loader().Loads != 12 {
		t.Fatalf("loader loads = %+v", s.Loader())
	}
	// No memory-error infrastructure ran.
	if s.Attacker().DNS != nil || s.Attacker().DHCP != nil {
		t.Fatal("exploit scripts started despite credentials vector")
	}
}

func TestCredentialVectorSelfPropagates(t *testing.T) {
	// Bot-driven spread: with one seeded victim, later infections
	// must be reported by *bots*, which means more than seedCount
	// loads despite the seed scanner stopping.
	cfg := credConfig(10)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Infected < 5 {
		t.Fatalf("spread stalled: %d infected", r.Infected)
	}
	// Infection timestamps must be spread out (epidemic growth), not
	// one burst: first and last infections well apart.
	curve := r.InfectionCurve()
	first, last := curve.Times[0], curve.Times[len(curve.Times)-1]
	if last-first < 2 {
		t.Fatalf("all infections in one burst: %vs .. %vs", first, last)
	}
}

func TestStrongCredentialsResistDictionary(t *testing.T) {
	// The legislation scenario the paper cites: vendors ship strong
	// credentials, and the dictionary vector collapses — while the
	// memory-error vector (other tests) is unaffected by credential
	// hygiene. R1's motivation, operationalized.
	cfg := credConfig(10)
	cfg.WeakCredFraction = 0
	cfg.RecruitTimeout = 200 * sim.Second
	cfg.SimDuration = 400 * sim.Second
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.WeakCredDevs != 0 {
		t.Fatalf("weak devs = %d at fraction 0", r.WeakCredDevs)
	}
	if r.Infected != 0 {
		t.Fatalf("infected = %d with strong credentials everywhere", r.Infected)
	}
	if r.SinkBytes != 0 {
		t.Fatal("TServer attacked by an unrecruitable fleet")
	}
}

func TestPartialWeakCredFraction(t *testing.T) {
	// Only the weak-credential share of the fleet is recruitable.
	cfg := credConfig(16)
	cfg.WeakCredFraction = 0.5
	cfg.Seed = 3
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.WeakCredDevs == 0 || r.WeakCredDevs == 16 {
		t.Fatalf("weak devs = %d at fraction 0.5 (degenerate draw)", r.WeakCredDevs)
	}
	if r.Infected != r.WeakCredDevs {
		t.Fatalf("infected %d != weak-cred population %d", r.Infected, r.WeakCredDevs)
	}
}

func TestCredentialConfigValidation(t *testing.T) {
	cfg := credConfig(250)
	if err := cfg.Validate(); err == nil {
		t.Fatal("251+ devs accepted under credentials vector")
	}
	cfg = credConfig(10)
	cfg.WeakCredFraction = 1.5
	if err := cfg.Validate(); err == nil {
		t.Fatal("bad WeakCredFraction accepted")
	}
	cfg = credConfig(10)
	cfg.Vector = RecruitVector(9)
	if err := cfg.Validate(); err == nil {
		t.Fatal("bad vector accepted")
	}
	if VectorMemoryError.String() == "" || VectorCredentials.String() == "" || RecruitVector(9).String() == "" {
		t.Fatal("empty vector names")
	}
}
