package core

import (
	"net/netip"
	"testing"

	"ddosim/internal/churn"
	"ddosim/internal/netsim"
	"ddosim/internal/sim"
)

// smallConfig trims the paper defaults for fast tests.
func smallConfig(devs int) Config {
	cfg := DefaultConfig(devs)
	cfg.SimDuration = 300 * sim.Second
	cfg.AttackDuration = 30
	cfg.RecruitTimeout = 90 * sim.Second
	return cfg
}

func TestFullKillChain(t *testing.T) {
	// R1 + R2: memory-error exploitation recruits every Dev (100%
	// infection) and the botnet floods TServer.
	cfg := smallConfig(12)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Infected != 12 {
		t.Fatalf("infected = %d/12; R2 expects 100%%\nlog:\n%s", r.Infected, r.Timeline)
	}
	if r.InfectionRate() != 1.0 {
		t.Fatalf("infection rate = %v", r.InfectionRate())
	}
	if r.BotsRegistered != 12 {
		t.Fatalf("bots registered = %d", r.BotsRegistered)
	}
	if r.BotsAtCommand != 12 {
		t.Fatalf("bots at command = %d", r.BotsAtCommand)
	}
	if r.AttackIssuedAt < 0 {
		t.Fatal("attack never issued")
	}
	if r.DReceivedKbps <= 0 {
		t.Fatal("no attack traffic measured")
	}
	if r.DistinctSources != 12 {
		t.Fatalf("distinct attack sources = %d", r.DistinctSources)
	}
	if r.Crashed != 0 {
		t.Fatalf("crashed = %d; stock non-PIE fleet should never crash", r.Crashed)
	}
	// Both exploitation channels must have fired.
	if s.Attacker().DNS.QueriesServed == 0 {
		t.Fatal("malicious DNS server served no queries")
	}
	if s.Attacker().DHCP.MessagesSent == 0 {
		t.Fatal("DHCPv6 exploit script sent nothing")
	}
	if s.Attacker().FileServer.Requests == 0 {
		t.Fatal("file server saw no downloads")
	}
	// Both binaries must be represented among infections.
	hits := r.Timeline.ActorsOf(EventExploitHit)
	if len(hits) != 12 {
		t.Fatalf("exploit-hit actors = %d", len(hits))
	}
	if r.Summary() == "" {
		t.Fatal("empty summary")
	}
}

func TestDReceivedScalesWithDevs(t *testing.T) {
	// Fig. 2's core monotonicity on a small scale.
	run := func(devs int) float64 {
		cfg := smallConfig(devs)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r.DReceivedKbps
	}
	small, large := run(5), run(20)
	if small <= 0 || large <= small {
		t.Fatalf("D_received: 5 devs = %.1f, 20 devs = %.1f; want increase", small, large)
	}
}

func TestChurnOrdering(t *testing.T) {
	// Fig. 2's churn ordering: none > static > dynamic. The effect is
	// an expectation (departure draws can be zero for small fleets),
	// so average over seeds and allow static a hair of noise.
	run := func(mode churn.Mode) float64 {
		sum := 0.0
		for seed := int64(1); seed <= 4; seed++ {
			cfg := smallConfig(30)
			cfg.Seed = seed
			cfg.Churn = mode
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			sum += r.DReceivedKbps
		}
		return sum / 4
	}
	none := run(churn.None)
	static := run(churn.Static)
	dynamic := run(churn.Dynamic)
	if !(none >= static*0.995 && static >= dynamic) {
		t.Fatalf("churn ordering violated: none=%.1f static=%.1f dynamic=%.1f", none, static, dynamic)
	}
	if dynamic >= none {
		t.Fatalf("dynamic churn (%.1f) not below no churn (%.1f)", dynamic, none)
	}
	if none <= 0 {
		t.Fatal("no-churn run produced no traffic")
	}
}

func TestHardenedFleetResists(t *testing.T) {
	// PIE+ASLR rebuilds: exploit attempts crash daemons instead of
	// recruiting them; TServer stays quiet.
	cfg := smallConfig(8)
	cfg.Hardened = true
	cfg.RandomProtections = false // all Devs run W^X + ASLR
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Infected != 0 {
		t.Fatalf("hardened fleet infected = %d", r.Infected)
	}
	if r.Crashed == 0 {
		t.Fatal("no crashes recorded; exploit attempts should fault")
	}
	if r.SinkBytes != 0 {
		t.Fatalf("TServer received %d bytes from a fleet that should not attack", r.SinkBytes)
	}
	if r.BotsAtCommand != 0 {
		t.Fatalf("bots at command = %d", r.BotsAtCommand)
	}
}

func TestDeterministicResults(t *testing.T) {
	run := func() *Results {
		cfg := smallConfig(10)
		cfg.Seed = 99
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.DReceivedKbps != b.DReceivedKbps || a.SinkBytes != b.SinkBytes ||
		a.Infected != b.Infected || a.AttackIssuedAt != b.AttackIssuedAt {
		t.Fatalf("same seed diverged:\n%s\nvs\n%s", a.Summary(), b.Summary())
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	run := func(seed int64) uint64 {
		cfg := smallConfig(10)
		cfg.Seed = seed
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r.SinkBytes
	}
	if run(1) == run(2) {
		t.Fatal("different seeds produced identical attack volume (suspicious)")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.NumDevs = 0 },
		func(c *Config) { c.ConnmanFraction = 1.5 },
		func(c *Config) { c.MinDevRate = 0 },
		func(c *Config) { c.MaxDevRate = c.MinDevRate - 1 },
		func(c *Config) { c.TServerDownlink = 0 },
		func(c *Config) { c.AttackDuration = 0 },
		func(c *Config) { c.SimDuration = 0 },
		func(c *Config) { c.Churn = churn.Mode(42) },
		func(c *Config) { c.SimDuration = 50 * sim.Second }, // too short
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(10)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	cfg := DefaultConfig(10)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestBinaryMix(t *testing.T) {
	cfg := DefaultConfig(10)
	cfg.ConnmanFraction = 0.3
	connmanCount := 0
	for i := 0; i < 10; i++ {
		if cfg.binaryFor(i) == BinaryConnman {
			connmanCount++
		}
	}
	if connmanCount != 3 {
		t.Fatalf("connman devs = %d, want 3", connmanCount)
	}
	cfg.ConnmanFraction = 1
	for i := 0; i < 10; i++ {
		if cfg.binaryFor(i) != BinaryConnman {
			t.Fatal("fraction 1 produced a dnsmasq dev")
		}
	}
}

func TestSingleBinaryFleets(t *testing.T) {
	for _, fraction := range []float64{0, 1} {
		cfg := smallConfig(6)
		cfg.ConnmanFraction = fraction
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if r.Infected != 6 {
			t.Fatalf("fraction %v: infected %d/6", fraction, r.Infected)
		}
	}
}

func TestDevRatesWithinRange(t *testing.T) {
	cfg := smallConfig(20)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range s.Devs() {
		rate := d.Container().Node().DefaultDevice().Rate()
		if rate < cfg.MinDevRate || rate > cfg.MaxDevRate {
			t.Fatalf("dev %s rate %v outside [%v, %v]", d.Name(), rate, cfg.MinDevRate, cfg.MaxDevRate)
		}
	}
}

func TestResourceUsagePopulated(t *testing.T) {
	cfg := smallConfig(10)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Usage.PreAttackMemGB <= 0 || r.Usage.AttackMemGB <= r.Usage.PreAttackMemGB {
		t.Fatalf("usage = %+v", r.Usage)
	}
	if r.Usage.AttackTimeSecs <= float64(cfg.AttackDuration) {
		t.Fatalf("attack time %.1f not inflated past %d", r.Usage.AttackTimeSecs, cfg.AttackDuration)
	}
}

func TestTimelineOrdering(t *testing.T) {
	cfg := smallConfig(6)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	firstHit, ok := r.Timeline.FirstOf(EventExploitHit)
	if !ok {
		t.Fatal("no exploit hits")
	}
	firstBot, ok := r.Timeline.FirstOf(EventBotJoined)
	if !ok {
		t.Fatal("no bot registrations")
	}
	order, ok := r.Timeline.FirstOf(EventAttackOrder)
	if !ok {
		t.Fatal("no attack order")
	}
	flood, ok := r.Timeline.FirstOf(EventFloodStart)
	if !ok {
		t.Fatal("no flood start")
	}
	if !(firstHit.At <= firstBot.At && firstBot.At <= order.At && order.At <= flood.At) {
		t.Fatalf("kill chain out of order: hit=%v bot=%v order=%v flood=%v",
			firstHit.At, firstBot.At, order.At, flood.At)
	}
}

func TestMixedProtectionsStillFullRecruitment(t *testing.T) {
	// §III-B: every Dev enables a random subset of W^X/ASLR, but the
	// ROP chain works against all subsets on non-PIE builds.
	cfg := smallConfig(16)
	cfg.RandomProtections = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Confirm the fleet actually mixes protections.
	seen := map[[2]bool]bool{}
	for _, d := range s.Devs() {
		seen[[2]bool{d.Protections().WX, d.Protections().ASLR}] = true
	}
	if len(seen) < 2 {
		t.Fatalf("protection mix degenerate: %v", seen)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Infected != 16 {
		t.Fatalf("infected = %d/16 despite non-PIE fleet", r.Infected)
	}
}

func TestTServerSaturation(t *testing.T) {
	// With a deliberately narrow TServer downlink the received rate
	// caps at the link rate and drops appear — the Fig. 2 mechanism.
	cfg := smallConfig(20)
	cfg.TServerDownlink = 1 * netsim.Mbps // offered ~6 Mbps
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The sink counts wire bytes, so once the downlink is backlogged
	// each second holds ⌊C/8f⌋ or ⌈C/8f⌉ whole frames of f bytes.
	frame := (&netsim.Packet{
		Proto: netsim.ProtoUDP,
		Dst:   netip.AddrPortFrom(s.TServer().Addr4(), 80),
		Pad:   cfg.PayloadBytes,
	}).Size()
	kbps := func(bytes int64) float64 { return float64(bytes) * 8 / 1000 }
	perSec := int64(cfg.TServerDownlink) / 8 / int64(frame)
	lo, hi := kbps(perSec*int64(frame)), kbps((perSec+1)*int64(frame))
	if len(r.PerSecondKbps) != cfg.AttackDuration {
		t.Fatalf("%d per-second samples, want %d", len(r.PerSecondKbps), cfg.AttackDuration)
	}
	// Seconds 0 and 1 are the bots' jittered ramp.
	for i, got := range r.PerSecondKbps[2:] {
		if got != lo && got != hi {
			t.Fatalf("second %d: %.3f kbps, want %.3f or %.3f (%d or %d frames of %d bytes)",
				i+2, got, lo, hi, perSec, perSec+1, frame)
		}
	}
	capKbps := float64(cfg.TServerDownlink) / 1000
	if limit := capKbps + kbps(int64(frame))/float64(cfg.AttackDuration); r.DReceivedKbps > limit {
		t.Fatalf("D_received %.3f kbps exceeds the %.0f kbps downlink plus one frame per window (%.3f)",
			r.DReceivedKbps, capKbps, limit)
	}
	if r.NetStats.Drops == 0 {
		t.Fatal("no queue drops under saturation")
	}
}
