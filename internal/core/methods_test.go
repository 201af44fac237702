package core

import (
	"testing"

	"ddosim/internal/mirai"
	"ddosim/internal/netsim"
)

func TestSYNFloodAttack(t *testing.T) {
	cfg := smallConfig(10)
	cfg.AttackMethod = mirai.MethodSYN
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.DReceivedKbps <= 0 {
		t.Fatal("no SYN flood traffic measured")
	}
	if r.DistinctSources != 10 {
		t.Fatalf("distinct sources = %d", r.DistinctSources)
	}
	if got := s.Sink().BytesByProto(netsim.ProtoTCP); got == 0 {
		t.Fatal("no TCP bytes at sink")
	}
	if got := s.Sink().BytesByProto(netsim.ProtoUDP); got != 0 {
		t.Fatalf("unexpected UDP bytes %d during SYN flood", got)
	}
	// Bots pace at line rate, so the byte rate tracks the summed
	// uplink rates (~10 x 300 kbps) regardless of frame size; the
	// packet rate, though, is ~10x UDP-PLAIN's (54-byte frames).
	if r.DReceivedKbps > 4500 {
		t.Fatalf("SYN flood rate %.1f kbps exceeds the fleet's uplinks", r.DReceivedKbps)
	}
	if s.Sink().RxPackets() < 100_000 {
		t.Fatalf("SYN flood packet count %d implausibly low", s.Sink().RxPackets())
	}
}

func TestACKFloodAttack(t *testing.T) {
	cfg := smallConfig(8)
	cfg.AttackMethod = mirai.MethodACK
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.DReceivedKbps <= 0 || s.Sink().BytesByProto(netsim.ProtoTCP) == 0 {
		t.Fatal("no ACK flood traffic")
	}
}

func TestAttackOverIPv6(t *testing.T) {
	cfg := smallConfig(10)
	cfg.AttackOverIPv6 = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.DReceivedKbps <= 0 {
		t.Fatal("no IPv6 flood traffic")
	}
	if r.DistinctSources != 10 {
		t.Fatalf("distinct sources = %d", r.DistinctSources)
	}
	// All attack sources must be IPv6: every Dev floods from its IPv6
	// address and none from its IPv4 one.
	for _, d := range s.Devs() {
		node := d.Container().Node()
		if got := s.Sink().BytesFrom(node.Addr4()); got != 0 {
			t.Errorf("%s: IPv4 traffic (%d bytes) during an IPv6 attack", d.Name(), got)
		}
		if s.Sink().BytesFrom(node.Addr6()) == 0 {
			t.Errorf("%s: IPv6 address sent nothing", d.Name())
		}
	}
}

func TestV4AndV6RatesComparable(t *testing.T) {
	// The same fleet floods at line rate in both families; the v6
	// run carries more header overhead per frame but similar wire
	// volume.
	run := func(v6 bool) float64 {
		cfg := smallConfig(10)
		cfg.AttackOverIPv6 = v6
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
	v4, v6 := run(false), run(true)
	ratio := v6 / v4
	if ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("v6/v4 rate ratio = %.2f (v4=%.1f v6=%.1f)", ratio, v4, v6)
	}
}

func TestBadAttackMethodRejected(t *testing.T) {
	cfg := smallConfig(5)
	cfg.AttackMethod = "greip"
	if err := cfg.Validate(); err == nil {
		t.Fatal("unimplemented method accepted")
	}
	cfg.AttackMethod = ""
	if err := cfg.Validate(); err != nil {
		t.Fatalf("empty method (default) rejected: %v", err)
	}
}
