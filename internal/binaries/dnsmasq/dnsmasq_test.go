package dnsmasq

import (
	"net/netip"
	"testing"

	imagecat "ddosim/internal/binaries/image"
	"ddosim/internal/container"
	"ddosim/internal/dhcpv6"
	"ddosim/internal/exploit"
	"ddosim/internal/netsim"
	"ddosim/internal/procvm"
	"ddosim/internal/sim"
)

type rig struct {
	sched  *sim.Scheduler
	star   *netsim.Star
	engine *container.Engine
}

func newRig(t testing.TB) *rig {
	t.Helper()
	sched := sim.NewScheduler(19)
	w := netsim.New(sched)
	star := netsim.NewStar(w)
	return &rig{sched: sched, star: star, engine: container.NewEngine(sched, star)}
}

func (r *rig) devContainer(t *testing.T, name string) *container.Container {
	t.Helper()
	img := &container.Image{
		Name: "ddosim/dt-" + name, Tag: "t", Arch: "x86_64",
		Files:     map[string][]byte{"/usr/sbin/dnsmasq": container.BinaryContent(imagecat.BinDnsmasq, "x86_64")},
		ExecPaths: map[string]bool{"/usr/sbin/dnsmasq": true},
	}
	r.engine.RegisterImage(img)
	c, err := r.engine.Create(img.Ref(), name, container.LinkConfig{
		Rate: 300 * netsim.Kbps, Delay: sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	return c
}

func multicastDst() netip.AddrPort {
	return netip.AddrPortFrom(dhcpv6.AllRelayAgentsAndServers, dhcpv6.ServerPort)
}

func TestJoinsMulticastAndCountsRelayForw(t *testing.T) {
	r := newRig(t)
	c := r.devContainer(t, "dev")
	d := New(Config{Protections: procvm.Protections{WX: true}})
	c.Spawn(d)
	if !c.Node().HasAddr(c.Node().Addr6()) {
		t.Fatal("no v6 addr")
	}

	sender := r.star.AttachHost("sender", 10*netsim.Mbps, sim.Millisecond, 0)
	sock, err := sender.BindUDP(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A benign SOLICIT and a relay-forw without the relay-msg option:
	// both must be harmless.
	sock.SendTo(multicastDst(), []byte{dhcpv6.TypeSolicit, 0, 0, 1})
	empty := &dhcpv6.RelayForw{LinkAddr: sender.Addr6(), PeerAddr: sender.Addr6()}
	sock.SendTo(multicastDst(), empty.Encode())
	if err := r.sched.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if d.BenignSeen != 1 {
		t.Fatalf("benign datagrams = %d", d.BenignSeen)
	}
	if d.RelayForwSeen != 1 {
		t.Fatalf("relay-forw seen = %d", d.RelayForwSeen)
	}
	if d.Proc() == nil || !d.Proc().Alive() {
		t.Fatal("daemon died on benign traffic")
	}
}

func TestExploitViaMulticast(t *testing.T) {
	r := newRig(t)
	c := r.devContainer(t, "dev")
	var out procvm.HijackOutcome
	d := New(Config{
		Protections: procvm.Protections{WX: true, ASLR: true},
		OnOutcome:   func(o procvm.HijackOutcome) { out = o },
	})
	c.Spawn(d)

	sender := r.star.AttachHost("sender", 10*netsim.Mbps, sim.Millisecond, 0)
	sock, err := sender.BindUDP(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := exploit.ForBinary(imagecat.BinDnsmasq, "http://10.9.9.9/x")
	if err != nil {
		t.Fatal(err)
	}
	msg := dhcpv6.NewRelayForw(sender.Addr6(), sender.Addr6(), chain)
	sock.SendTo(multicastDst(), msg.Encode())
	if err := r.sched.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if !out.Hijacked || out.ExecutedShell == "" {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestLeaveMulticastOnKill(t *testing.T) {
	r := newRig(t)
	c := r.devContainer(t, "dev")
	d := New(Config{})
	p := c.Spawn(d)
	group := dhcpv6.AllRelayAgentsAndServers

	c.Kill(p.PID())
	// After the kill, further multicast must not be parsed.
	sender := r.star.AttachHost("sender", 10*netsim.Mbps, sim.Millisecond, 0)
	sock, err := sender.BindUDP(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	sock.SendTo(multicastDst(), []byte{dhcpv6.TypeSolicit})
	if err := r.sched.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if d.BenignSeen != 0 {
		t.Fatal("dead daemon parsed traffic")
	}
	_ = group
}

func TestTruncatedRelayForwIgnored(t *testing.T) {
	r := newRig(t)
	c := r.devContainer(t, "dev")
	var outcomes int
	d := New(Config{OnOutcome: func(procvm.HijackOutcome) { outcomes++ }})
	c.Spawn(d)
	sender := r.star.AttachHost("sender", 10*netsim.Mbps, sim.Millisecond, 0)
	sock, err := sender.BindUDP(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	sock.SendTo(multicastDst(), []byte{dhcpv6.TypeRelayForw, 0, 1}) // truncated
	sock.SendTo(multicastDst(), nil)                                // empty
	if err := r.sched.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if outcomes != 0 {
		t.Fatalf("truncated messages parsed %d times", outcomes)
	}
	if !d.Proc().Alive() {
		t.Fatal("daemon died on truncated input")
	}
}

// FuzzDnsmasqRelayForw feeds arbitrary bytes to a fresh daemon's
// DHCPv6 handler. The first argument picks the Dev's W^X/ASLR/canary
// set. Hostile bytes may crash the simulated daemon; they must never
// panic the Go process.
func FuzzDnsmasqRelayForw(f *testing.F) {
	chain, err := exploit.BuildROPChain(imagecat.Dnsmasq(), imagecat.DnsmasqBufSize,
		exploit.InfectionCommand("http://10.9.9.9/x"))
	if err != nil {
		f.Fatal(err)
	}
	link := netip.MustParseAddr("2001:db8::1")
	for prot := byte(0); prot < 8; prot++ {
		f.Add(prot, dhcpv6.NewRelayForw(link, link, chain).Encode())
	}
	benign := dhcpv6.NewRelayForw(link, link, []byte{dhcpv6.TypeSolicit, 0, 0, 1}).Encode()
	f.Add(byte(0), benign)
	f.Add(byte(0), []byte{dhcpv6.TypeSolicit, 0, 0, 1})
	f.Add(byte(0), benign[:33]) // truncated header
	over := append([]byte(nil), benign...)
	over[36], over[37] = 0xff, 0xff // relay-msg option longer than the message
	f.Add(byte(0), over)
	f.Fuzz(func(t *testing.T, prot byte, data []byte) {
		r := newRig(t)
		c := r.devContainer(t, "dev")
		d := New(Config{Protections: procvm.Protections{WX: prot&1 != 0, ASLR: prot&2 != 0, Canary: prot&4 != 0}})
		c.Spawn(d)
		d.onDatagram(netip.AddrPortFrom(link, 546), data, len(data))
		// Let a crash exit, or a hijack's shell run.
		if err := r.sched.Run(5 * sim.Second); err != nil {
			t.Fatal(err)
		}
	})
}

func TestFactoryAndName(t *testing.T) {
	b := New(Config{})
	if b.Name() != imagecat.BinDnsmasq {
		t.Fatalf("name = %q", b.Name())
	}
}
