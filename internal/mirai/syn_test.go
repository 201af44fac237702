package mirai

import (
	"net/netip"
	"testing"

	"ddosim/internal/container"
	"ddosim/internal/netsim"
	"ddosim/internal/sim"
)

func TestSYNFloodViaBot(t *testing.T) {
	r := newRig(t)
	attacker, cnc := r.spawnCNC(t, CNCConfig{})
	tserver := r.star.AttachHost("tserver", 100*netsim.Mbps, sim.Millisecond, 0)
	sink, err := netsim.InstallSink(tserver, 80)
	if err != nil {
		t.Fatal(err)
	}
	_, bot := r.spawnBot(t, "dev-1", BotConfig{
		CNC: netip.AddrPortFrom(attacker.Node().Addr4(), CNCPort),
	}, 300*netsim.Kbps)
	if err := r.sched.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	cnc.LaunchAttack(AttackCommand{Method: MethodSYN, Target: tserver.Addr4(), Port: 80, Duration: 10})
	if err := r.sched.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if bot.PacketsSent() == 0 {
		t.Fatal("no SYN packets sent")
	}
	if sink.BytesByProto(netsim.ProtoTCP) == 0 {
		t.Fatal("no TCP bytes observed")
	}
	if bot.String() == "" {
		t.Fatal("empty bot String")
	}
	// The sink's node answered orphan SYNs with RSTs (backscatter);
	// the bot's node absorbed them without crashing anything. SYNs are
	// consumed by the TCP demux (RST path), not dropped.
	if d := r.star.Net.Stats().Dropped; d[netsim.DropNoRoute] != 0 || d[netsim.DropNoListener] != 0 {
		t.Fatalf("no-route drops = %d, no-listener drops = %d", d[netsim.DropNoRoute], d[netsim.DropNoListener])
	}
}

func TestFactories(t *testing.T) {
	if b := BotFactory(BotConfig{})(nil); b.Name() != "mirai" {
		t.Fatal("BotFactory")
	}
	if b := NewCNC(CNCConfig{}); b.Name() != "cnc" {
		t.Fatal("NewCNC")
	}
	if b := NewLoader(LoaderConfig{}); b.Name() != "scanListen" {
		t.Fatal("NewLoader")
	}
}

func TestScannerStopHaltsProbes(t *testing.T) {
	r := newRig(t)
	img := &container.Image{
		Name: "ddosim/lone", Tag: "t", Arch: "x86_64",
		Files: map[string][]byte{}, ExecPaths: map[string]bool{},
	}
	r.engine.RegisterImage(img)
	c, err := r.engine.Create(img.Ref(), "lone-scanner", r.link(500*netsim.Kbps))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	var sc *Scanner
	c.Spawn(&scannerBehavior{cfg: ScanConfig{
		Enabled:  true,
		Prefix:   netip.MustParsePrefix("10.0.0.0/28"),
		Period:   sim.Second,
		ReportTo: netip.MustParseAddrPort("10.0.0.250:48101"),
	}, out: &sc})
	if err := r.sched.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if sc.Probes == 0 {
		t.Fatal("no probes before Stop")
	}
	// Killing the owning process stops the scan ticker.
	probes := sc.Probes
	c.Stop()
	if err := r.sched.Run(sim.Minute); err != nil {
		t.Fatal(err)
	}
	if sc.Probes != probes {
		t.Fatalf("probes kept running after container stop: %d -> %d", probes, sc.Probes)
	}
}
