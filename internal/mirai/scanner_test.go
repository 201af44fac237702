package mirai

import (
	"net/netip"
	"strings"
	"testing"

	"ddosim/internal/binaries/telnetd"
	"ddosim/internal/container"
	"ddosim/internal/netsim"
	"ddosim/internal/sim"
)

// scanRig builds: an attacker container (loader + scanListen), one
// telnet victim, and a scanner process on a third container.
type scanRig struct {
	*rig
	attacker *container.Container
	loader   *Loader
	victim   *container.Container
	telnet   *telnetd.Daemon
}

func newScanRig(t *testing.T, victimCred telnetd.Cred, infectionCmd string) *scanRig {
	t.Helper()
	r := newRig(t)
	sr := &scanRig{rig: r}

	atkImg := &container.Image{
		Name: "ddosim/atk", Tag: "t", Arch: "x86_64",
		Files: map[string][]byte{}, ExecPaths: map[string]bool{},
	}
	r.engine.RegisterImage(atkImg)
	var err error
	sr.attacker, err = r.engine.Create("ddosim/atk:t", "attacker", r.link(100*netsim.Mbps))
	if err != nil {
		t.Fatal(err)
	}
	if err := sr.attacker.Start(); err != nil {
		t.Fatal(err)
	}
	sr.loader = NewLoader(LoaderConfig{InfectionCommand: infectionCmd})
	sr.attacker.Spawn(sr.loader)

	vicImg := &container.Image{
		Name: "ddosim/vic", Tag: "t", Arch: "x86_64",
		Files: map[string][]byte{}, ExecPaths: map[string]bool{},
	}
	r.engine.RegisterImage(vicImg)
	sr.victim, err = r.engine.Create("ddosim/vic:t", "victim", r.link(500*netsim.Kbps))
	if err != nil {
		t.Fatal(err)
	}
	if err := sr.victim.Start(); err != nil {
		t.Fatal(err)
	}
	sr.telnet = telnetd.New(telnetd.Config{Cred: victimCred})
	sr.victim.Spawn(sr.telnet)
	return sr
}

// scannerHost spawns a scanner on its own container.
func (sr *scanRig) scannerHost(t *testing.T, cfg ScanConfig) *Scanner {
	t.Helper()
	img := &container.Image{
		Name: "ddosim/scn", Tag: "t", Arch: "x86_64",
		Files: map[string][]byte{}, ExecPaths: map[string]bool{},
	}
	sr.engine.RegisterImage(img)
	c, err := sr.engine.Create("ddosim/scn:t", "scanner", sr.link(500*netsim.Kbps))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	cfg.ReportTo = netip.AddrPortFrom(sr.attacker.Node().Addr4(), ScanListenPort)
	var sc *Scanner
	c.Spawn(&scannerBehavior{cfg: cfg, out: &sc})
	return sc
}

type scannerBehavior struct {
	cfg ScanConfig
	out **Scanner
}

func (b *scannerBehavior) Name() string { return "scan" }
func (b *scannerBehavior) Start(p *container.Process) {
	*b.out = NewScanner(p, b.cfg)
	(*b.out).Start()
}
func (b *scannerBehavior) Stop(*container.Process) {}

func TestScannerFindsCracksAndReports(t *testing.T) {
	sr := newScanRig(t, telnetd.Cred{User: "root", Pass: "xc3511"}, "rm -f /nothing")
	sc := sr.scannerHost(t, ScanConfig{
		Enabled: true,
		Prefix:  netip.MustParsePrefix("10.0.0.0/28"), // 14 hosts: quick discovery
		Period:  sim.Second,
		Skip:    []netip.Addr{sr.attacker.Node().Addr4()},
	})
	if err := sr.sched.Run(3 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	if sc.Probes == 0 {
		t.Fatal("no probes")
	}
	if sc.Hits == 0 {
		t.Fatal("victim never cracked")
	}
	if sc.Reported == 0 {
		t.Fatal("no victim reports")
	}
	if sr.loader.Reports == 0 {
		t.Fatal("loader received no reports")
	}
	if sr.loader.Loads == 0 {
		t.Fatalf("loader never loaded (reports=%d)", sr.loader.Reports)
	}
	if sr.loader.Loaded() != 1 {
		t.Fatalf("loaded count = %d", sr.loader.Loaded())
	}
}

func TestScannerCannotCrackStrongCred(t *testing.T) {
	sr := newScanRig(t, telnetd.StrongCred, "rm -f /nothing")
	sc := sr.scannerHost(t, ScanConfig{
		Enabled: true,
		Prefix:  netip.MustParsePrefix("10.0.0.0/28"),
		Period:  500 * sim.Millisecond,
		Skip:    []netip.Addr{sr.attacker.Node().Addr4()},
	})
	if err := sr.sched.Run(3 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	if sc.Probes == 0 {
		t.Fatal("no probes")
	}
	if sc.Hits != 0 || sr.loader.Loads != 0 {
		t.Fatalf("strong credential cracked: hits=%d loads=%d", sc.Hits, sr.loader.Loads)
	}
	// Login attempts were made and rejected.
	if sr.telnet.LoginAttempts == 0 {
		t.Fatal("no login attempts against the victim")
	}
}

func TestSeedScannerStopsAfterBudget(t *testing.T) {
	sr := newScanRig(t, telnetd.Cred{User: "root", Pass: "admin"}, "rm -f /nothing")
	img := &container.Image{
		Name: "ddosim/seed", Tag: "t", Arch: "x86_64",
		Files: map[string][]byte{}, ExecPaths: map[string]bool{},
	}
	sr.engine.RegisterImage(img)
	c, err := sr.engine.Create("ddosim/seed:t", "seeder", sr.link(10*netsim.Mbps))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	cfg := ScanConfig{
		Enabled:  true,
		Prefix:   netip.MustParsePrefix("10.0.0.0/28"),
		Period:   sim.Second,
		ReportTo: netip.AddrPortFrom(sr.attacker.Node().Addr4(), ScanListenPort),
		Skip:     []netip.Addr{sr.attacker.Node().Addr4()},
	}
	c.Spawn(SeedScannerBehavior(cfg, 1))
	if err := sr.sched.Run(5 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	if sr.loader.Loaded() != 1 {
		t.Fatalf("seed loaded %d victims", sr.loader.Loaded())
	}
	// The victim is rediscoverable, but the budget stops the seeder:
	// reports stay at 1.
	if sr.loader.Reports > 1 {
		t.Fatalf("seed kept reporting after budget: %d", sr.loader.Reports)
	}
}

func TestLoaderDedupAndMalformedReports(t *testing.T) {
	sr := newScanRig(t, telnetd.Cred{User: "root", Pass: "admin"}, "rm -f /nothing")
	victimAddr := sr.victim.Node().Addr4()

	// Drive the loader directly over TCP with crafted report lines.
	client := sr.star.AttachHost("reporter", 10*netsim.Mbps, sim.Millisecond, 0)
	dst := netip.AddrPortFrom(sr.attacker.Node().Addr4(), ScanListenPort)
	lines := []string{
		"garbage line",
		"victim not-an-ip root admin",
		"victim " + victimAddr.String() + " root admin",
		"victim " + victimAddr.String() + " root admin", // duplicate
	}
	client.DialTCP(dst, func(c *netsim.TCPConn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		_ = c.Send([]byte(strings.Join(lines, "\n") + "\n"))
		c.Close()
	})
	if err := sr.sched.Run(2 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	if sr.loader.Reports != 2 { // both valid reports counted
		t.Fatalf("reports = %d", sr.loader.Reports)
	}
	if sr.loader.Loads != 1 {
		t.Fatalf("loads = %d (dedup failed?)", sr.loader.Loads)
	}
	if sr.telnet.Logins != 1 {
		t.Fatalf("victim logins = %d", sr.telnet.Logins)
	}
}

func TestLoaderRetriesAfterFailedLoad(t *testing.T) {
	// First report arrives while the victim is offline; the load
	// fails and the loader must accept a later re-report.
	sr := newScanRig(t, telnetd.Cred{User: "root", Pass: "admin"}, "rm -f /nothing")
	victimAddr := sr.victim.Node().Addr4()
	sr.victim.Node().DefaultDevice().SetUp(false)

	client := sr.star.AttachHost("reporter", 10*netsim.Mbps, sim.Millisecond, 0)
	dst := netip.AddrPortFrom(sr.attacker.Node().Addr4(), ScanListenPort)
	report := func() {
		client.DialTCP(dst, func(c *netsim.TCPConn, err error) {
			if err != nil {
				return
			}
			_ = c.Send([]byte("victim " + victimAddr.String() + " root admin\n"))
			c.Close()
		})
	}
	report()
	sr.sched.Schedule(2*sim.Minute, srcTest, func() {
		sr.victim.Node().DefaultDevice().SetUp(true)
		sr.sched.Schedule(10*sim.Second, srcTest, report)
	})
	if err := sr.sched.Run(10 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	if sr.loader.Loads != 1 {
		t.Fatalf("loads = %d after retry", sr.loader.Loads)
	}
}

func TestScanConfigDefaults(t *testing.T) {
	cfg := ScanConfig{}
	cfg.normalize()
	if cfg.Period != 2*sim.Second {
		t.Fatalf("defaults = %+v", cfg)
	}
}

func TestScannerSkipList(t *testing.T) {
	cfg := ScanConfig{Skip: []netip.Addr{netip.MustParseAddr("10.0.0.9")}}
	if !cfg.skipped(netip.MustParseAddr("10.0.0.9")) {
		t.Fatal("skip miss")
	}
	if cfg.skipped(netip.MustParseAddr("10.0.0.8")) {
		t.Fatal("false skip")
	}
}
