package mirai

import (
	"net/netip"
	"strings"
	"testing"

	"ddosim/internal/container"
	"ddosim/internal/netsim"
	"ddosim/internal/sim"
)

type rig struct {
	sched  *sim.Scheduler
	star   *netsim.Star
	engine *container.Engine
}

func newRig(t testing.TB) *rig {
	t.Helper()
	sched := sim.NewScheduler(21)
	w := netsim.New(sched)
	star := netsim.NewStar(w)
	return &rig{sched: sched, star: star, engine: container.NewEngine(sched, star)}
}

func (r *rig) link(rate netsim.DataRate) container.LinkConfig {
	return container.LinkConfig{Rate: rate, Delay: sim.Millisecond}
}

// spawnCNC creates the attacker container running a CNC and returns
// both.
func (r *rig) spawnCNC(t testing.TB, cfg CNCConfig) (*container.Container, *CNC) {
	t.Helper()
	img := &container.Image{
		Name: "ddosim/attacker", Tag: "t", Arch: "x86_64",
		Files:     map[string][]byte{"/usr/bin/cnc": container.BinaryContent("cnc", "x86_64")},
		ExecPaths: map[string]bool{"/usr/bin/cnc": true},
	}
	r.engine.RegisterImage(img)
	var cnc *CNC
	r.engine.RegisterBinary("cnc", func(args []string) container.Behavior {
		cnc = NewCNC(cfg)
		return cnc
	})
	c, err := r.engine.Create("ddosim/attacker:t", "attacker", r.link(100*netsim.Mbps))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecFile("/usr/bin/cnc", nil); err != nil {
		t.Fatal(err)
	}
	return c, cnc
}

// spawnBot creates a victim container and runs a bot inside it.
func (r *rig) spawnBot(t testing.TB, name string, cfg BotConfig, rate netsim.DataRate) (*container.Container, *Bot) {
	t.Helper()
	ref := "ddosim/victim-" + name + ":t"
	img := &container.Image{
		Name: "ddosim/victim-" + name, Tag: "t", Arch: "x86_64",
		Files: map[string][]byte{}, ExecPaths: map[string]bool{},
	}
	r.engine.RegisterImage(img)
	c, err := r.engine.Create(ref, name, r.link(rate))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	bot := NewBot(cfg)
	c.Spawn(bot)
	return c, bot
}

func TestBotRegistersWithCNC(t *testing.T) {
	r := newRig(t)
	var regAddr netip.Addr
	var regArch string
	attacker, cnc := r.spawnCNC(t, CNCConfig{
		OnBotRegistered: func(a netip.Addr, arch string) { regAddr, regArch = a, arch },
	})
	victim, bot := r.spawnBot(t, "dev-1", BotConfig{
		CNC: netip.AddrPortFrom(attacker.Node().Addr4(), CNCPort),
	}, 500*netsim.Kbps)

	if err := r.sched.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if cnc.BotCount() != 1 {
		t.Fatalf("bot count = %d", cnc.BotCount())
	}
	if !bot.Connected() {
		t.Fatal("bot not connected")
	}
	if regAddr != victim.Node().Addr4() || regArch != "x86_64" {
		t.Fatalf("registered %v/%s", regAddr, regArch)
	}
	bots := cnc.Bots()
	if len(bots) != 1 || bots[0].Arch != "x86_64" {
		t.Fatalf("registry = %+v", bots)
	}
}

func TestBotObfuscatesTitle(t *testing.T) {
	r := newRig(t)
	attacker, _ := r.spawnCNC(t, CNCConfig{})
	victim, _ := r.spawnBot(t, "dev-1", BotConfig{
		CNC: netip.AddrPortFrom(attacker.Node().Addr4(), CNCPort),
	}, 500*netsim.Kbps)
	procs := victim.Procs()
	if len(procs) != 1 {
		t.Fatalf("procs = %d", len(procs))
	}
	if procs[0].Title() == "mirai" {
		t.Fatal("process title not obfuscated")
	}
	if len(procs[0].Title()) != 10 {
		t.Fatalf("title = %q", procs[0].Title())
	}
}

// rivalBehavior mimics another malware family or daemon bound to a
// port Mirai claims.
type rivalBehavior struct {
	port   uint16
	killed bool
}

func (rb *rivalBehavior) Name() string { return "qbot" }
func (rb *rivalBehavior) Start(p *container.Process) {
	p.SetMalware("qbot")
	if _, err := p.ListenTCP(rb.port, func(*netsim.TCPConn) {}); err != nil {
		p.Logf("rival listen: %v", err)
	}
}
func (rb *rivalBehavior) Stop(*container.Process) { rb.killed = true }

func TestBotKillsRivalsAndPortHolders(t *testing.T) {
	r := newRig(t)
	attacker, _ := r.spawnCNC(t, CNCConfig{})

	img := &container.Image{Name: "ddosim/victim-kill", Tag: "t", Arch: "x86_64",
		Files: map[string][]byte{}, ExecPaths: map[string]bool{}}
	r.engine.RegisterImage(img)
	c, err := r.engine.Create("ddosim/victim-kill:t", "victim", r.link(500*netsim.Kbps))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	rival := &rivalBehavior{port: 22}
	c.Spawn(rival)

	telnetd := &rivalBehavior{port: 23}
	tp := c.Spawn(telnetd)
	tp.SetMalware("") // plain telnetd: killed for holding port 23

	bot := NewBot(BotConfig{CNC: netip.AddrPortFrom(attacker.Node().Addr4(), CNCPort)})
	c.Spawn(bot)

	if !rival.killed || !telnetd.killed {
		t.Fatalf("rival killed=%v telnetd killed=%v", rival.killed, telnetd.killed)
	}
	if bot.RivalsKilled != 2 {
		t.Fatalf("RivalsKilled = %d", bot.RivalsKilled)
	}
	if len(c.Procs()) != 1 {
		t.Fatalf("process table = %d entries, want only the bot", len(c.Procs()))
	}
}

func TestUDPPlainFloodReachesTarget(t *testing.T) {
	r := newRig(t)
	attacker, cnc := r.spawnCNC(t, CNCConfig{})
	tserver := r.star.AttachHost("tserver", 100*netsim.Mbps, sim.Millisecond, 0)
	sink, err := netsim.InstallSink(tserver, 80)
	if err != nil {
		t.Fatal(err)
	}
	_, bot := r.spawnBot(t, "dev-1", BotConfig{
		CNC: netip.AddrPortFrom(attacker.Node().Addr4(), CNCPort),
	}, 500*netsim.Kbps)

	if err := r.sched.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	n := cnc.LaunchAttack(AttackCommand{
		Method: MethodUDPPlain, Target: tserver.Addr4(), Port: 80, Duration: 10,
	})
	if n != 1 {
		t.Fatalf("attack sent to %d bots", n)
	}
	if err := r.sched.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if bot.CommandsSeen != 1 {
		t.Fatalf("bot saw %d commands", bot.CommandsSeen)
	}
	if bot.PacketsSent() == 0 {
		t.Fatal("no flood packets sent")
	}
	if sink.RxPackets() == 0 {
		t.Fatal("sink received nothing")
	}
	// A 500 kbps uplink flooding 512-byte payloads for 10 s delivers
	// roughly 500kbit*10 = 625 KB of payload; verify the order of
	// magnitude (headers shave a bit).
	total := sink.TotalBytes()
	if total < 400_000 || total > 700_000 {
		t.Fatalf("sink got %d bytes, want ~600KB", total)
	}
	if bot.Attacking() {
		t.Fatal("flood still running after duration")
	}
}

func TestFloodPacedAtLineRate(t *testing.T) {
	r := newRig(t)
	attacker, cnc := r.spawnCNC(t, CNCConfig{})
	tserver := r.star.AttachHost("tserver", 100*netsim.Mbps, sim.Millisecond, 0)
	sink, err := netsim.InstallSink(tserver, 80)
	if err != nil {
		t.Fatal(err)
	}
	// Two bots with different rates: received shares must differ
	// accordingly.
	v1, _ := r.spawnBot(t, "slow", BotConfig{CNC: netip.AddrPortFrom(attacker.Node().Addr4(), CNCPort)}, 100*netsim.Kbps)
	v2, _ := r.spawnBot(t, "fast", BotConfig{CNC: netip.AddrPortFrom(attacker.Node().Addr4(), CNCPort)}, 400*netsim.Kbps)
	if err := r.sched.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	cnc.LaunchAttack(AttackCommand{Method: MethodUDPPlain, Target: tserver.Addr4(), Port: 80, Duration: 20})
	if err := r.sched.Run(60 * sim.Second); err != nil {
		t.Fatal(err)
	}
	slow := sink.BytesFrom(v1.Node().Addr4())
	fast := sink.BytesFrom(v2.Node().Addr4())
	if slow == 0 || fast == 0 {
		t.Fatalf("slow=%d fast=%d", slow, fast)
	}
	ratio := float64(fast) / float64(slow)
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("rate ratio = %.2f, want ~4 (line-rate pacing)", ratio)
	}
}

func TestBotReconnectsAfterChurn(t *testing.T) {
	r := newRig(t)
	attacker, cnc := r.spawnCNC(t, CNCConfig{})
	victim, bot := r.spawnBot(t, "dev-1", BotConfig{
		CNC: netip.AddrPortFrom(attacker.Node().Addr4(), CNCPort),
	}, 500*netsim.Kbps)
	if err := r.sched.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if cnc.BotCount() != 1 {
		t.Fatalf("precondition: bot count = %d", cnc.BotCount())
	}
	// Churn the device out past the C&C's bot timeout and one reaper
	// period; pings die, connection resets.
	victim.Node().DefaultDevice().SetUp(false)
	runFor(t, r.sched, botTimeout+botTimeout/3)
	if cnc.BotCount() != 0 {
		t.Fatalf("dead bot still registered: %d", cnc.BotCount())
	}
	// Device rejoins: the bot must re-register.
	victim.Node().DefaultDevice().SetUp(true)
	runFor(t, r.sched, 3*sim.Minute)
	if cnc.BotCount() != 1 {
		t.Fatalf("bot did not re-register after rejoin: %d", cnc.BotCount())
	}
	if bot.Reconnects == 0 {
		t.Fatal("no reconnect attempts recorded")
	}
	if cnc.TotalRegistered < 2 {
		t.Fatalf("TotalRegistered = %d, want >= 2", cnc.TotalRegistered)
	}
}

func TestOfflineBotMissesAttackCommand(t *testing.T) {
	// The Fig. 2 dynamic-churn mechanism: a bot that is offline when
	// the command is issued never attacks, even after rejoining.
	r := newRig(t)
	attacker, cnc := r.spawnCNC(t, CNCConfig{})
	tserver := r.star.AttachHost("tserver", 100*netsim.Mbps, sim.Millisecond, 0)
	sink, err := netsim.InstallSink(tserver, 80)
	if err != nil {
		t.Fatal(err)
	}
	victim, bot := r.spawnBot(t, "dev-1", BotConfig{
		CNC: netip.AddrPortFrom(attacker.Node().Addr4(), CNCPort),
	}, 500*netsim.Kbps)
	if err := r.sched.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	victim.Node().DefaultDevice().SetUp(false)
	// The next ping's retransmissions run out: the connection dies.
	if err := r.sched.Run(pingPeriod + sim.Minute); err != nil {
		t.Fatal(err)
	}
	cnc.LaunchAttack(AttackCommand{Method: MethodUDPPlain, Target: tserver.Addr4(), Port: 80, Duration: 10})
	victim.Node().DefaultDevice().SetUp(true)
	if err := r.sched.Run(10 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	if bot.CommandsSeen != 0 {
		t.Fatal("offline bot received the attack command")
	}
	if sink.RxPackets() != 0 {
		t.Fatal("offline bot attacked after rejoining")
	}
	if !bot.Connected() {
		t.Fatal("bot should have re-registered after rejoin")
	}
}

func TestReplayDeliversTrimmedCommandToLateBot(t *testing.T) {
	// The opt-in robustness knob: with ReplayAttackCommand on, a bot
	// that re-registers while the attack window is still open gets the
	// command re-sent with the duration trimmed to the remaining time.
	// (The default-off behaviour — the paper's Fig. 2 churn gap — is
	// pinned by TestOfflineBotMissesAttackCommand above.)
	r := newRig(t)
	attacker, cnc := r.spawnCNC(t, CNCConfig{ReplayAttackCommand: true})
	tserver := r.star.AttachHost("tserver", 100*netsim.Mbps, sim.Millisecond, 0)
	sink, err := netsim.InstallSink(tserver, 80)
	if err != nil {
		t.Fatal(err)
	}
	victim, bot := r.spawnBot(t, "dev-1", BotConfig{
		CNC: netip.AddrPortFrom(attacker.Node().Addr4(), CNCPort),
	}, 500*netsim.Kbps)
	if err := r.sched.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	victim.Node().DefaultDevice().SetUp(false)
	// The next ping's retransmissions run out: the connection dies.
	if err := r.sched.Run(pingPeriod + sim.Minute); err != nil {
		t.Fatal(err)
	}
	launch := int64(r.sched.Now() / sim.Second)
	cnc.LaunchAttack(AttackCommand{Method: MethodUDPPlain, Target: tserver.Addr4(), Port: 80, Duration: 120})
	victim.Node().DefaultDevice().SetUp(true)
	if err := r.sched.Run(10 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	if bot.CommandsSeen == 0 {
		t.Fatal("late bot never received the replayed command")
	}
	if cnc.CommandReplays == 0 {
		t.Fatal("CNC recorded no replays")
	}
	if sink.RxPackets() == 0 {
		t.Fatal("late bot never attacked")
	}
	// The replay is trimmed: the bot rejoined well into the 120 s
	// window, so its flood cannot have run the full duration.
	if got := sink.KbpsSeries(0, launch+125); len(got) != 0 {
		secs := 0
		for _, v := range got {
			if v > 0 {
				secs++
			}
		}
		if secs >= 120 {
			t.Fatalf("flood ran %d s, want < 120 (trimmed replay)", secs)
		}
	}
}

func TestTelnetAdminSession(t *testing.T) {
	r := newRig(t)
	attacker, cnc := r.spawnCNC(t, CNCConfig{})
	tserver := r.star.AttachHost("tserver", 100*netsim.Mbps, sim.Millisecond, 0)
	if _, err := netsim.InstallSink(tserver, 80); err != nil {
		t.Fatal(err)
	}
	_, bot := r.spawnBot(t, "dev-1", BotConfig{
		CNC: netip.AddrPortFrom(attacker.Node().Addr4(), CNCPort),
	}, 500*netsim.Kbps)
	if err := r.sched.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}

	admin := r.star.AttachHost("admin", 10*netsim.Mbps, sim.Millisecond, 0)
	var session *AdminSession
	RunAdminSession(admin, netip.AddrPortFrom(attacker.Node().Addr4(), CNCPort),
		"root", "root",
		[]string{"botcount", "udpplain " + tserver.Addr4().String() + " 80 5"},
		func(s *AdminSession) { session = s })
	if err := r.sched.Run(sim.Minute); err != nil {
		t.Fatal(err)
	}
	if session == nil {
		t.Fatal("admin session never completed")
	}
	if session.Err != nil {
		t.Fatal(session.Err)
	}
	out := session.Transcript.String()
	if !strings.Contains(out, "1 bots connected.") {
		t.Fatalf("botcount output missing: %q", out)
	}
	if !strings.Contains(out, "attack sent to 1 bots") {
		t.Fatalf("attack output missing: %q", out)
	}
	if cnc.AttacksIssued != 1 {
		t.Fatalf("AttacksIssued = %d", cnc.AttacksIssued)
	}
	if bot.CommandsSeen != 1 {
		t.Fatalf("bot saw %d commands via telnet path", bot.CommandsSeen)
	}
}

func TestTelnetBadLogin(t *testing.T) {
	r := newRig(t)
	attacker, _ := r.spawnCNC(t, CNCConfig{})
	admin := r.star.AttachHost("admin", 10*netsim.Mbps, sim.Millisecond, 0)
	var session *AdminSession
	RunAdminSession(admin, netip.AddrPortFrom(attacker.Node().Addr4(), CNCPort),
		"root", "wrong", []string{"botcount"},
		func(s *AdminSession) { session = s })
	if err := r.sched.Run(sim.Minute); err != nil {
		t.Fatal(err)
	}
	if session == nil {
		t.Fatal("session never completed")
	}
	if !strings.Contains(session.Transcript.String(), "login failed") {
		t.Fatalf("transcript = %q", session.Transcript.String())
	}
	if strings.Contains(session.Transcript.String(), "bots connected") {
		t.Fatal("command executed despite failed login")
	}
}

func TestTelnetUnknownCommand(t *testing.T) {
	r := newRig(t)
	attacker, _ := r.spawnCNC(t, CNCConfig{})
	admin := r.star.AttachHost("admin", 10*netsim.Mbps, sim.Millisecond, 0)
	var session *AdminSession
	RunAdminSession(admin, netip.AddrPortFrom(attacker.Node().Addr4(), CNCPort),
		"root", "root", []string{"fraggle", "udpplain nonsense"},
		func(s *AdminSession) { session = s })
	if err := r.sched.Run(sim.Minute); err != nil {
		t.Fatal(err)
	}
	out := session.Transcript.String()
	if !strings.Contains(out, "unknown command") {
		t.Fatalf("unknown command not flagged: %q", out)
	}
	if !strings.Contains(out, "usage: udpplain") {
		t.Fatalf("usage not shown: %q", out)
	}
}

func TestStartJitterDelaysFlood(t *testing.T) {
	r := newRig(t)
	attacker, cnc := r.spawnCNC(t, CNCConfig{})
	tserver := r.star.AttachHost("tserver", 100*netsim.Mbps, sim.Millisecond, 0)
	sink, err := netsim.InstallSink(tserver, 80)
	if err != nil {
		t.Fatal(err)
	}
	var startedAt sim.Time = -1
	_, _ = r.spawnBot(t, "dev-1", BotConfig{
		CNC:           netip.AddrPortFrom(attacker.Node().Addr4(), CNCPort),
		StartJitter:   30 * sim.Second,
		OnAttackStart: func(netip.Addr) { startedAt = r.sched.Now() },
	}, 500*netsim.Kbps)
	if err := r.sched.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	issued := r.sched.Now()
	cnc.LaunchAttack(AttackCommand{Method: MethodUDPPlain, Target: tserver.Addr4(), Port: 80, Duration: 10})
	if err := r.sched.Run(2 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	if startedAt < 0 {
		t.Fatal("flood never started")
	}
	if startedAt <= issued+sim.Millisecond {
		t.Fatalf("flood started immediately (%v) despite jitter", startedAt-issued)
	}
	if sink.RxPackets() == 0 {
		t.Fatal("no packets after jittered start")
	}
}

func TestParseAttackCommand(t *testing.T) {
	cmd, err := ParseAttackCommand("udpplain 10.3.0.2 80 100\n")
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Target != netip.MustParseAddr("10.3.0.2") || cmd.Port != 80 || cmd.Duration != 100 {
		t.Fatalf("cmd = %+v", cmd)
	}
	if cmd.Encode() != "udpplain 10.3.0.2 80 100\n" {
		t.Fatalf("Encode = %q", cmd.Encode())
	}
	for _, bad := range []string{
		"", "udpplain", "synflood 10.0.0.1 80 10",
		"udpplain nothost 80 10", "udpplain 10.0.0.1 99999 10",
		"udpplain 10.0.0.1 80 0", "udpplain 10.0.0.1 80 -5",
		"udpplain 10.0.0.1 80 ten",
	} {
		if _, err := ParseAttackCommand(bad); err == nil {
			t.Errorf("ParseAttackCommand(%q) accepted", bad)
		}
	}
}

// FuzzParseAttackCommand feeds the bot's command parser arbitrary
// lines: every line it accepts must Encode to a line that parses to
// the same command, and that encoding must be stable.
func FuzzParseAttackCommand(f *testing.F) {
	for _, seed := range []string{
		"udpplain 10.3.0.2 80 100\n",
		"syn 2001:db8::7 443 5",
		"ack fe80::1%eth0 0 65535\r\n",
		"  udpplain\t10.0.0.1  007 +30  ",
		"udpplain 10.0.0.1 80 0",
		"udpplain 10.0.0.1 99999 10",
		"synflood 10.0.0.1 80 10",
		"udpplain 10.0.0.1 80",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		cmd, err := ParseAttackCommand(line)
		if err != nil {
			return
		}
		enc := cmd.Encode()
		again, err := ParseAttackCommand(enc)
		if err != nil {
			t.Fatalf("Encode of an accepted command %+v gives %q, which does not parse: %v", cmd, enc, err)
		}
		if again != cmd {
			t.Fatalf("round trip changed the command: %+v, then %+v", cmd, again)
		}
		if again.Encode() != enc {
			t.Fatalf("re-encoding is not stable: %q, then %q", enc, again.Encode())
		}
	})
}

func TestLineBuffer(t *testing.T) {
	var lb lineBuffer
	if got := lb.feed([]byte("par")); len(got) != 0 {
		t.Fatalf("partial yielded %v", got)
	}
	got := lb.feed([]byte("tial\nsecond\r\nthi"))
	if len(got) != 2 || got[0] != "partial" || got[1] != "second" {
		t.Fatalf("lines = %v", got)
	}
	got = lb.feed([]byte("rd\n"))
	if len(got) != 1 || got[0] != "third" {
		t.Fatalf("lines = %v", got)
	}
}
