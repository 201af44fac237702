package core

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"net/netip"

	"ddosim/internal/attacker"
	"ddosim/internal/binaries/connman"
	"ddosim/internal/binaries/dnsmasq"
	imagecat "ddosim/internal/binaries/image"
	"ddosim/internal/binaries/telnetd"
	"ddosim/internal/churn"
	"ddosim/internal/container"
	"ddosim/internal/dht"
	"ddosim/internal/exploit"
	"ddosim/internal/faults"
	"ddosim/internal/metrics"
	"ddosim/internal/mirai"
	"ddosim/internal/netsim"
	"ddosim/internal/obs"
	"ddosim/internal/p2pbot"
	"ddosim/internal/procvm"
	"ddosim/internal/resources"
	"ddosim/internal/sim"
)

// Dev is one simulated IoT device: a container running a vulnerable
// daemon over a 100–500 kbps link.
type Dev struct {
	name      string
	binary    DevBinary
	prot      procvm.Protections
	rate      netsim.DataRate
	container *container.Container

	// respawn is the supervisor hook fault injection uses to bring the
	// Dev's service daemon back after a crash. It reports false (and
	// does nothing) when the daemon is still (or already) running.
	respawn func() bool
}

// Name implements churn.Device.
func (d *Dev) Name() string { return d.name }

// SetOnline implements churn.Device by flipping the Dev's link.
func (d *Dev) SetOnline(up bool) { d.container.Node().DefaultDevice().SetUp(up) }

// Online implements churn.Device.
func (d *Dev) Online() bool { return d.container.Node().DefaultDevice().IsUp() }

// Binary reports the daemon this Dev runs.
func (d *Dev) Binary() DevBinary { return d.binary }

// Protections reports the Dev's memory defenses.
func (d *Dev) Protections() procvm.Protections { return d.prot }

// Container exposes the underlying container.
func (d *Dev) Container() *container.Container { return d.container }

// Rate reports the Dev's sampled link rate.
func (d *Dev) Rate() netsim.DataRate { return d.rate }

// Simulation is one fully-built DDoSim instance.
type Simulation struct {
	cfg      Config
	sched    *sim.Scheduler
	net      *netsim.Network
	star     *netsim.Star
	engine   *container.Engine
	attacker *attacker.Attacker
	loader   *mirai.Loader
	tserver  *netsim.Node
	sink     *netsim.Sink
	devs     []*Dev
	churnCtl *churn.Controller
	faults   *faults.Injector
	timeline *metrics.Timeline
	obs      *obs.Obs

	devByAddr map[netip.Addr]*Dev

	recruitSpan obs.SpanID
	attackSpan  obs.SpanID

	// Telemetry pipeline: exported flow records, windowed time series,
	// and the per-bot kill-chain bookkeeping behind the phase spans.
	flowBuf *obs.FlowBuffer
	windows *obs.Windows
	// firstAttempt records when each Dev first parsed an attacker
	// payload; firstReport when the loader first learned of a victim.
	// They anchor the "exploit" and "load" kill-chain spans.
	firstAttempt map[string]sim.Time
	firstReport  map[netip.Addr]sim.Time
	// winCmdSum/winCmdN accumulate command→flood latencies inside the
	// current window; the cnc_cmd_latency_s column drains them.
	winCmdSum float64
	winCmdN   int

	results        Results
	infectedDevs   map[string]bool
	registeredEver map[netip.Addr]bool

	attackIssued bool
	preSnap      resources.Snapshot
	postSnap     resources.Snapshot
	postTaken    bool
}

// New builds the full testbed for cfg: attacker container (C&C, file
// server, malicious DNS, DHCPv6 script), NumDevs Dev containers, and
// the TServer sink node, all joined through the star router.
func New(cfg Config) (*Simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.WindowSize <= 0 {
		cfg.WindowSize = sim.Second
	}
	s := &Simulation{
		cfg:            cfg,
		timeline:       metrics.NewTimeline(),
		obs:            obs.New(),
		devByAddr:      make(map[netip.Addr]*Dev),
		firstAttempt:   make(map[string]sim.Time),
		firstReport:    make(map[netip.Addr]sim.Time),
		infectedDevs:   make(map[string]bool),
		registeredEver: make(map[netip.Addr]bool),
	}
	s.sched = sim.NewScheduler(cfg.Seed)
	s.sched.SetHook(s.obs.SchedulerHook())
	s.net = netsim.New(s.sched)
	s.net.Observe(s.obs)
	s.star = netsim.NewStar(s.net)
	s.engine = container.NewEngine(s.sched, s.star)
	s.engine.Observe(s.obs)

	// TServer first so the attacker's scanner skip-list can include
	// it; then the attacker; then the fleet.
	deploySpan := s.obs.Trace.BeginSpan(s.sched.Now(), obs.CatPhase, "deploy",
		obs.KV{K: "devs", V: fmt.Sprint(cfg.NumDevs)})
	if err := s.deployTServer(); err != nil {
		return nil, err
	}
	if err := s.deployAttacker(); err != nil {
		return nil, err
	}
	if err := s.deployDevs(); err != nil {
		return nil, err
	}
	s.obs.Trace.EndSpan(deploySpan, s.sched.Now())

	churnDevs := make([]churn.Device, len(s.devs))
	for i, d := range s.devs {
		churnDevs[i] = d
	}
	s.churnCtl = churn.NewController(s.sched, cfg.Churn, churnDevs)
	s.churnCtl.Observe(s.obs)
	if cfg.ChurnEpoch > 0 {
		s.churnCtl.SetEpoch(cfg.ChurnEpoch)
	}
	s.churnCtl.OnChange = func(at sim.Time, dev churn.Device, online bool) {
		kind := EventChurnOffline
		if online {
			kind = EventChurnOnline
		}
		s.timeline.Record(at, kind, dev.Name())
	}
	if err := s.setupFaults(); err != nil {
		return nil, err
	}
	s.setupTelemetry()
	return s, nil
}

// setupTelemetry attaches the flow exporter (with ground-truth label
// rules) and registers the windowed time-series columns. Runs after
// deployment because the label rules need the attacker's addresses.
func (s *Simulation) setupTelemetry() {
	s.flowBuf = &obs.FlowBuffer{}
	s.net.EnableFlows(netsim.FlowConfig{
		ActiveTimeout: s.cfg.FlowActiveTimeout,
		IdleTimeout:   s.cfg.FlowIdleTimeout,
		Sink:          s.flowBuf,
	})
	atk := s.attacker.Container.Node()
	// Rule order matters: the C&C listens on port 23 — the telnet port —
	// so the exact-endpoint C&C rule must precede the generic telnet
	// rule, or bot↔C&C flows would be labeled "recruit".
	s.net.AddFlowLabelRule(netsim.FlowLabelRule{
		Endpoint: netip.AddrPortFrom(atk.Addr4(), mirai.CNCPort), Label: "cnc"})
	s.net.AddFlowLabelRule(netsim.FlowLabelRule{
		Endpoint: netip.AddrPortFrom(atk.Addr4(), mirai.ScanListenPort), Label: "recruit"})
	s.net.AddFlowLabelRule(netsim.FlowLabelRule{Port: 23, Label: "recruit"})
	if s.cfg.p2p() {
		// Overlay control traffic — lookups, stores, refreshes on the
		// DHT port, between any pair of peers. Must precede the
		// attacker-address exploit rules or the seeder's DHT datagrams
		// would be mislabeled exploit-delivery.
		s.net.AddFlowLabelRule(netsim.FlowLabelRule{Port: dht.DefaultPort, Label: "dht"})
	}
	// Remaining attacker traffic (DNS poisoning, DHCPv6 payloads, bot
	// binary fetches) is the exploit-delivery plane.
	s.net.AddFlowLabelRule(netsim.FlowLabelRule{Addr: atk.Addr4(), Label: "exploit"})
	s.net.AddFlowLabelRule(netsim.FlowLabelRule{Addr: atk.Addr6(), Label: "exploit"})

	w := obs.NewWindows(s.cfg.WindowSize)
	w.Column("infected", func() float64 { return float64(s.results.Infected) })
	w.DeltaColumn("new_infections", func() float64 { return float64(s.results.Infected) })
	w.Column("bots_registered", func() float64 { return float64(s.results.BotsRegistered) })
	w.DeltaColumn("net_tx_bytes", func() float64 { return float64(s.net.Stats().TxBytes) })
	w.DeltaColumn("net_drops", func() float64 { return float64(s.net.Stats().Drops) })
	w.DeltaColumn("sink_rx_bytes", func() float64 { return float64(s.sink.Series().TotalBytes()) })
	w.Column("queue_depth", func() float64 { return float64(s.sched.Pending()) })
	// Mean command→first-flood-packet latency over the window; reading
	// drains the accumulator (documented side effect — Windows calls
	// each reader exactly once per Sample).
	w.Column("cnc_cmd_latency_s", func() float64 {
		if s.winCmdN == 0 {
			return 0
		}
		v := s.winCmdSum / float64(s.winCmdN)
		s.winCmdSum, s.winCmdN = 0, 0
		return v
	})
	s.windows = w
}

// setupFaults builds the fault injector when the config declares a
// scenario. A zero Faults config builds nothing at all, so fault-free
// runs stay byte-identical to builds without the subsystem.
func (s *Simulation) setupFaults() error {
	if !s.cfg.Faults.Enabled() {
		return nil
	}
	inj, err := faults.New(s.sched, s.cfg.Faults, s.cfg.Seed, s.obs)
	if err != nil {
		return err
	}
	inj.OnEvent = func(kind, actor string) {
		s.timeline.Record(s.sched.Now(), kind, actor)
	}
	for _, dev := range s.devs {
		dev := dev
		inj.AddLink(dev.name, dev.container.Node().DefaultDevice())
		inj.AddProcTarget(faults.ProcTarget{
			Name: dev.name,
			Crash: func(rng *rand.Rand) (string, bool) {
				// Killing a process on the victim Dev is a control-plane
				// mutation of partition state; Barrier marks it so.
				what, ok := "", false
				s.sched.Barrier(func() {
					procs := dev.container.Procs()
					if len(procs) == 0 {
						return
					}
					p := procs[rng.Intn(len(procs))]
					what, ok = p.Title(), true
					if p.Tag("malware") != "" {
						// A crashed bot stays dead until the botnet itself
						// re-recruits the device: the loader forgets the
						// victim so a scanner re-report can re-infect it.
						// That recovery loop is what the resilience
						// experiment measures.
						what = "bot"
						if s.loader != nil {
							s.loader.Forget(dev.container.Node().Addr4())
						}
					}
					dev.container.Kill(p.PID())
				})
				return what, ok
			},
			Restart: func(string) bool {
				if dev.respawn == nil {
					return false
				}
				return dev.respawn()
			},
		})
	}
	atkC := s.attacker.Container
	cncTarget := faults.ProcTarget{
		Name: "attacker",
		Crash: func(*rand.Rand) (string, bool) {
			p := atkC.FindByTCPPort(mirai.CNCPort)
			if p == nil {
				return "", false
			}
			atkC.Kill(p.PID())
			return "cnc", true
		},
		Restart: func(string) bool {
			if atkC.FindByTCPPort(mirai.CNCPort) != nil {
				return false
			}
			// Re-exec the C&C binary; the attacker's factory rebinds
			// s.attacker.CNC to the fresh instance.
			_, err := atkC.ExecFile("/usr/bin/cnc", nil)
			return err == nil
		},
	}
	if s.cfg.p2p() {
		// The P2P family's "C&C" is the seeder daemon (UDP, so found by
		// process title, not TCP port). Crash/restart re-exec the seed
		// binary; the takedown scenario kills it for good — which is
		// exactly the fault whose blast radius the family shrinks.
		findSeed := func() *container.Process {
			for _, p := range atkC.Procs() {
				if p.Title() == "p2p-seed" {
					return p
				}
			}
			return nil
		}
		cncTarget = faults.ProcTarget{
			Name: "attacker",
			Crash: func(*rand.Rand) (string, bool) {
				p := findSeed()
				if p == nil {
					return "", false
				}
				atkC.Kill(p.PID())
				return "p2p-seed", true
			},
			Restart: func(string) bool {
				if findSeed() != nil {
					return false
				}
				_, err := atkC.ExecFile("/usr/bin/p2p-seed", nil)
				return err == nil
			},
		}
	}
	inj.SetCNC("attacker", atkC.Node().DefaultDevice(), cncTarget)
	inj.SetSink(func(down bool) {
		if down {
			s.sink.Suspend()
		} else {
			s.sink.Resume()
		}
	})
	s.faults = inj
	return nil
}

// Faults exposes the fault injector (nil when the config declares no
// scenario).
func (s *Simulation) Faults() *faults.Injector { return s.faults }

// Sched exposes the scheduler (examples drive extra behaviours with
// it).
func (s *Simulation) Sched() *sim.Scheduler { return s.sched }

// ShardSet always returns nil: there is one event kernel. It remains
// only because cmd/bench still calls it; the next change to the
// benchmark removes the call and this method.
func (s *Simulation) ShardSet() any { return nil }

// Network exposes the simulated network.
func (s *Simulation) Network() *netsim.Network { return s.net }

// Star exposes the topology helper so callers can attach extra hosts
// (e.g. benign-traffic clients for defense experiments).
func (s *Simulation) Star() *netsim.Star { return s.star }

// Engine exposes the container runtime.
func (s *Simulation) Engine() *container.Engine { return s.engine }

// Attacker exposes the deployed attacker component.
func (s *Simulation) Attacker() *attacker.Attacker { return s.attacker }

// CNC exposes the Mirai command-and-control server (nil for the P2P
// family, which has none — that is the point).
func (s *Simulation) CNC() *mirai.CNC { return s.attacker.CNC }

// Seeder exposes the P2P family's overlay seed process (nil for the
// mirai family).
func (s *Simulation) Seeder() *p2pbot.Seeder { return s.attacker.Seeder }

// TServer exposes the target node.
func (s *Simulation) TServer() *netsim.Node { return s.tserver }

// Sink exposes TServer's measurement application.
func (s *Simulation) Sink() *netsim.Sink { return s.sink }

// Devs returns the fleet (a copy of the slice).
func (s *Simulation) Devs() []*Dev {
	out := make([]*Dev, len(s.devs))
	copy(out, s.devs)
	return out
}

// Timeline exposes the run's event log.
func (s *Simulation) Timeline() *metrics.Timeline { return s.timeline }

// Obs exposes the run's observability bundle (tracer, metrics
// registry, scheduler profiler).
func (s *Simulation) Obs() *obs.Obs { return s.obs }

// Flows exposes the buffered flow records exported during the run.
func (s *Simulation) Flows() *obs.FlowBuffer { return s.flowBuf }

// FlowTable exposes the network's flow accountant.
func (s *Simulation) FlowTable() *netsim.FlowTable { return s.net.Flows() }

// Windows exposes the windowed time-series metrics.
func (s *Simulation) Windows() *obs.Windows { return s.windows }

func (s *Simulation) deployAttacker() error {
	jitter := sim.Time(0)
	if s.cfg.StartJitterPerDev > 0 {
		jitter = sim.Time(s.cfg.NumDevs) * s.cfg.StartJitterPerDev
	}
	atkCfg := attacker.Config{
		DHCPv6Period: s.cfg.DHCPv6Period,
		Obs:          s.obs,
		Bot: mirai.BotConfig{
			PayloadBytes:  s.cfg.PayloadBytes,
			StartJitter:   jitter,
			OnAttackStart: s.noteFloodStart,
		},
		CNC: mirai.CNCConfig{
			ReplayAttackCommand: s.cfg.CNCReplayAttack,
			OnBotRegistered: func(addr netip.Addr, arch string) {
				if !s.registeredEver[addr] {
					s.registeredEver[addr] = true
					s.results.BotsRegistered++
				}
				s.timeline.Record(s.sched.Now(), EventBotJoined, s.devName(addr))
			},
			OnBotLost: func(addr netip.Addr) {
				s.timeline.Record(s.sched.Now(), EventBotLost, s.devName(addr))
			},
		},
	}
	if s.cfg.p2p() {
		// The decentralized family: same exploit chain, same downloaded
		// binary path, but the binary joins a Kademlia overlay instead
		// of dialing home. The botmaster's keypair derives from the run
		// seed so same-seed runs sign byte-identical records.
		kseed := sha256.Sum256([]byte(fmt.Sprintf("ddosim/p2p-key/%d", s.cfg.Seed)))
		pub, priv := p2pbot.DeriveKey(kseed)
		atkCfg.P2P = true
		atkCfg.Seeder = p2pbot.SeederConfig{
			Key: priv,
			// The seeder's census is the family's recruitment signal:
			// first contact from a peer is the moment it joined the
			// overlay, the counterpart of a C&C registration.
			OnContact: func(addr netip.Addr) {
				if !s.registeredEver[addr] {
					s.registeredEver[addr] = true
					s.results.BotsRegistered++
				}
				s.timeline.Record(s.sched.Now(), EventBotJoined, s.devName(addr))
			},
		}
		atkCfg.P2PBot = p2pbot.BotConfig{
			PubKey:        pub,
			PollPeriod:    s.cfg.P2PPollPeriod,
			PayloadBytes:  s.cfg.PayloadBytes,
			StartJitter:   jitter,
			OnAttackStart: s.noteFloodStart,
		}
	}
	if s.cfg.Vector == VectorCredentials {
		// Credential recruitment: no exploit scripts; instead the
		// distributed bots scan and brute-force telnet, and a loader
		// pushes the infection command to reported victims.
		atkCfg.DisableExploitScripts = true
		atkCfg.Bot.Scan = mirai.ScanConfig{
			Enabled: true,
			Prefix:  netip.MustParsePrefix("10.0.0.0/24"),
			Period:  s.cfg.ScanPeriod,
			Skip:    []netip.Addr{s.tserver.Addr4()},
		}
	}
	atk, err := attacker.Deploy(s.engine, atkCfg)
	if err != nil {
		return err
	}
	s.attacker = atk

	if s.cfg.Vector == VectorCredentials {
		s.loader = mirai.NewLoader(mirai.LoaderConfig{
			InfectionCommand: exploit.InfectionCommand(atk.ScriptURL()),
			OnReport: func(victim netip.Addr) {
				if _, seen := s.firstReport[victim]; seen {
					return
				}
				now := s.sched.Now()
				s.firstReport[victim] = now
				// Scan phase: run start → a scanner first cracked the
				// victim and reported it.
				s.obs.Trace.RecordSpan(0, now, obs.CatKillChain, "scan",
					obs.KV{K: "dev", V: s.devName(victim)})
			},
			OnLoaded: func(victim netip.Addr) {
				dev, ok := s.devByAddr[victim]
				if !ok {
					return
				}
				if !s.infectedDevs[dev.name] {
					now := s.sched.Now()
					s.infectedDevs[dev.name] = true
					s.results.Infected++
					s.obs.Metrics.Counter("infections_total", "Devs recruited into the botnet").Inc()
					s.timeline.Record(now, EventLoaded, dev.name)
					s.obs.Trace.Event(now, obs.CatExploit, "exploit-success",
						obs.KV{K: "dev", V: dev.name}, obs.KV{K: "channel", V: "loader"})
					if at, ok := s.firstReport[victim]; ok {
						s.obs.Trace.RecordSpan(at, now, obs.CatKillChain, "load",
							obs.KV{K: "dev", V: dev.name})
					}
					s.obs.Trace.RecordSpan(0, now, obs.CatKillChain, "recruit",
						obs.KV{K: "dev", V: dev.name})
				}
			},
		})
		atk.Container.Spawn(s.loader)
		atk.Container.Spawn(mirai.SeedScannerBehavior(atk.BotTemplate.Scan, s.cfg.SeedCount))
	}
	return nil
}

// botCount reads the active family's recruitment census: live C&C
// registrations for mirai, distinct overlay peers ever heard for p2p.
func (s *Simulation) botCount() int {
	if s.attacker.Seeder != nil {
		return s.attacker.Seeder.Contacts
	}
	if s.attacker.CNC != nil {
		return s.attacker.CNC.BotCount()
	}
	return 0
}

// noteFloodStart is the flood-start bookkeeping both bot families run
// when a bot starts flooding.
func (s *Simulation) noteFloodStart(addr netip.Addr) {
	now := s.sched.Now()
	s.timeline.Record(now, EventFloodStart, s.devName(addr))
	s.obs.Trace.Event(now, obs.CatCNC, "flood-start",
		obs.KV{K: "dev", V: s.devName(addr)})
	if s.attackIssued {
		at := s.results.AttackIssuedAt
		s.obs.Trace.RecordSpan(at, now, obs.CatKillChain, "attack",
			obs.KV{K: "dev", V: s.devName(addr)})
		s.winCmdSum += (now - at).Seconds()
		s.winCmdN++
	}
}

func (s *Simulation) devName(addr netip.Addr) string {
	if d, ok := s.devByAddr[addr]; ok {
		return d.name
	}
	return addr.String()
}

func (s *Simulation) deployTServer() error {
	// TServer is an NS-3-style node, not a container (§II-C): modest
	// uplink, a downlink wide enough to be the shared bottleneck.
	s.tserver = s.star.AttachHostAsym("tserver",
		10*netsim.Mbps, s.cfg.TServerDownlink, s.cfg.LinkDelay, netsim.DefaultQueueLimit)
	var err error
	s.sink, err = netsim.InstallSink(s.tserver, s.cfg.AttackPort)
	if err != nil {
		return fmt.Errorf("core: tserver sink: %w", err)
	}
	return nil
}

// Loader exposes the Mirai loader (credentials vector only; nil
// otherwise).
func (s *Simulation) Loader() *mirai.Loader { return s.loader }

func (s *Simulation) deployDevs() error {
	if s.cfg.Vector == VectorCredentials {
		return s.deployTelnetDevs()
	}
	return s.deployVulnDaemonDevs()
}

// deployTelnetDevs builds the credential-vector fleet: BusyBox-style
// devices guarded only by a login, a WeakCredFraction of which ship
// dictionary credentials.
func (s *Simulation) deployTelnetDevs() error {
	img := &container.Image{
		Name: "ddosim/dev-busybox", Tag: "1.19", Arch: "x86_64",
		Files:      map[string][]byte{"/bin/telnetd": container.BinaryContent(imagecat.BinTelnetd, "x86_64")},
		ExecPaths:  map[string]bool{"/bin/telnetd": true},
		ExtraBytes: 3 << 20,
	}
	s.engine.RegisterImage(img)
	rng := rand.New(rand.NewSource(s.cfg.Seed ^ 0x5eed))
	for i := 0; i < s.cfg.NumDevs; i++ {
		name := fmt.Sprintf("dev-%03d", i+1)
		rate := s.cfg.MinDevRate +
			netsim.DataRate(rng.Int63n(int64(s.cfg.MaxDevRate-s.cfg.MinDevRate)+1))
		cred := telnetd.StrongCred
		weak := rng.Float64() < s.cfg.WeakCredFraction
		if weak {
			cred = telnetd.MiraiDictionary[rng.Intn(len(telnetd.MiraiDictionary))]
			s.results.WeakCredDevs++
		}
		c, err := s.engine.Create(img.Ref(), name, container.LinkConfig{
			Rate: rate, Delay: s.cfg.LinkDelay, QueueLimit: s.cfg.DevQueueLimit,
		})
		if err != nil {
			return fmt.Errorf("core: dev %s: %w", name, err)
		}
		dev := &Dev{name: name, binary: BinaryTelnetd, rate: rate, container: c}
		s.devs = append(s.devs, dev)
		s.devByAddr[c.Node().Addr4()] = dev
		if err := c.Start(); err != nil {
			return fmt.Errorf("core: dev %s: %w", name, err)
		}
		c.Spawn(telnetd.New(telnetd.Config{Cred: cred}))
		dev.respawn = func() bool {
			if c.FindByTCPPort(23) != nil {
				return false
			}
			c.Spawn(telnetd.New(telnetd.Config{Cred: cred}))
			return true
		}
	}
	return nil
}

func (s *Simulation) deployVulnDaemonDevs() error {
	connmanProg, dnsmasqProg := imagecat.Connman(), imagecat.Dnsmasq()
	if s.cfg.Hardened {
		connmanProg, dnsmasqProg = imagecat.HardenedConnman(), imagecat.HardenedDnsmasq()
	}
	connmanImg := &container.Image{
		Name: "ddosim/dev-connman", Tag: "1.34", Arch: "x86_64",
		Files:      map[string][]byte{"/usr/sbin/connmand": container.BinaryContent(imagecat.BinConnman, "x86_64")},
		ExecPaths:  map[string]bool{"/usr/sbin/connmand": true},
		Program:    connmanProg,
		ExtraBytes: 4 << 20,
	}
	dnsmasqImg := &container.Image{
		Name: "ddosim/dev-dnsmasq", Tag: "2.77", Arch: "x86_64",
		Files:      map[string][]byte{"/usr/sbin/dnsmasq": container.BinaryContent(imagecat.BinDnsmasq, "x86_64")},
		ExecPaths:  map[string]bool{"/usr/sbin/dnsmasq": true},
		Program:    dnsmasqProg,
		ExtraBytes: 4 << 20,
	}
	s.engine.RegisterImage(connmanImg)
	s.engine.RegisterImage(dnsmasqImg)

	// Dev parameters come from a dedicated stream so that runs with
	// the same seed but different churn modes get identical fleets —
	// common random numbers make the Fig. 2 churn comparison paired.
	rng := rand.New(rand.NewSource(s.cfg.Seed ^ 0x5eed))
	for i := 0; i < s.cfg.NumDevs; i++ {
		name := fmt.Sprintf("dev-%03d", i+1)
		bin := s.cfg.binaryFor(i)
		rate := s.cfg.MinDevRate +
			netsim.DataRate(rng.Int63n(int64(s.cfg.MaxDevRate-s.cfg.MinDevRate)+1))
		prot := procvm.Protections{WX: true, ASLR: true}
		if s.cfg.RandomProtections {
			prot = procvm.Protections{WX: rng.Intn(2) == 0, ASLR: rng.Intn(2) == 0}
		}
		if rng.Float64() < s.cfg.CanaryFraction {
			prot.Canary = true
			s.results.CanaryDevs++
		}

		ref := connmanImg.Ref()
		if bin == BinaryDnsmasq {
			ref = dnsmasqImg.Ref()
		}
		c, err := s.engine.Create(ref, name, container.LinkConfig{
			Rate: rate, Delay: s.cfg.LinkDelay, QueueLimit: s.cfg.DevQueueLimit,
		})
		if err != nil {
			return fmt.Errorf("core: dev %s: %w", name, err)
		}
		dev := &Dev{name: name, binary: bin, prot: prot, rate: rate, container: c}
		s.devs = append(s.devs, dev)
		s.devByAddr[c.Node().Addr4()] = dev

		if err := c.Start(); err != nil {
			return fmt.Errorf("core: dev %s: %w", name, err)
		}
		if s.cfg.RemoveCurl {
			c.RemoveCommand("curl")
			c.RemoveCommand("wget")
		}
		outcome := s.outcomeHook(dev)
		switch bin {
		case BinaryConnman:
			// §V-C: Devs are manually pointed at the malicious DNS
			// server.
			c.FS().Write("/etc/resolv.conf",
				[]byte("nameserver "+s.attacker.Container.Node().Addr4().String()+"\n"))
			spawn := func() {
				c.Spawn(connman.New(connman.Config{
					Protections: prot,
					QueryPeriod: s.cfg.ConnmanQueryPeriod,
					Program:     connmanProg,
					OnOutcome:   outcome,
				}))
			}
			spawn()
			dev.respawn = daemonRespawn(c, imagecat.BinConnman, spawn)
		case BinaryDnsmasq:
			spawn := func() {
				c.Spawn(dnsmasq.New(dnsmasq.Config{
					Protections: prot,
					Program:     dnsmasqProg,
					OnOutcome:   outcome,
				}))
			}
			spawn()
			dev.respawn = daemonRespawn(c, imagecat.BinDnsmasq, spawn)
		}
	}
	return nil
}

// daemonRespawn builds a supervisor hook that respawns a Dev's service
// daemon unless a live process with its title is still around.
func daemonRespawn(c *container.Container, title string, spawn func()) func() bool {
	return func() bool {
		for _, p := range c.Procs() {
			if p.Title() == title {
				return false
			}
		}
		spawn()
		return true
	}
}

func (s *Simulation) outcomeHook(dev *Dev) func(procvm.HijackOutcome) {
	reg := s.obs.Metrics
	ctrAttempts := reg.Counter("exploit_attempts_total", "attacker payloads parsed by Dev daemons")
	ctrHijacked := reg.Counter("exploit_hijacked_total", "payloads that overwrote a return address")
	ctrInfected := reg.Counter("infections_total", "Devs recruited into the botnet")
	ctrCrashed := reg.Counter("exploit_crashes_total", "daemons crashed by a payload (defenses held)")
	return func(out procvm.HijackOutcome) {
		s.results.ExploitAttempts++
		ctrAttempts.Inc()
		if _, ok := s.firstAttempt[dev.name]; !ok {
			s.firstAttempt[dev.name] = s.sched.Now()
		}
		if out.Hijacked {
			s.results.Hijacked++
			ctrHijacked.Inc()
		}
		switch {
		case out.ExecutedShell != "":
			if !s.infectedDevs[dev.name] {
				now := s.sched.Now()
				s.infectedDevs[dev.name] = true
				s.results.Infected++
				ctrInfected.Inc()
				s.timeline.Record(now, EventExploitHit, dev.name)
				s.obs.Trace.Event(now, obs.CatExploit, "exploit-success",
					obs.KV{K: "dev", V: dev.name}, obs.KV{K: "binary", V: string(dev.binary)})
				// Exploit phase: first payload parsed → shell executed;
				// recruit covers the whole chain from the run's start.
				s.obs.Trace.RecordSpan(s.firstAttempt[dev.name], now,
					obs.CatKillChain, "exploit", obs.KV{K: "dev", V: dev.name})
				s.obs.Trace.RecordSpan(0, now, obs.CatKillChain, "recruit",
					obs.KV{K: "dev", V: dev.name})
			}
		case out.Crashed():
			s.results.Crashed++
			ctrCrashed.Inc()
			s.timeline.Record(s.sched.Now(), EventExploitCrash, dev.name)
			s.obs.Trace.Event(s.sched.Now(), obs.CatExploit, "exploit-crash",
				obs.KV{K: "dev", V: dev.name}, obs.KV{K: "binary", V: string(dev.binary)})
		}
	}
}

func (s *Simulation) snapshot() resources.Snapshot {
	st := s.net.Stats()
	return resources.Snapshot{
		ContainerBytes:  s.engine.TotalMemBytes(),
		TxFrames:        st.TxFrames,
		EventsProcessed: s.sched.Processed(),
		PeakQueued:      st.PeakQueued,
	}
}

func (s *Simulation) onlineDevs() int {
	n := 0
	for _, d := range s.devs {
		if d.Online() {
			n++
		}
	}
	return n
}

// Run executes the scenario to the configured horizon and returns the
// measurements.
func (s *Simulation) Run() (*Results, error) {
	s.results.DevsTotal = s.cfg.NumDevs
	s.results.AttackIssuedAt = -1

	// Churn applies from the outset (§IV-A); the fault scenario, when
	// declared, runs alongside it.
	s.churnCtl.Start()
	if s.faults != nil {
		s.faults.Start()
	}

	s.recruitSpan = s.obs.Trace.BeginSpan(s.sched.Now(), obs.CatPhase, "recruitment")

	// Recruitment watcher: issue the attack once every online Dev is
	// a registered bot, or at the recruitment deadline. It doubles as
	// the per-second sampler of the scheduler queue-depth gauge.
	queueDepth := s.obs.Metrics.Gauge("sim_queue_depth", "scheduler events pending right now")
	watcher := sim.NewTicker(s.sched, sim.Second, func() {
		queueDepth.Set(float64(s.sched.Pending()))
		if s.attackIssued {
			return
		}
		online := s.onlineDevs()
		full := online > 0 && s.botCount() >= online
		if full || s.sched.Now() >= s.cfg.RecruitTimeout {
			s.issueAttack()
		}
	})
	watcher.Source = "core.watcher"
	watcher.Start()

	// Windowed time-series sampler: one row per WindowSize of sim time.
	windowTicker := sim.NewTicker(s.sched, s.cfg.WindowSize, func() {
		s.windows.Sample(s.sched.Now())
	})
	windowTicker.Source = "obs.windows"
	windowTicker.Start()

	if err := s.sched.Run(s.cfg.SimDuration); err != nil {
		return nil, fmt.Errorf("core: run: %w", err)
	}
	watcher.Stop()
	windowTicker.Stop()
	s.net.StopFlows()
	s.churnCtl.Stop()
	if s.faults != nil {
		s.faults.Stop()
	}

	if s.attackIssued && !s.postTaken {
		s.postSnap = s.snapshot()
		s.postTaken = true
	}
	s.assemble()
	return &s.results, nil
}

func (s *Simulation) issueAttack() {
	s.attackIssued = true
	s.preSnap = s.snapshot()
	now := s.sched.Now()
	s.results.AttackIssuedAt = now
	s.obs.Trace.EndSpan(s.recruitSpan, now)
	method := s.cfg.AttackMethod
	if method == "" {
		method = mirai.MethodUDPPlain
	}
	s.attackSpan = s.obs.Trace.BeginSpan(now, obs.CatPhase, "attack",
		obs.KV{K: "method", V: method},
		obs.KV{K: "duration_s", V: fmt.Sprint(s.cfg.AttackDuration)})
	target := s.tserver.Addr4()
	if s.cfg.AttackOverIPv6 {
		target = s.tserver.Addr6()
	}
	// Flood flows open after this instant; label them by their exact
	// target endpoint so the exported dataset separates attack traffic
	// from everything else.
	s.net.AddFlowLabelRule(netsim.FlowLabelRule{
		Endpoint: netip.AddrPortFrom(target, s.cfg.AttackPort), Label: "attack"})
	var n int
	if s.attacker.Seeder != nil {
		// P2P: sign one record with the campaign's absolute end and
		// replicate it; polls, pushes, and the republish pump carry it
		// to the fleet. BotsAtCommand is the census at the instant the
		// record goes out — unlike mirai there is no per-bot delivery
		// count to report.
		end := now + sim.Time(s.cfg.AttackDuration)*sim.Second
		n = s.attacker.Seeder.Contacts
		s.attacker.Seeder.PublishAttack(method,
			netip.AddrPortFrom(target, s.cfg.AttackPort), end)
	} else {
		dur := s.cfg.AttackDuration
		if s.cfg.CommandWave > 0 {
			// Heartbeat mode: each order only covers the gap to the
			// next wave (plus a second of slack), so the flood lives
			// exactly as long as the C&C keeps re-commanding it — the
			// centralized dependence the takedown contrast measures.
			dur = s.waveSecs(s.cfg.AttackDuration)
		}
		n = s.attacker.CNC.LaunchAttack(mirai.AttackCommand{
			Method:   method,
			Target:   target,
			Port:     s.cfg.AttackPort,
			Duration: dur,
		})
		if s.cfg.CommandWave > 0 {
			s.scheduleCommandWaves(method, target, now+sim.Time(s.cfg.AttackDuration)*sim.Second)
		}
	}
	s.results.BotsAtCommand = n
	s.timeline.Record(now, EventAttackOrder, fmt.Sprintf("%d bots", n))
	if s.faults != nil {
		// Order-relative fault scenarios (the permanent takedown) key
		// off this instant.
		s.faults.OnAttackOrder()
	}

	// The attack phase span ends when the commanded flood duration
	// elapses (individual bots may trail off later due to jitter).
	s.sched.Schedule(sim.Time(s.cfg.AttackDuration)*sim.Second, func() {
		s.obs.Trace.EndSpan(s.attackSpan, s.sched.Now())
	})

	// Post-attack snapshot: after the last jittered bot finishes,
	// plus queue-drain grace.
	jitter := sim.Time(s.cfg.NumDevs) * s.cfg.StartJitterPerDev
	post := sim.Time(s.cfg.AttackDuration)*sim.Second + jitter + 10*sim.Second
	s.sched.Schedule(post, func() {
		if !s.postTaken {
			s.postSnap = s.snapshot()
			s.postTaken = true
		}
	})
}

// waveSecs is the heartbeat order's duration: one wave plus a second
// of slack so floods bridge the gap to the next order, capped at the
// remaining window.
func (s *Simulation) waveSecs(remaining int) int {
	w := int(s.cfg.CommandWave/sim.Second) + 1
	if w > remaining {
		w = remaining
	}
	return w
}

// scheduleCommandWaves re-sends the heartbeat order every CommandWave
// until the commanded window ends. A bot whose C&C line dropped and
// came back mid-attack picks the flood up at the next wave; when the
// C&C dies for good the whole flood starves within one wave.
func (s *Simulation) scheduleCommandWaves(method string, target netip.Addr, end sim.Time) {
	var wave func()
	wave = func() {
		now := s.sched.Now()
		remaining := int((end - now) / sim.Second)
		if remaining <= 0 {
			return
		}
		s.attacker.CNC.LaunchAttack(mirai.AttackCommand{
			Method:   method,
			Target:   target,
			Port:     s.cfg.AttackPort,
			Duration: s.waveSecs(remaining),
		})
		s.sched.ScheduleSrc(s.cfg.CommandWave, "core.cmdwave", wave)
	}
	s.sched.ScheduleSrc(s.cfg.CommandWave, "core.cmdwave", wave)
}

func (s *Simulation) assemble() {
	r := &s.results
	// Finalize the telemetry artifacts: emit the tail window (idempotent
	// when the ticker already sampled this instant) and close every
	// still-open flow so the dataset accounts each offered packet.
	s.windows.Sample(s.sched.Now())
	s.net.FlushFlows(s.sched.Now())
	r.Flows = s.flowBuf.Stats()
	r.NetStats = s.net.Stats()
	r.ChurnDepartures = s.churnCtl.Departures()
	r.ChurnRejoins = s.churnCtl.Rejoins()
	r.SinkBytes = s.sink.Series().TotalBytes()
	r.DistinctSources = s.sink.DistinctSources()
	r.Timeline = s.timeline
	if s.faults != nil {
		st := s.faults.Stats()
		r.Faults = &st
	}

	// Seal the observability layer: close dangling phase spans, mirror
	// the kernel counters into the registry, and condense a summary.
	s.obs.Trace.CloseOpenSpans(s.sched.Now())
	r.Phases = obs.SummarizePhases(s.obs.Trace.Spans(), obs.CatKillChain, faults.CatFault)
	reg := s.obs.Metrics
	reg.Gauge("sim_events_processed", "scheduler events executed this run").
		Set(float64(s.sched.Processed()))
	reg.Gauge("sim_queue_depth", "scheduler events pending right now").
		Set(float64(s.sched.Pending()))
	if r.AttackIssuedAt > 0 {
		reg.Gauge("infections_per_sec", "mean infections per second up to the attack order").
			Set(float64(r.Infected) / r.AttackIssuedAt.Seconds())
	}
	reg.Gauge("sink_rx_bytes_total", "attack bytes TServer's sink logged").
		Set(float64(r.SinkBytes))
	r.Obs = s.obs.Summarize()

	if s.attackIssued {
		from := int64(r.AttackIssuedAt / sim.Second)
		to := from + int64(s.cfg.AttackDuration)
		r.DReceivedKbps = s.sink.Series().AvgReceivedKbps(from, to)
		r.PerSecondKbps = s.sink.Series().KbpsSeries(from, to)
		r.Usage = resources.Estimate(resources.Inputs{
			Devs:          s.cfg.NumDevs,
			PreAttack:     s.preSnap,
			PostAttack:    s.postSnap,
			CommandedSecs: float64(s.cfg.AttackDuration),
		})
	}
}
