package core

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"

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
	"ddosim/internal/mirai"
	"ddosim/internal/netsim"
	"ddosim/internal/obs"
	"ddosim/internal/p2pbot"
	"ddosim/internal/procvm"
	"ddosim/internal/resources"
	"ddosim/internal/sim"
)

// Sources labelling the run's own scheduler events.
var (
	srcWatcher = sim.NewSource("core.watcher")
	srcWindows = sim.NewSource("obs.windows")
	srcCmdWave = sim.NewSource("core.cmdwave")
	srcAttack  = sim.NewSource("core.attack")
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

	// The Dev's kill-chain record, each time -1 until it happens and
	// then set once. firstPayload is when the Dev first parsed an
	// attacker payload and firstReport when a scanner first reported it
	// to the loader; they anchor the "exploit" and "load" spans.
	// infectedAt is when it was first infected, registeredAt when its
	// bot first joined the botnet, and floodAt when it first sent a
	// flood packet after the attack order. recordKillChain builds every
	// kill-chain view from these when the run ends.
	firstPayload, firstReport         sim.Time
	infectedAt, registeredAt, floodAt sim.Time
}

// Name implements churn.Device.
func (d *Dev) Name() string { return d.name }

// SetOnline implements churn.Device by flipping the Dev's link.
func (d *Dev) SetOnline(up bool) { d.container.Node().DefaultDevice().SetUp(up) }

// Online implements churn.Device.
func (d *Dev) Online() bool { return d.container.Node().DefaultDevice().IsUp() }

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
	timeline Timeline
	obs      *obs.Obs

	// devByAddr finds the Dev behind an address a callback hands over.
	// Every such address is a Dev's: the scanners skip the attacker and
	// TServer, the router holds no address, and only Devs run bots. So
	// a lookup cannot miss; the callbacks ignore a miss rather than
	// count a stranger.
	devByAddr map[netip.Addr]*Dev

	recruitSpan obs.SpanID
	attackSpan  obs.SpanID

	// Telemetry pipeline: exported flow records and windowed time series.
	flowBuf *obs.FlowBuffer
	windows *obs.Windows
	// winCmdSum/winCmdN accumulate command→flood latencies inside the
	// current window, each measured from orderAt, the latest order's
	// issue (the attack's, then each command wave's); the
	// cnc_cmd_latency_s column drains them.
	winCmdSum float64
	winCmdN   int
	orderAt   sim.Time

	// cncRegistered, cncLost and cncCommands count the C&C's
	// registrations, bot losses and attack commands across every
	// instance a run executes: a crashed C&C's replacement starts its
	// own counts from zero.
	cncRegistered, cncLost, cncCommands uint64

	results Results

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
	s := &Simulation{
		cfg:       cfg,
		obs:       obs.New(),
		devByAddr: make(map[netip.Addr]*Dev),
	}
	s.sched = sim.NewScheduler(cfg.Seed)
	s.net = netsim.New(s.sched)
	s.net.Observe(s.obs)
	s.star = netsim.NewStar(s.net)
	s.engine = container.NewEngine(s.sched, s.star)

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
	s.churnCtl.SetEpoch(cfg.ChurnEpoch)
	s.churnCtl.OnChange = func(at sim.Time, dev churn.Device, online bool) {
		kind := EventChurnOffline
		if online {
			kind = EventChurnOnline
		}
		s.timeline.record(at, kind, dev.Name())
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
	s.net.EnableFlows(s.flowBuf)
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
	w.DeltaColumn("sink_rx_bytes", func() float64 { return float64(s.sink.TotalBytes()) })
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
		s.timeline.record(s.sched.Now(), kind, actor)
	}
	for _, dev := range s.devs {
		dev := dev
		inj.AddLink(dev.name, dev.container.Node().DefaultDevice())
		inj.AddProcTarget(faults.ProcTarget{
			Name: dev.name,
			Crash: func(rng *rand.Rand) (string, bool) {
				procs := dev.container.Procs()
				if len(procs) == 0 {
					return "", false
				}
				p := procs[rng.Intn(len(procs))]
				what := p.Title()
				if p.Malware() != "" {
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
				return what, true
			},
			Restart: func(string) bool {
				if dev.respawn == nil {
					return false
				}
				return dev.respawn()
			},
		})
	}
	// The botmaster's process: the C&C, or the P2P family's seeder.
	// Crash and restart re-exec its binary, and the attacker's factory
	// rebinds s.attacker.CNC or .Seeder to the fresh instance; the
	// takedown scenario kills it for good, the fault whose blast radius
	// the P2P family shrinks.
	atkC, title := s.attacker.Container, "cnc"
	if s.cfg.p2p() {
		title = "p2p-seed"
	}
	inj.SetCNC("attacker", atkC.Node().DefaultDevice(), faults.ProcTarget{
		Name: "attacker",
		Crash: func(*rand.Rand) (string, bool) {
			p := procTitled(atkC, title)
			if p == nil {
				return "", false
			}
			atkC.Kill(p.PID())
			return title, true
		},
		Restart: func(string) bool {
			if procTitled(atkC, title) != nil {
				return false
			}
			_, err := atkC.ExecFile("/usr/bin/"+title, nil)
			return err == nil
		},
	})
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

// Obs exposes the run's observability bundle (tracer and metrics
// registry).
func (s *Simulation) Obs() *obs.Obs { return s.obs }

// Flows exposes the buffered flow records exported during the run.
func (s *Simulation) Flows() *obs.FlowBuffer { return s.flowBuf }

// Windows exposes the windowed time-series metrics.
func (s *Simulation) Windows() *obs.Windows { return s.windows }

func (s *Simulation) deployAttacker() error {
	jitter := sim.Time(0)
	if s.cfg.StartJitterPerDev > 0 {
		jitter = sim.Time(s.cfg.NumDevs) * s.cfg.StartJitterPerDev
	}
	atkCfg := attacker.Config{
		Obs: s.obs,
		Bot: mirai.BotConfig{
			PayloadBytes:  s.cfg.PayloadBytes,
			StartJitter:   jitter,
			OnAttackStart: s.noteFloodStart,
		},
		CNC: mirai.CNCConfig{
			ReplayAttackCommand: s.cfg.CNCReplayAttack,
			OnBotRegistered: func(addr netip.Addr, _ string) {
				s.cncRegistered++
				s.noteJoined(addr)
			},
			OnBotLost: func(addr netip.Addr) {
				s.cncLost++
				if dev, ok := s.devByAddr[addr]; ok {
					s.timeline.record(s.sched.Now(), EventBotLost, dev.name)
				}
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
			OnContact: s.noteJoined,
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
				if dev, ok := s.devByAddr[victim]; ok && dev.firstReport < 0 {
					dev.firstReport = s.sched.Now()
				}
			},
			OnLoaded: func(victim netip.Addr) {
				if dev, ok := s.devByAddr[victim]; ok {
					s.infect(dev, EventLoaded)
				}
			},
		})
		atk.Container.Spawn(s.loader)
		atk.Container.Spawn(mirai.SeedScannerBehavior(atk.BotTemplate.Scan, seedCount))
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
// when a bot sends its first flood packet of an order. floodAt keeps
// the Dev's first; the command-latency column counts every start.
func (s *Simulation) noteFloodStart(addr netip.Addr) {
	dev, ok := s.devByAddr[addr]
	if !ok {
		return
	}
	now := s.sched.Now()
	s.timeline.record(now, EventFloodStart, dev.name)
	if s.attackIssued {
		if dev.floodAt < 0 {
			dev.floodAt = now
		}
		s.winCmdSum += (now - s.orderAt).Seconds()
		s.winCmdN++
	}
}

// noteJoined is the registration bookkeeping both bot families run: a
// bot registered with the C&C, or the seeder first heard from a peer.
// A Dev counts once however often its bot rejoins.
func (s *Simulation) noteJoined(addr netip.Addr) {
	dev, ok := s.devByAddr[addr]
	if !ok {
		return
	}
	if dev.registeredAt < 0 {
		dev.registeredAt = s.sched.Now()
		s.results.BotsRegistered++
	}
	s.timeline.record(s.sched.Now(), EventBotJoined, dev.name)
}

// infect is the infection bookkeeping both recruitment vectors run: the
// exploit's shell ran, or the loader pushed the bot. A Dev counts once
// however often it is re-infected; kind names the timeline event.
func (s *Simulation) infect(dev *Dev, kind string) {
	if dev.infectedAt >= 0 {
		return
	}
	dev.infectedAt = s.sched.Now()
	s.results.Infected++
	s.timeline.record(dev.infectedAt, kind, dev.name)
}

func (s *Simulation) deployTServer() error {
	// TServer is an NS-3-style node, not a container (§II-C): modest
	// uplink, a downlink wide enough to be the shared bottleneck.
	s.tserver = s.star.AttachHostAsym("tserver",
		10*netsim.Mbps, s.cfg.TServerDownlink, linkDelay, netsim.DefaultQueueLimit)
	var err error
	s.sink, err = netsim.InstallSink(s.tserver, attackPort)
	if err != nil {
		return fmt.Errorf("core: tserver sink: %w", err)
	}
	return nil
}

// Loader exposes the Mirai loader (credentials vector only; nil
// otherwise).
func (s *Simulation) Loader() *mirai.Loader { return s.loader }

// deployDevs builds the fleet: BusyBox-style devices guarded only by a
// telnet login, a WeakCredFraction of which ship dictionary
// credentials, under the credentials vector; Connman and Dnsmasq
// devices otherwise. Dev parameters come from a dedicated stream, drawn
// in a fixed order (rate, then credential, or protections and canary),
// so that runs with the same seed but different churn modes get
// identical fleets — common random numbers make the Fig. 2 churn
// comparison paired.
func (s *Simulation) deployDevs() error {
	images := s.registerDevImages()
	rng := rand.New(rand.NewSource(s.cfg.Seed ^ 0x5eed))
	for i := 0; i < s.cfg.NumDevs; i++ {
		dev := &Dev{name: fmt.Sprintf("dev-%03d", i+1), binary: s.cfg.binaryFor(i),
			firstPayload: -1, firstReport: -1, infectedAt: -1, registeredAt: -1, floodAt: -1}
		dev.rate = s.cfg.MinDevRate +
			netsim.DataRate(rng.Int63n(int64(s.cfg.MaxDevRate-s.cfg.MinDevRate)+1))
		var cred telnetd.Cred // the zero Cred is telnetd.StrongCred
		if dev.binary == BinaryTelnetd {
			if rng.Float64() < s.cfg.WeakCredFraction {
				cred = telnetd.MiraiDictionary[rng.Intn(len(telnetd.MiraiDictionary))]
				s.results.WeakCredDevs++
			}
		} else {
			dev.prot = procvm.Protections{WX: true, ASLR: true}
			if s.cfg.RandomProtections {
				dev.prot = procvm.Protections{WX: rng.Intn(2) == 0, ASLR: rng.Intn(2) == 0}
			}
			if rng.Float64() < s.cfg.CanaryFraction {
				dev.prot.Canary = true
				s.results.CanaryDevs++
			}
		}

		c, err := s.engine.Create(images[dev.binary].Ref(), dev.name, container.LinkConfig{
			Rate: dev.rate, Delay: linkDelay, QueueLimit: s.cfg.DevQueueLimit,
		})
		if err != nil {
			return fmt.Errorf("core: dev %s: %w", dev.name, err)
		}
		dev.container = c
		s.devs = append(s.devs, dev)
		s.devByAddr[c.Node().Addr4()] = dev
		if err := c.Start(); err != nil {
			return fmt.Errorf("core: dev %s: %w", dev.name, err)
		}

		if s.cfg.RemoveCurl {
			c.RemoveCommand("curl")
			c.RemoveCommand("wget")
		}
		// spawn starts the Dev's service daemon, and running reports
		// whether it still runs, which the fault injector's respawn asks.
		var spawn func()
		running := func() bool { return procTitled(c, string(dev.binary)) != nil }
		switch dev.binary {
		case BinaryTelnetd:
			spawn = func() { c.Spawn(telnetd.New(telnetd.Config{Cred: cred})) }
			// The bot takes port 23 over once it runs, so telnetd is
			// missing only while nothing holds that port.
			running = func() bool { return c.FindByTCPPort(23) != nil }
		case BinaryConnman:
			// §V-C: Devs are manually pointed at the malicious DNS
			// server.
			c.FS().Write("/etc/resolv.conf",
				[]byte("nameserver "+s.attacker.Container.Node().Addr4().String()+"\n"))
			spawn = func() {
				c.Spawn(connman.New(connman.Config{
					Protections: dev.prot,
					QueryPeriod: s.cfg.ConnmanQueryPeriod,
					Program:     c.Image().Program,
					OnOutcome:   s.outcomeHook(dev),
				}))
			}
		case BinaryDnsmasq:
			spawn = func() {
				c.Spawn(dnsmasq.New(dnsmasq.Config{
					Protections: dev.prot,
					Program:     c.Image().Program,
					OnOutcome:   s.outcomeHook(dev),
				}))
			}
		}
		spawn()
		dev.respawn = func() bool {
			if running() {
				return false
			}
			spawn()
			return true
		}
	}
	return nil
}

// registerDevImages registers the images the fleet boots, keyed by
// the daemon each holds: the PIE rebuilds of Connman and Dnsmasq when
// the fleet is hardened.
func (s *Simulation) registerDevImages() map[DevBinary]*container.Image {
	images := make(map[DevBinary]*container.Image)
	add := func(bin DevBinary, path string, img *container.Image) {
		img.Files = map[string][]byte{path: container.BinaryContent(string(bin), "x86_64")}
		img.ExecPaths = map[string]bool{path: true}
		s.engine.RegisterImage(img)
		images[bin] = img
	}
	if s.cfg.Vector == VectorCredentials {
		add(BinaryTelnetd, "/bin/telnetd", &container.Image{
			Name: "ddosim/dev-busybox", Tag: "1.19", Arch: "x86_64", ExtraBytes: 3 << 20})
		return images
	}
	connmanProg, dnsmasqProg := imagecat.Connman(), imagecat.Dnsmasq()
	if s.cfg.Hardened {
		connmanProg, dnsmasqProg = imagecat.HardenedConnman(), imagecat.HardenedDnsmasq()
	}
	add(BinaryConnman, "/usr/sbin/connmand", &container.Image{
		Name: "ddosim/dev-connman", Tag: "1.34", Arch: "x86_64", Program: connmanProg, ExtraBytes: 4 << 20})
	add(BinaryDnsmasq, "/usr/sbin/dnsmasq", &container.Image{
		Name: "ddosim/dev-dnsmasq", Tag: "2.77", Arch: "x86_64", Program: dnsmasqProg, ExtraBytes: 4 << 20})
	return images
}

// procTitled returns c's lowest-pid live process with the given title,
// or nil.
func procTitled(c *container.Container, title string) *container.Process {
	for _, p := range c.Procs() {
		if p.Title() == title {
			return p
		}
	}
	return nil
}

func (s *Simulation) outcomeHook(dev *Dev) func(procvm.HijackOutcome) {
	return func(out procvm.HijackOutcome) {
		s.results.ExploitAttempts++
		if dev.firstPayload < 0 {
			dev.firstPayload = s.sched.Now()
		}
		if out.Hijacked {
			s.results.Hijacked++
		}
		switch {
		case out.ExecutedShell != "":
			s.infect(dev, EventExploitHit)
		case out.Crashed():
			s.results.Crashed++
			s.timeline.record(s.sched.Now(), EventExploitCrash, dev.name)
			s.obs.Trace.Event(s.sched.Now(), obs.CatExploit, "exploit-crash",
				obs.KV{K: "dev", V: dev.name}, obs.KV{K: "binary", V: string(dev.binary)})
		}
	}
}

func (s *Simulation) snapshot() resources.Snapshot {
	st := s.net.Stats()
	return resources.Snapshot{
		ContainerBytes: s.engine.TotalMemBytes(),
		TxFrames:       st.TxFrames,
		PeakQueued:     st.PeakQueued,
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
	// a registered bot, or at the recruitment deadline.
	watcher := sim.NewTicker(s.sched, sim.Second, srcWatcher, func() {
		if s.attackIssued {
			return
		}
		online := s.onlineDevs()
		full := online > 0 && s.botCount() >= online
		if full || s.sched.Now() >= s.cfg.RecruitTimeout {
			s.issueAttack()
		}
	})
	watcher.Start()

	// Windowed time-series sampler: one row per WindowSize of sim time.
	windowTicker := sim.NewTicker(s.sched, s.cfg.WindowSize, srcWindows, func() {
		s.windows.Sample(s.sched.Now())
	})
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
	s.results.AttackIssuedAt, s.orderAt = now, now
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
		Endpoint: netip.AddrPortFrom(target, attackPort), Label: "attack"})
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
			netip.AddrPortFrom(target, attackPort), end)
	} else {
		dur := s.cfg.AttackDuration
		if s.cfg.CommandWave > 0 {
			// Heartbeat mode: each order only covers the gap to the
			// next wave (plus a second of slack), so the flood lives
			// exactly as long as the C&C keeps re-commanding it — the
			// centralized dependence the takedown contrast measures.
			dur = s.waveSecs(s.cfg.AttackDuration)
		}
		s.cncCommands++
		n = s.attacker.CNC.LaunchAttack(mirai.AttackCommand{
			Method:   method,
			Target:   target,
			Port:     attackPort,
			Duration: dur,
		})
		if s.cfg.CommandWave > 0 {
			s.scheduleCommandWaves(method, target, now+sim.Time(s.cfg.AttackDuration)*sim.Second)
		}
	}
	s.results.BotsAtCommand = n
	s.timeline.record(now, EventAttackOrder, fmt.Sprintf("%d bots", n))
	if s.faults != nil {
		// Order-relative fault scenarios (the permanent takedown) key
		// off this instant.
		s.faults.OnAttackOrder()
	}

	// The attack phase span ends when the commanded flood duration
	// elapses (individual bots may trail off later due to jitter).
	s.sched.Schedule(sim.Time(s.cfg.AttackDuration)*sim.Second, srcAttack, func() {
		s.obs.Trace.EndSpan(s.attackSpan, s.sched.Now())
	})

	// Post-attack snapshot: after the last jittered bot finishes,
	// plus queue-drain grace.
	jitter := sim.Time(s.cfg.NumDevs) * s.cfg.StartJitterPerDev
	post := sim.Time(s.cfg.AttackDuration)*sim.Second + jitter + 10*sim.Second
	s.sched.Schedule(post, srcAttack, func() {
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
// C&C dies for good the whole flood starves within one wave. Only a
// running C&C sends a wave: while a crash or takedown has killed it the
// wave is skipped, and the timer keeps going so a restarted C&C resumes.
func (s *Simulation) scheduleCommandWaves(method string, target netip.Addr, end sim.Time) {
	var wave func()
	wave = func() {
		now := s.sched.Now()
		remaining := int((end - now) / sim.Second)
		if remaining <= 0 {
			return
		}
		if procTitled(s.attacker.Container, "cnc") != nil {
			s.orderAt = now
			s.cncCommands++
			s.attacker.CNC.LaunchAttack(mirai.AttackCommand{
				Method:   method,
				Target:   target,
				Port:     attackPort,
				Duration: s.waveSecs(remaining),
			})
		}
		s.sched.Schedule(s.cfg.CommandWave, srcCmdWave, wave)
	}
	s.sched.Schedule(s.cfg.CommandWave, srcCmdWave, wave)
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
	r.SinkBytes = s.sink.TotalBytes()
	r.DistinctSources = s.sink.DistinctSources()
	r.Timeline = &s.timeline
	if s.faults != nil {
		st := s.faults.Stats()
		r.Faults = &st
	}

	// Seal the observability layer: build the kill-chain views, close
	// dangling phase spans, publish the run's counts to the registry,
	// and condense a summary.
	s.recordKillChain()
	s.obs.Trace.CloseOpenSpans(s.sched.Now())
	r.Phases = obs.SummarizePhases(s.obs.Trace.Spans(), obs.CatKillChain, faults.CatFault)
	reg := s.obs.Metrics
	st := r.NetStats
	for _, c := range s.counterRows() {
		reg.Counter(c.name, c.help, c.v)
	}
	reg.Gauge("net_queue_depth", "frames buffered anywhere in the network right now", float64(st.QueuedNow))
	reg.Gauge("net_queue_depth_peak", "peak frames buffered anywhere in the network", float64(st.PeakQueued))
	reg.Gauge("sim_events_processed", "scheduler events executed this run", float64(s.sched.Processed()))
	reg.Gauge("sim_queue_depth", "scheduler events pending right now", float64(s.sched.Pending()))
	if r.AttackIssuedAt > 0 {
		reg.Gauge("infections_per_sec", "mean infections per second up to the attack order",
			float64(r.Infected)/r.AttackIssuedAt.Seconds())
	}
	reg.Gauge("sink_rx_bytes_total", "attack bytes TServer's sink logged", float64(r.SinkBytes))
	r.Obs = s.obs.Summarize(s.sched)

	if s.attackIssued {
		from := int64(r.AttackIssuedAt / sim.Second)
		to := from + int64(s.cfg.AttackDuration)
		r.DReceivedKbps = s.sink.AvgReceivedKbps(from, to)
		r.PerSecondKbps = s.sink.KbpsSeries(from, to)
		r.Usage = resources.Estimate(resources.Inputs{
			Devs:          s.cfg.NumDevs,
			PreAttack:     s.preSnap,
			PostAttack:    s.postSnap,
			CommandedSecs: float64(s.cfg.AttackDuration),
		})
	}
}

// recordKillChain builds each Dev's kill-chain spans from its record,
// Dev by Dev in fleet order, and collects the infection times the
// infection curve reads. It is the only place killchain spans are
// recorded. Each stage runs from its anchor to the Dev's time:
//   - scan: run start → a scanner first reported the Dev;
//   - exploit: first payload parsed → shell executed (memory-error
//     vector), or load: first report → the loader's push ran
//     (credentials vector);
//   - recruit: run start → infected;
//   - register: infected → the bot first joined the botnet;
//   - attack: the order's issue → the Dev's first flood packet.
//
// An anchor is always set by its stage's end: a Dev parses a payload
// before its shell runs, and the loader pushes only to a victim a
// scanner reported.
func (s *Simulation) recordKillChain() {
	r, tr := &s.results, s.obs.Trace
	for _, d := range s.devs {
		dev := obs.KV{K: "dev", V: d.name}
		if d.firstReport >= 0 {
			tr.RecordSpan(0, d.firstReport, obs.CatKillChain, "scan", dev)
		}
		if d.infectedAt >= 0 {
			if s.cfg.Vector == VectorCredentials {
				tr.RecordSpan(d.firstReport, d.infectedAt, obs.CatKillChain, "load", dev)
			} else {
				tr.RecordSpan(d.firstPayload, d.infectedAt, obs.CatKillChain, "exploit", dev,
					obs.KV{K: "binary", V: string(d.binary)})
			}
			tr.RecordSpan(0, d.infectedAt, obs.CatKillChain, "recruit", dev)
			r.infectedAt = append(r.infectedAt, d.infectedAt)
		}
		if d.registeredAt >= 0 {
			tr.RecordSpan(d.infectedAt, d.registeredAt, obs.CatKillChain, "register", dev)
		}
		if d.floodAt >= 0 {
			tr.RecordSpan(r.AttackIssuedAt, d.floodAt, obs.CatKillChain, "attack", dev)
		}
	}
	slices.Sort(r.infectedAt)
}

// counterRow is one registry counter and the run's own count behind it.
type counterRow struct {
	name, help string
	v          uint64
}

// counterRows lists the registry counters assemble publishes. Each
// mirrors a count the run keeps for its whole length, so it is
// published once, from that count, after the run.
func (s *Simulation) counterRows() []counterRow {
	r, st := &s.results, s.results.NetStats
	rows := []counterRow{
		{"net_tx_frames_total", "frames transmitted on any link", st.TxFrames},
		{"net_tx_bytes_total", "bytes transmitted on any link", st.TxBytes},
		{"net_tx_bytes_udp_total", "bytes transmitted in UDP frames", st.TxBytesUDP},
		{"net_tx_bytes_tcp_total", "bytes transmitted in TCP frames", st.TxBytesTCP},
		{"net_queue_drops_total", "frames dropped at any queue (drop-tail or loss)", st.Drops},
		{"infections_total", "Devs that ran the infection command, recruited or not", uint64(r.Infected)},
		{"churn_departures_total", "devices flipped offline by churn", r.ChurnDepartures},
		{"churn_rejoins_total", "devices flipped back online by churn", r.ChurnRejoins},
		{"container_shell_execs_total", "shell scripts executed inside containers", uint64(s.engine.Stats().ShellExecs)},
	}
	if s.cfg.Vector != VectorCredentials {
		rows = append(rows,
			counterRow{"exploit_attempts_total", "attacker payloads parsed by Dev daemons", uint64(r.ExploitAttempts)},
			counterRow{"exploit_hijacked_total", "payloads that overwrote a return address", uint64(r.Hijacked)},
			counterRow{"exploit_crashes_total", "daemons crashed by a payload (defenses held)", uint64(r.Crashed)})
	}
	// The exploit scripts run once per run; no fault restarts them.
	if dns := s.attacker.DNS; dns != nil {
		rows = append(rows, counterRow{"exploit_dns_responses_total",
			"ROP-carrying DNS responses served (Connman channel)", dns.QueriesServed})
	}
	if dhcp := s.attacker.DHCP; dhcp != nil {
		rows = append(rows, counterRow{"exploit_dhcpv6_messages_total",
			"crafted RELAY-FORW multicasts sent (Dnsmasq channel)", dhcp.MessagesSent})
	}
	if s.attacker.CNC != nil {
		rows = append(rows,
			counterRow{"cnc_registrations_total", "successful bot registrations at the C&C", s.cncRegistered},
			counterRow{"cnc_bots_lost_total", "bot connections the C&C lost", s.cncLost},
			counterRow{"cnc_attack_commands_total", "attack commands broadcast by the C&C", s.cncCommands})
	}
	if f := r.Faults; f != nil {
		rows = append(rows,
			counterRow{"faults_link_flaps_total", "link flaps injected", f.LinkFlaps},
			counterRow{"faults_loss_bursts_total", "loss bursts injected", f.LossBursts},
			counterRow{"faults_degrade_windows_total", "degradation windows injected", f.DegradeWindows},
			counterRow{"faults_proc_crashes_total", "processes crashed", f.ProcCrashes + f.CNCCrashes},
			counterRow{"faults_proc_restarts_total", "supervisor restarts performed", f.ProcRestarts},
			counterRow{"faults_cnc_outages_total", "C&C outage windows injected", f.CNCOutages},
			counterRow{"faults_cnc_takedowns_total", "permanent C&C takedowns injected", f.CNCTakedowns},
			counterRow{"faults_sink_outages_total", "sink outage windows injected", f.SinkOutages})
	}
	return rows
}
