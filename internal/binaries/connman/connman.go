// Package connman simulates the Connman network-management daemon as
// it matters to the experiment: a DNS-proxy client that periodically
// resolves a hostname against the nameserver configured in
// /etc/resolv.conf and parses the response through a fixed 64-byte
// stack buffer without a bounds check — CVE-2017-12865. A malicious
// DNS server that answers with an oversized RDATA overwrites the
// daemon's return address.
package connman

import (
	"net/netip"
	"strings"

	"ddosim/internal/binaries/image"
	"ddosim/internal/container"
	"ddosim/internal/dnsmsg"
	"ddosim/internal/netsim"
	"ddosim/internal/procvm"
	"ddosim/internal/sim"
)

// DefaultQueryPeriod is how often connmand re-resolves its
// connectivity-check hostname.
const DefaultQueryPeriod = 10 * sim.Second

// DefaultHostname is the name the daemon resolves, mirroring
// Connman's connectivity check.
const DefaultHostname = "connectivity-check.connman.net"

// Config parameterizes a daemon instance.
type Config struct {
	// Protections are the Dev's memory defenses (§III-B: a random
	// subset of W^X and ASLR per device).
	Protections procvm.Protections
	// QueryPeriod overrides DefaultQueryPeriod when positive.
	QueryPeriod sim.Time
	// Hostname overrides DefaultHostname when non-empty.
	Hostname string
	// Program overrides the default vulnerable binary image, e.g. the
	// hardened PIE rebuild.
	Program *procvm.Program
	// OnOutcome observes every parse of untrusted input (used by the
	// experiment harness to count exploit attempts/crashes).
	OnOutcome func(procvm.HijackOutcome)
}

// Daemon is the connmand process behaviour.
type Daemon struct {
	cfg       Config
	p         *container.Process
	proc      *procvm.Proc
	sock      *netsim.UDPSocket
	server    netip.AddrPort
	hasDNS    bool
	nextID    uint16
	pendingID uint16

	// Counters for test and experiment introspection.
	QueriesSent   uint64
	ResponsesSeen uint64
}

var _ container.Behavior = (*Daemon)(nil)

// srcQuery labels the daemon's DNS queries and the jitter before its
// first.
var srcQuery = sim.NewSource("connman.query")

// New creates the behaviour.
func New(cfg Config) *Daemon {
	if cfg.QueryPeriod <= 0 {
		cfg.QueryPeriod = DefaultQueryPeriod
	}
	if cfg.Hostname == "" {
		cfg.Hostname = DefaultHostname
	}
	if cfg.Program == nil {
		cfg.Program = image.Connman()
	}
	return &Daemon{cfg: cfg}
}

// Name implements container.Behavior.
func (d *Daemon) Name() string { return image.BinConnman }

// Proc exposes the daemon's simulated process (tests inspect it).
func (d *Daemon) Proc() *procvm.Proc { return d.proc }

// Start implements container.Behavior.
func (d *Daemon) Start(p *container.Process) {
	d.p = p
	d.proc = procvm.NewProc(d.cfg.Program, d.cfg.Protections, p.RNG(), p.Container().ProcOS(p))

	d.server, d.hasDNS = resolvConf(p.Container())
	if !d.hasDNS {
		p.Logf("connmand: no nameserver configured; idle")
		return
	}
	sock, err := p.BindUDP(0, d.onDatagram)
	if err != nil {
		p.Logf("connmand: bind: %v", err)
		return
	}
	d.sock = sock

	// Jitter the first query so a fleet of Devs does not synchronize.
	jitter := sim.Time(p.RNG().Int63n(int64(d.cfg.QueryPeriod)))
	ticker := p.NewTicker(d.cfg.QueryPeriod, srcQuery, d.query)
	p.Sched().Schedule(jitter, srcQuery, func() {
		if !p.Alive() {
			return
		}
		d.query()
		ticker.Start()
	})
}

// Stop implements container.Behavior.
func (d *Daemon) Stop(*container.Process) {}

// resolvConf parses the container's /etc/resolv.conf. The paper
// manually points Devs at the malicious DNS server (§V-C).
func resolvConf(c *container.Container) (netip.AddrPort, bool) {
	data, ok := c.FS().Read("/etc/resolv.conf")
	if !ok {
		return netip.AddrPort{}, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == "nameserver" {
			if a, err := netip.ParseAddr(fields[1]); err == nil {
				return netip.AddrPortFrom(a, 53), true
			}
		}
	}
	return netip.AddrPort{}, false
}

func (d *Daemon) query() {
	if !d.p.Alive() || d.sock == nil {
		return
	}
	d.nextID++
	d.pendingID = d.nextID
	q := dnsmsg.NewQuery(d.pendingID, d.cfg.Hostname, dnsmsg.TypeA)
	d.QueriesSent++
	d.sock.SendTo(d.server, q.Encode())
}

func (d *Daemon) onDatagram(src netip.AddrPort, payload []byte, _ int) {
	if !d.p.Alive() {
		return
	}
	msg, err := dnsmsg.Decode(payload)
	if err != nil || !msg.IsResponse() || msg.ID != d.pendingID {
		return
	}
	d.ResponsesSeen++
	if len(msg.Answers) == 0 {
		return
	}
	// CVE-2017-12865: the RDATA is copied into a fixed stack buffer.
	out := d.proc.ParseUntrusted(msg.Answers[0].Data, image.ConnmanBufSize)
	if d.cfg.OnOutcome != nil {
		d.cfg.OnOutcome(out)
	}
	if out.Crashed() {
		d.p.Logf("connmand: segfault parsing DNS response: %v", out.Fault)
		d.p.Exit(139)
	}
}
