package container

import (
	"fmt"
	"math/rand"
	"net/netip"

	"ddosim/internal/netsim"
	"ddosim/internal/sim"
)

// Behavior is the code a simulated process runs. Behaviours are
// event-driven actors: Start registers sockets and timers on the
// process; Stop (called on kill) must release anything Start acquired
// beyond what the process tracks itself.
type Behavior interface {
	// Name is the process's initial command name (before any
	// setproctitle-style obfuscation).
	Name() string
	// Start begins execution. The behaviour keeps p for later use.
	Start(p *Process)
	// Stop is invoked when the process is killed or exits.
	Stop(p *Process)
}

// BehaviorFactory instantiates a behaviour for an exec'd binary.
// args[0] is the binary path.
type BehaviorFactory func(args []string) Behavior

// Process is one entry in a container's process table.
type Process struct {
	pid       int
	title     string
	behavior  Behavior
	container *Container
	alive     bool
	tags      map[string]string

	listeners  []*netsim.TCPListener
	udpSocks   []*netsim.UDPSocket
	conns      []*netsim.TCPConn
	tcpPorts   map[uint16]bool
	tickers    []*sim.Ticker
	exitStatus int
}

// PID reports the process id.
func (p *Process) PID() int { return p.pid }

// Title reports the current process title (Mirai obfuscates this).
func (p *Process) Title() string { return p.title }

// SetTitle changes the process title, mirroring prctl(PR_SET_NAME) /
// argv[0] overwriting.
func (p *Process) SetTitle(t string) { p.title = t }

// SetTag attaches metadata (e.g. malware family) visible to other
// processes in the container — the hook Mirai's rival-killing uses.
func (p *Process) SetTag(key, value string) { p.tags[key] = value }

// Tag reads metadata.
func (p *Process) Tag(key string) string { return p.tags[key] }

// Alive reports whether the process is running.
func (p *Process) Alive() bool { return p.alive }

// Container reports the owning container.
func (p *Process) Container() *Container { return p.container }

// Node reports the container's network attachment.
func (p *Process) Node() *netsim.Node { return p.container.node }

// Sched reports the scheduler driving this process — the container's
// network attachment's scheduler.
func (p *Process) Sched() *sim.Scheduler { return p.container.node.Sched() }

// RNG reports the deterministic random source.
func (p *Process) RNG() *rand.Rand { return p.Sched().RNG() }

// Logf appends to the container log.
func (p *Process) Logf(format string, args ...any) {
	p.container.logf("["+p.title+"] "+format, args...)
}

// ListenTCP opens a TCP listener owned by this process. Ownership is
// what lets Mirai find and kill whatever holds ports 22/23.
func (p *Process) ListenTCP(port uint16, accept func(*netsim.TCPConn)) (*netsim.TCPListener, error) {
	if !p.alive {
		return nil, fmt.Errorf("container: process %d is dead", p.pid)
	}
	l, err := p.Node().ListenTCP(port, accept)
	if err != nil {
		return nil, err
	}
	p.listeners = append(p.listeners, l)
	p.tcpPorts[port] = true
	return l, nil
}

// BindUDP opens a UDP socket owned by this process.
func (p *Process) BindUDP(port uint16, h netsim.DatagramHandler) (*netsim.UDPSocket, error) {
	if !p.alive {
		return nil, fmt.Errorf("container: process %d is dead", p.pid)
	}
	s, err := p.Node().BindUDP(port, h)
	if err != nil {
		return nil, err
	}
	p.udpSocks = append(p.udpSocks, s)
	return s, nil
}

// DialTCP opens an outbound connection owned by this process.
func (p *Process) DialTCP(dst netip.AddrPort, cb netsim.DialCallback) *netsim.TCPConn {
	c := p.Node().DialTCP(dst, cb)
	p.conns = append(p.conns, c)
	return c
}

// NewTicker creates a ticker owned by this process; it is stopped on
// process death.
func (p *Process) NewTicker(period sim.Time, fn func()) *sim.Ticker {
	t := sim.NewTicker(p.Sched(), period, fn)
	p.tickers = append(p.tickers, t)
	return t
}

// ActiveTickers counts the process's tickers that are currently armed.
// Tests use it to pin down timer-leak bugs (a behaviour that re-creates
// a ticker per session without stopping the old one accumulates them
// here).
func (p *Process) ActiveTickers() int {
	n := 0
	for _, t := range p.tickers {
		if t.Running() {
			n++
		}
	}
	return n
}

// HasTCPPort reports whether the process ever bound the given TCP
// port.
func (p *Process) HasTCPPort(port uint16) bool { return p.tcpPorts[port] }

// Exit terminates the process voluntarily.
func (p *Process) Exit(status int) {
	p.exitStatus = status
	p.container.reap(p)
}

// releaseResources closes everything the process owns.
func (p *Process) releaseResources() {
	for _, t := range p.tickers {
		t.Stop()
	}
	for _, l := range p.listeners {
		l.Close()
	}
	for _, s := range p.udpSocks {
		s.Close()
	}
	for _, c := range p.conns {
		c.Abort()
	}
	p.tickers = nil
	p.listeners = nil
	p.udpSocks = nil
	p.conns = nil
}
