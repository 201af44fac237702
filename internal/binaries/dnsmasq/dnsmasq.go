// Package dnsmasq simulates the Dnsmasq daemon as it matters to the
// experiment: a DHCPv6 server listening on UDP 547 (joined to the
// ff02::1:2 All-DHCP-Relay-Agents-and-Servers group) whose RELAY-FORW
// handler copies the relay-message option into a fixed stack buffer —
// CVE-2017-14493. A crafted multicast RELAY-FORW reaches every
// listening Dev at once, which is precisely why the paper's attacker
// exploits it over multicast.
package dnsmasq

import (
	"net/netip"

	"ddosim/internal/binaries/image"
	"ddosim/internal/container"
	"ddosim/internal/dhcpv6"
	"ddosim/internal/netsim"
	"ddosim/internal/procvm"
)

// Config parameterizes a daemon instance.
type Config struct {
	// Protections are the Dev's memory defenses.
	Protections procvm.Protections
	// Program overrides the default vulnerable image.
	Program *procvm.Program
	// OnOutcome observes every parse of untrusted input.
	OnOutcome func(procvm.HijackOutcome)
}

// Daemon is the dnsmasq process behaviour.
type Daemon struct {
	cfg  Config
	p    *container.Process
	proc *procvm.Proc
	sock *netsim.UDPSocket

	// Counters for tests and experiments.
	RelayForwSeen uint64
	BenignSeen    uint64
}

var _ container.Behavior = (*Daemon)(nil)

// New creates the behaviour.
func New(cfg Config) *Daemon {
	if cfg.Program == nil {
		cfg.Program = image.Dnsmasq()
	}
	return &Daemon{cfg: cfg}
}

// Name implements container.Behavior.
func (d *Daemon) Name() string { return image.BinDnsmasq }

// Proc exposes the daemon's simulated process.
func (d *Daemon) Proc() *procvm.Proc { return d.proc }

// Start implements container.Behavior.
func (d *Daemon) Start(p *container.Process) {
	d.p = p
	d.proc = procvm.NewProc(d.cfg.Program, d.cfg.Protections, p.RNG(), p.Container().ProcOS(p))
	p.Node().JoinMulticast(dhcpv6.AllRelayAgentsAndServers)
	sock, err := p.BindUDP(dhcpv6.ServerPort, d.onDatagram)
	if err != nil {
		p.Logf("dnsmasq: bind 547: %v", err)
		return
	}
	d.sock = sock
}

// Stop implements container.Behavior.
func (d *Daemon) Stop(p *container.Process) {
	p.Node().LeaveMulticast(dhcpv6.AllRelayAgentsAndServers)
}

func (d *Daemon) onDatagram(src netip.AddrPort, payload []byte, _ int) {
	if !d.p.Alive() {
		return
	}
	if len(payload) == 0 {
		return
	}
	if payload[0] != dhcpv6.TypeRelayForw {
		d.BenignSeen++
		return
	}
	msg, err := dhcpv6.DecodeRelayForw(payload)
	if err != nil {
		return
	}
	d.RelayForwSeen++
	relay, ok := msg.Option(dhcpv6.OptRelayMsg)
	if !ok {
		return
	}
	// CVE-2017-14493: the relay message is copied into a fixed stack
	// buffer while reconstructing relay state.
	out := d.proc.ParseUntrusted(relay, image.DnsmasqBufSize)
	if d.cfg.OnOutcome != nil {
		d.cfg.OnOutcome(out)
	}
	if out.Crashed() {
		d.p.Logf("dnsmasq: segfault in dhcp6_maybe_relay: %v", out.Fault)
		d.p.Exit(139)
	}
}
