// Package ddosim is the public API of DDoSim, a framework for
// simulating and assessing large-scale botnet DDoS attacks
// (Obaidat et al., DSN 2023), reimplemented from scratch in pure Go.
//
// A Simulation assembles three components on a simulated network:
//
//   - Attacker: a container hosting exploit & infection scripts (a
//     malicious DNS server targeting Connman's CVE-2017-12865 and a
//     DHCPv6 RELAY-FORW sender targeting Dnsmasq's CVE-2017-14493),
//     the Mirai C&C server, and a file server with the infection
//     script and arch-specific bot binaries.
//   - Devs: N containers running vulnerable IoT daemons over
//     100–500 kbps links, each with a random subset of W^X and ASLR.
//   - TServer: a sink node recording per-second received traffic.
//
// Running a Simulation executes the whole kill chain — ROP
// exploitation, curl|sh infection, C&C registration, UDP-PLAIN flood —
// optionally under static or dynamic IoT churn, and returns the
// measurements the paper reports (average received data rate,
// infection rate, resource usage).
//
// Quickstart:
//
//	cfg := ddosim.DefaultConfig(50)
//	cfg.Churn = ddosim.ChurnDynamic
//	r, err := ddosim.Run(cfg)
//	if err != nil { ... }
//	fmt.Println(r.Summary())
package ddosim

import (
	"ddosim/internal/churn"
	"ddosim/internal/core"
	"ddosim/internal/faults"
	"ddosim/internal/mirai"
	"ddosim/internal/netsim"
	"ddosim/internal/sim"
)

// Config parameterizes a run. See core.Config for field docs.
type Config = core.Config

// Results carries a run's measurements. See core.Results.
type Results = core.Results

// Simulation is a fully-built testbed instance.
type Simulation = core.Simulation

// Dev is one simulated IoT device.
type Dev = core.Dev

// ChurnMode selects the §IV-A membership model.
type ChurnMode = churn.Mode

// Time is a point or span of simulated time in nanoseconds.
type Time = sim.Time

// DataRate is a link rate in bits per second.
type DataRate = netsim.DataRate

// Churn modes.
const (
	ChurnNone    = churn.None
	ChurnStatic  = churn.Static
	ChurnDynamic = churn.Dynamic
	// ChurnSessions is an alternative exponential on/off model from
	// the P2P/IoT literature, provided for comparison with the
	// paper's Fan et al. model.
	ChurnSessions = churn.Sessions
)

// Dev binaries.
const (
	BinaryConnman = core.BinaryConnman
	BinaryDnsmasq = core.BinaryDnsmasq
	BinaryTelnetd = core.BinaryTelnetd
)

// Attack methods for Config.AttackMethod.
const (
	MethodUDPPlain = mirai.MethodUDPPlain
	MethodSYN      = mirai.MethodSYN
	MethodACK      = mirai.MethodACK
)

// FaultsConfig parameterizes the deterministic fault-injection
// subsystem for Config.Faults: link flaps, loss bursts, rate/queue
// degradation windows, process crashes, and C&C outages. The zero
// value disables injection entirely.
type FaultsConfig = faults.Config

// FaultStats counts the faults a run injected; exposed on Results.
type FaultStats = faults.Stats

// RecruitVector selects how the attacker recruits Devs.
type RecruitVector = core.RecruitVector

// Recruitment vectors: the paper's memory-error exploitation, and the
// classic Mirai credential-dictionary baseline.
const (
	VectorMemoryError = core.VectorMemoryError
	VectorCredentials = core.VectorCredentials
)

// Botnet families for Config.Botnet: the centralized Mirai C&C
// (default) and the Kademlia-overlay P2P family.
const (
	BotnetMirai = core.BotnetMirai
	BotnetP2P   = core.BotnetP2P
)

// Timeline is the run's event log (Results.Timeline).
type Timeline = core.Timeline

// Timeline event kinds recorded during a run.
const (
	EventExploitHit   = core.EventExploitHit
	EventExploitCrash = core.EventExploitCrash
	EventBotJoined    = core.EventBotJoined
	EventBotLost      = core.EventBotLost
	EventAttackOrder  = core.EventAttackOrder
	EventFloodStart   = core.EventFloodStart
	EventChurnOffline = core.EventChurnOffline
	EventChurnOnline  = core.EventChurnOnline
)

// Data-rate units for Config fields.
const (
	Kbps = netsim.Kbps
	Mbps = netsim.Mbps
	Gbps = netsim.Gbps
)

// Time units for Config fields.
const (
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = sim.Minute
)

// DefaultConfig returns the paper's baseline parameters for a fleet
// of numDevs devices.
func DefaultConfig(numDevs int) Config { return core.DefaultConfig(numDevs) }

// New builds a Simulation without running it, for callers that want
// to inspect or extend the testbed (install taps, add traffic, drive
// the scheduler manually).
func New(cfg Config) (*Simulation, error) { return core.New(cfg) }

// Run builds and executes a Simulation, returning its measurements.
func Run(cfg Config) (*Results, error) {
	s, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// ParseChurnMode converts a CLI string (none|static|dynamic|sessions)
// into a ChurnMode.
func ParseChurnMode(s string) (ChurnMode, error) { return churn.ParseMode(s) }

// ParseFaultSpec converts a CLI fault specification — semicolon-
// separated clauses like "flap:period=60s,down=5s;loss:rate=0.9" or
// the shorthand "intensity=0.5" — into a FaultsConfig.
func ParseFaultSpec(s string) (FaultsConfig, error) { return faults.ParseSpec(s) }

// FaultsAtIntensity returns the canonical fault scenario scaled to
// x ∈ [0, 1]; 0 disables injection.
func FaultsAtIntensity(x float64) FaultsConfig { return faults.AtIntensity(x) }
