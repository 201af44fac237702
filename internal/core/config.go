// Package core is DDoSim's orchestration layer: it assembles the
// Attacker, Devs, and TServer components (§II) on a simulated star
// network (§III-D), runs the full kill chain — exploit, infection,
// C&C registration, UDP-PLAIN flood — under the configured churn
// model, and collects every measurement the paper's evaluation
// (§IV) reports.
package core

import (
	"fmt"

	"ddosim/internal/churn"
	"ddosim/internal/faults"
	"ddosim/internal/mirai"
	"ddosim/internal/netsim"
	"ddosim/internal/sim"
)

// DevBinary selects the network-facing daemon a Dev runs.
type DevBinary string

// Supported Dev binaries.
const (
	BinaryConnman DevBinary = "connmand"
	BinaryDnsmasq DevBinary = "dnsmasq"
	BinaryTelnetd DevBinary = "telnetd"
)

// Botnet family names for Config.Botnet.
const (
	// BotnetMirai is the centralized family: bots hold a TCP line to
	// the C&C and obey live commands (the paper's architecture).
	BotnetMirai = "mirai"
	// BotnetP2P is the decentralized family: bots join a Kademlia
	// overlay and act on signed command records replicated across the
	// peers themselves — no C&C connection to sever.
	BotnetP2P = "p2p"
)

// RecruitVector selects the botnet recruitment mechanism.
type RecruitVector uint8

// Recruitment vectors.
const (
	// VectorMemoryError is the paper's contribution: ROP exploitation
	// of stack buffer overflows in Connman/Dnsmasq.
	VectorMemoryError RecruitVector = iota + 1
	// VectorCredentials is the classic Mirai baseline: telnet
	// scanning plus dictionary attacks on default credentials, with
	// bot-driven self-propagation.
	VectorCredentials
)

// String implements fmt.Stringer.
func (v RecruitVector) String() string {
	switch v {
	case VectorMemoryError:
		return "memory-error"
	case VectorCredentials:
		return "credentials"
	default:
		return fmt.Sprintf("vector(%d)", uint8(v))
	}
}

// Config parameterizes one simulation run. The zero value is not
// runnable; use Normalize (or the ddosim facade's defaults).
type Config struct {
	// Seed drives every random draw in the run; equal seeds give
	// byte-identical runs.
	Seed int64

	// NumDevs is the fleet size (the paper sweeps 10–200).
	NumDevs int
	// ConnmanFraction is the share of Devs running Connman; the rest
	// run Dnsmasq. Default 0.5, as the paper loads each container
	// "with either Connman or Dnsmasq".
	ConnmanFraction float64

	// MinDevRate and MaxDevRate bound the per-Dev link rate, sampled
	// uniformly; §III-D chooses 100–500 kbps to match real IoT
	// devices.
	MinDevRate netsim.DataRate
	MaxDevRate netsim.DataRate
	// LinkDelay is the one-way propagation delay per link.
	LinkDelay sim.Time
	// DevQueueLimit is the per-device drop-tail queue depth.
	DevQueueLimit int
	// TServerDownlink is the router→TServer rate — the shared
	// bottleneck whose saturation produces Fig. 2's concavity.
	TServerDownlink netsim.DataRate

	// Churn selects the §IV-A membership model; ChurnEpoch overrides
	// the 20 s dynamic re-evaluation period.
	Churn      churn.Mode
	ChurnEpoch sim.Time

	// SimDuration is the NS-3 horizon (the paper fixes 600 s).
	SimDuration sim.Time
	// AttackDuration is the commanded flood length in seconds.
	AttackDuration int
	// AttackPort is the TServer UDP port flooded.
	AttackPort uint16
	// AttackMethod selects the Mirai flood: udpplain (the paper's
	// experiment series), syn, or ack.
	AttackMethod string
	// AttackOverIPv6 floods TServer's IPv6 address instead of IPv4 —
	// exercising the IPv6 support DDoSim adds over NS3DockerEmulator.
	AttackOverIPv6 bool
	// RecruitTimeout caps how long the run waits for full recruitment
	// before issuing the attack anyway (churned runs never reach 100%).
	RecruitTimeout sim.Time

	// RandomProtections gives each Dev a random subset of {W^X, ASLR}
	// (§III-B). When false, all Devs enable both.
	RandomProtections bool
	// Hardened swaps in PIE rebuilds of the daemons: with ASLR the
	// ROP chain no longer lands, modeling a patched fleet.
	Hardened bool
	// CanaryFraction is the share of Devs whose daemons were built
	// with a stack protector — a per-device defense the paper's
	// use-case discussion (§V-A) invites testing. The paper's own
	// fleet runs canary-less builds (fraction 0).
	CanaryFraction float64
	// RemoveCurl strips curl/wget from Dev firmware — the §IV-C
	// hardening insight. The exploit still hijacks the daemon, but
	// the infection script cannot fetch the bot.
	RemoveCurl bool

	// PayloadBytes is the UDP-PLAIN payload size (Mirai default 512).
	PayloadBytes int
	// StartJitterPerDev scales the host-task-queuing ramp: each bot
	// delays its flood start by Uniform[0, NumDevs*StartJitterPerDev].
	// Zero disables the ramp (ablation).
	StartJitterPerDev sim.Time

	// ConnmanQueryPeriod and DHCPv6Period pace the two exploit
	// delivery channels.
	ConnmanQueryPeriod sim.Time
	DHCPv6Period       sim.Time

	// Vector selects the recruitment mechanism. Default
	// VectorMemoryError (the paper's experiment series).
	Vector RecruitVector
	// WeakCredFraction (credentials vector only) is the probability a
	// Dev ships a dictionary credential rather than a strong one —
	// the knob that models the IoT-security legislation the paper
	// cites as motivation for studying memory errors.
	WeakCredFraction float64
	// ScanPeriod (credentials vector only) paces each scanner.
	ScanPeriod sim.Time
	// SeedCount (credentials vector only) is how many victims the
	// attacker's sequential seed scanner plants before stopping.
	SeedCount int

	// Botnet selects the C&C architecture: BotnetMirai (default when
	// empty — the centralized family every earlier release ran, so the
	// artifact goldens are untouched) or BotnetP2P (Kademlia overlay
	// with signed command records).
	Botnet string
	// CommandWave (mirai only), when positive, makes the C&C re-send
	// the attack order every wave until the commanded window ends, each
	// wave trimmed to the remaining duration. Bots that lost their line
	// mid-attack and reconnected pick the flood back up — the
	// centralized family's best answer to C&C outages, and still not
	// enough against a permanent takedown. Zero (default) keeps the
	// single-shot command of the published Mirai.
	CommandWave sim.Time
	// P2PPollPeriod (p2p only) is the bots' command-poll interval.
	// Zero selects the p2pbot default (30 s).
	P2PPollPeriod sim.Time

	// Faults declares the fault-injection scenario (link flaps, loss
	// bursts, degradation windows, process crashes, C&C and sink
	// outages). The zero value injects nothing and leaves every
	// artifact byte-identical to a build without the subsystem.
	Faults faults.Config
	// CNCReplayAttack makes the C&C re-send the last attack command
	// (trimmed to the remaining window) to bots that register after
	// the order went out — a robustness response to C&C outages.
	// Default off: the published C&C never replays, which is what
	// produces the paper's Fig. 2 churn gap.
	CNCReplayAttack bool

	// FlowActiveTimeout and FlowIdleTimeout tune the NetFlow-style
	// flow exporter: a flow is checkpointed after ActiveTimeout of
	// continuous activity and closed after IdleTimeout of silence.
	// Zero selects the netsim defaults (60 s / 15 s).
	FlowActiveTimeout sim.Time
	FlowIdleTimeout   sim.Time
	// WindowSize is the aggregation interval of the windowed
	// time-series artifact. Zero selects 1 s.
	WindowSize sim.Time
}

// DefaultConfig returns the paper's baseline parameters for a fleet of
// the given size.
func DefaultConfig(numDevs int) Config {
	return Config{
		Seed:               1,
		NumDevs:            numDevs,
		ConnmanFraction:    0.5,
		MinDevRate:         100 * netsim.Kbps,
		MaxDevRate:         500 * netsim.Kbps,
		LinkDelay:          2 * sim.Millisecond,
		DevQueueLimit:      netsim.DefaultQueueLimit,
		TServerDownlink:    25 * netsim.Mbps,
		Churn:              churn.None,
		ChurnEpoch:         churn.DefaultEpoch,
		SimDuration:        600 * sim.Second,
		AttackDuration:     100,
		AttackPort:         80,
		AttackMethod:       mirai.MethodUDPPlain,
		RecruitTimeout:     120 * sim.Second,
		RandomProtections:  true,
		PayloadBytes:       512,
		StartJitterPerDev:  150 * sim.Millisecond,
		ConnmanQueryPeriod: 10 * sim.Second,
		DHCPv6Period:       5 * sim.Second,
		Vector:             VectorMemoryError,
		WeakCredFraction:   1.0,
		ScanPeriod:         2 * sim.Second,
		SeedCount:          1,
		FlowActiveTimeout:  netsim.DefaultFlowActiveTimeout,
		FlowIdleTimeout:    netsim.DefaultFlowIdleTimeout,
		WindowSize:         sim.Second,
	}
}

// Validate checks the configuration for contradictions.
func (c *Config) Validate() error {
	switch {
	case c.NumDevs <= 0:
		return fmt.Errorf("core: NumDevs must be positive, got %d", c.NumDevs)
	case c.ConnmanFraction < 0 || c.ConnmanFraction > 1:
		return fmt.Errorf("core: ConnmanFraction %v outside [0,1]", c.ConnmanFraction)
	case c.MinDevRate <= 0 || c.MaxDevRate < c.MinDevRate:
		return fmt.Errorf("core: bad Dev rate range [%v, %v]", c.MinDevRate, c.MaxDevRate)
	case c.TServerDownlink <= 0:
		return fmt.Errorf("core: TServerDownlink must be positive")
	case c.AttackDuration <= 0:
		return fmt.Errorf("core: AttackDuration must be positive, got %d", c.AttackDuration)
	case c.SimDuration <= 0:
		return fmt.Errorf("core: SimDuration must be positive")
	case c.Churn != churn.None && c.Churn != churn.Static &&
		c.Churn != churn.Dynamic && c.Churn != churn.Sessions:
		return fmt.Errorf("core: bad churn mode %v", c.Churn)
	case c.Vector != VectorMemoryError && c.Vector != VectorCredentials:
		return fmt.Errorf("core: bad recruit vector %v", c.Vector)
	case c.WeakCredFraction < 0 || c.WeakCredFraction > 1:
		return fmt.Errorf("core: WeakCredFraction %v outside [0,1]", c.WeakCredFraction)
	case c.CanaryFraction < 0 || c.CanaryFraction > 1:
		return fmt.Errorf("core: CanaryFraction %v outside [0,1]", c.CanaryFraction)
	case c.AttackMethod != "" && !mirai.KnownMethod(c.AttackMethod):
		return fmt.Errorf("core: unknown attack method %q", c.AttackMethod)
	case c.FlowActiveTimeout < 0 || c.FlowIdleTimeout < 0 || c.WindowSize < 0:
		return fmt.Errorf("core: negative telemetry interval")
	case c.Botnet != "" && c.Botnet != BotnetMirai && c.Botnet != BotnetP2P:
		return fmt.Errorf("core: unknown botnet family %q (mirai|p2p)", c.Botnet)
	case c.CommandWave < 0 || c.P2PPollPeriod < 0:
		return fmt.Errorf("core: negative botnet period")
	case c.Botnet == BotnetP2P && c.Vector == VectorCredentials:
		return fmt.Errorf("core: p2p botnet supports only the memory-error vector (no scanner module)")
	case c.Botnet == BotnetP2P && c.CommandWave > 0:
		return fmt.Errorf("core: CommandWave is a mirai knob; p2p republishes records instead")
	}
	if c.Vector == VectorCredentials && c.NumDevs > 200 {
		// Scanners sweep 10.0.0.0/24; the paper's fleets stay within
		// it (its hardware caps at 200 Devs too).
		return fmt.Errorf("core: credentials vector supports at most 200 Devs, got %d", c.NumDevs)
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	minimum := c.RecruitTimeout + sim.Time(c.AttackDuration)*sim.Second
	if c.SimDuration < minimum {
		return fmt.Errorf("core: SimDuration %v too short for recruit timeout %v + attack %ds",
			c.SimDuration, c.RecruitTimeout, c.AttackDuration)
	}
	return nil
}

// p2p reports whether the run uses the decentralized family.
func (c *Config) p2p() bool { return c.Botnet == BotnetP2P }

// binaryFor deterministically assigns a Dev index its daemon.
func (c *Config) binaryFor(i int) DevBinary {
	connmanDevs := int(float64(c.NumDevs)*c.ConnmanFraction + 0.5)
	if i < connmanDevs {
		return BinaryConnman
	}
	return BinaryDnsmasq
}
