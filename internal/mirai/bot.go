package mirai

import (
	"fmt"
	"net/netip"

	"ddosim/internal/container"
	"ddosim/internal/netsim"
	"ddosim/internal/sim"
)

// Sources labelling the bot's C&C reconnects and keepalive pings.
var (
	srcReconnect = sim.NewSource("bot.reconnect")
	srcPing      = sim.NewSource("bot.ping")
)

// C&C session timing. A lost connection is re-dialed after
// reconnectBase (Mirai retries aggressively); consecutive failures
// back the delay off exponentially, capped at reconnectCap, and every
// attempt adds a uniformly-random jitter in [0, reconnectBase) drawn
// from the bot's own RNG stream — without it a C&C outage synchronizes
// the whole fleet into a lock-step reconnect herd. A connected bot
// pings every pingPeriod.
const (
	reconnectBase = 10 * sim.Second
	reconnectCap  = 4 * reconnectBase
	pingPeriod    = 60 * sim.Second
)

// BotConfig is baked into the bot binary by the attacker at build
// time, exactly as Mirai's table.c encodes the C&C endpoint.
type BotConfig struct {
	// CNC is the command-and-control endpoint.
	CNC netip.AddrPort
	// PayloadBytes is the UDP-PLAIN payload size; defaults to Mirai's
	// 512 bytes.
	PayloadBytes int
	// StartJitter models host task queuing on the shared emulation
	// machine: each bot begins flooding a uniformly-random delay in
	// [0, StartJitter] after receiving the command. Zero starts
	// immediately. (See DESIGN.md — this is the mechanism behind the
	// paper's Fig. 3 duration effect and Table I attack-time
	// inflation.)
	StartJitter sim.Time
	// Scan configures the telnet scanner module — the self-spreading
	// credential-attack vector. Disabled by default; the paper's
	// experiment series recruits through memory errors instead.
	Scan ScanConfig
	// OnAttackStart observes each bot's first flood packet instant.
	OnAttackStart func(addr netip.Addr)
}

// Bot is the Mirai bot process behaviour.
type Bot struct {
	cfg BotConfig
	p   *container.Process

	conn      *netsim.TCPConn
	connected bool
	flood     *Flooder
	ping      *sim.Ticker
	scanner   *Scanner
	// dialFails counts consecutive failed (re)connect attempts; it
	// drives the capped exponential backoff and resets on success.
	dialFails int

	// Counters for tests.
	Reconnects   int
	RivalsKilled int
	CommandsSeen int
}

var _ container.Behavior = (*Bot)(nil)

// NewBot creates the behaviour.
func NewBot(cfg BotConfig) *Bot { return &Bot{cfg: cfg} }

// BotFactory adapts NewBot to the binary registry; the attacker
// registers it under the name "mirai" with the C&C address baked in.
func BotFactory(cfg BotConfig) container.BehaviorFactory {
	return func(args []string) container.Behavior { return NewBot(cfg) }
}

// Name implements container.Behavior.
func (b *Bot) Name() string { return "mirai" }

// Attacking reports whether the flood engine is live.
func (b *Bot) Attacking() bool { return b.flood != nil && b.flood.Attacking() }

// Connected reports whether the C&C session is established.
func (b *Bot) Connected() bool { return b.connected }

// PacketsSent reports flood packets emitted so far.
func (b *Bot) PacketsSent() uint64 {
	if b.flood == nil {
		return 0
	}
	return b.flood.Sent()
}

// Start implements container.Behavior: hide, fortify, phone home.
func (b *Bot) Start(p *container.Process) {
	b.p = p
	b.flood = NewFlooder(p, b.cfg.PayloadBytes)

	// Obfuscate the process name, as Mirai does with PR_SET_NAME and
	// argv scribbling.
	title := make([]byte, 10)
	for i := range title {
		title[i] = byte('a' + p.RNG().Intn(26))
	}
	p.SetTitle(string(title))
	p.SetMalware("mirai")

	b.killRivals()
	if b.cfg.Scan.Enabled {
		b.scanner = NewScanner(p, b.cfg.Scan)
		b.scanner.Start()
	}
	b.dial()
}

// Scanner exposes the bot's scanner module, nil when disabled.
func (b *Bot) Scanner() *Scanner { return b.scanner }

// Stop implements container.Behavior.
func (b *Bot) Stop(*container.Process) {
	if b.flood != nil {
		b.flood.Stop()
	}
	b.connected = false
}

// killRivals terminates competing DDoS malware and whatever holds TCP
// 22/23, mirroring Mirai's killer module.
func (b *Bot) killRivals() {
	self := b.ownPID()
	for _, proc := range b.p.Container().Procs() {
		if proc.PID() == self {
			continue
		}
		rivalMalware := proc.Malware() != "" && proc.Malware() != "mirai"
		holdsPorts := proc.HasTCPPort(22) || proc.HasTCPPort(23)
		if rivalMalware || holdsPorts {
			b.p.Logf("mirai: killing rival pid %d (%s)", proc.PID(), proc.Title())
			b.p.Container().Kill(proc.PID())
			b.RivalsKilled++
		}
	}
}

func (b *Bot) ownPID() int {
	return b.p.PID()
}

// dial connects to the C&C, retrying forever — a churned-out Dev that
// rejoins the network reconnects through this path.
func (b *Bot) dial() {
	if !b.p.Alive() {
		return
	}
	b.conn = b.p.DialTCP(b.cfg.CNC, func(c *netsim.TCPConn, err error) {
		if err != nil {
			b.scheduleReconnect()
			return
		}
		b.onConnected(c)
	})
}

// reconnectDelay computes the next re-dial pause: the base delay backed
// off exponentially per consecutive failure (capped), plus per-bot
// jitter from the bot's deterministic RNG stream. Fixed delays would
// herd every bot severed by the same C&C outage into simultaneous
// re-dials — the classic reconnect-storm bug.
func (b *Bot) reconnectDelay() sim.Time {
	d := reconnectBase
	for i := 0; i < b.dialFails && d < reconnectCap; i++ {
		d *= 2
	}
	if d > reconnectCap {
		d = reconnectCap
	}
	return d + sim.Time(b.p.RNG().Int63n(int64(reconnectBase)))
}

func (b *Bot) scheduleReconnect() {
	if !b.p.Alive() {
		return
	}
	b.Reconnects++
	b.dialFails++
	b.p.Sched().Schedule(b.reconnectDelay(), srcReconnect, b.dial)
}

func (b *Bot) onConnected(c *netsim.TCPConn) {
	b.connected = true
	b.dialFails = 0
	var lb lineBuffer
	c.SetDataHandler(func(data []byte) {
		for _, line := range lb.feed(data) {
			b.onLine(line)
		}
	})
	c.SetCloseHandler(func(error) {
		b.connected = false
		// The keepalive belongs to this session: without the stop, every
		// reconnect would stack one more live ticker firing forever.
		if b.ping != nil {
			b.ping.Stop()
		}
		b.scheduleReconnect()
	})
	_ = c.Send(botMagic)
	_ = c.Send([]byte("arch " + b.p.Container().Arch() + "\n"))

	if b.ping == nil {
		b.ping = b.p.NewTicker(pingPeriod, srcPing, func() {
			if b.connected {
				_ = b.conn.Send([]byte("ping\n"))
			}
		})
	}
	b.ping.Start()
}

func (b *Bot) onLine(line string) {
	if line == "pong" {
		return
	}
	cmd, err := ParseAttackCommand(line)
	if err != nil {
		return
	}
	b.CommandsSeen++
	b.startAttack(cmd)
}

// startAttack runs the ordered flood through the shared engine, paced
// at the device's own line rate so the Dev's uplink is saturated for
// the commanded duration (Mirai floods as fast as the interface
// allows).
func (b *Bot) startAttack(cmd AttackCommand) {
	dst := netip.AddrPortFrom(cmd.Target, cmd.Port)
	var onStart func()
	if b.cfg.OnAttackStart != nil {
		hook, addr := b.cfg.OnAttackStart, b.p.Node().Addr4()
		onStart = func() { hook(addr) }
	}
	b.flood.LaunchFor(cmd.Method, dst, cmd.Duration, b.cfg.StartJitter, onStart)
}

// String aids debugging.
func (b *Bot) String() string {
	return fmt.Sprintf("mirai-bot(connected=%v attacking=%v)", b.connected, b.Attacking())
}
