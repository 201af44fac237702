package p2pbot

import (
	"crypto/ed25519"
	"fmt"
	"net/netip"

	"ddosim/internal/container"
	"ddosim/internal/dht"
	"ddosim/internal/mirai"
	"ddosim/internal/sim"
)

// srcPoll labels a bot's overlay polls and the phase delay before
// its first.
var srcPoll = sim.NewSource("p2p.poll")

// BotConfig is baked into the P2P bot binary.
type BotConfig struct {
	// Bootstrap lists overlay entry endpoints (the seeder, typically).
	Bootstrap []netip.AddrPort
	// PubKey authenticates command records.
	PubKey ed25519.PublicKey
	// PollPeriod is the command-poll interval; each bot's actual
	// period gets a one-time uniform jitter in [0, PollPeriod) from
	// its own RNG stream so the fleet's polls don't synchronize.
	// Default 30 s.
	PollPeriod sim.Time
	// PayloadBytes sizes UDP-PLAIN flood padding (mirai default).
	PayloadBytes int
	// StartJitter models host task queuing before the flood starts,
	// exactly as mirai.BotConfig.StartJitter.
	StartJitter sim.Time
	// OnAttackStart observes each bot's first flood packet instant.
	OnAttackStart func(addr netip.Addr)
}

// Bot is the P2P bot behaviour: join the overlay, learn the signed
// command record (by poll or by replica push), flood until the
// record's campaign end. Its only dependence on the botmaster after
// infection is cryptographic, not topological.
type Bot struct {
	cfg BotConfig
	p   *container.Process

	node    *dht.Node
	flood   *mirai.Flooder
	poll    *sim.Ticker
	check   *recordCheck
	cmdKey  dht.ID
	lastSeq uint64
	joined  bool

	// Counters for tests.
	CommandsSeen int
	Polls        int
}

var _ container.Behavior = (*Bot)(nil)

// NewBot creates the behaviour, with a record check of its own.
func NewBot(cfg BotConfig) *Bot {
	return newBot(cfg, &recordCheck{pub: cfg.PubKey})
}

func newBot(cfg BotConfig, check *recordCheck) *Bot {
	if cfg.PollPeriod <= 0 {
		cfg.PollPeriod = 30 * sim.Second
	}
	return &Bot{cfg: cfg, check: check, cmdKey: dht.Key(CommandChannel)}
}

// BotFactory adapts the bot to the binary registry; the attacker
// registers it in place of the Mirai bot when Config.Botnet is "p2p",
// once per run. Every bot it builds shares one record check, so the
// fleet verifies each distinct record once per run rather than once
// per poll or replica push.
func BotFactory(cfg BotConfig) container.BehaviorFactory {
	check := &recordCheck{pub: cfg.PubKey}
	return func(args []string) container.Behavior { return newBot(cfg, check) }
}

// Name implements container.Behavior.
func (b *Bot) Name() string { return "p2pbot" }

// Joined reports whether the overlay join completed.
func (b *Bot) Joined() bool { return b.joined }

// Attacking reports whether the flood engine is live.
func (b *Bot) Attacking() bool { return b.flood != nil && b.flood.Attacking() }

// PacketsSent reports flood packets emitted so far.
func (b *Bot) PacketsSent() uint64 {
	if b.flood == nil {
		return 0
	}
	return b.flood.Sent()
}

// Node exposes the underlying DHT node (tests, reports).
func (b *Bot) Node() *dht.Node { return b.node }

// Start implements container.Behavior.
func (b *Bot) Start(p *container.Process) {
	b.p = p
	b.flood = mirai.NewFlooder(p, b.cfg.PayloadBytes)

	// Same camouflage as the Mirai bot: scribbled title, family tag.
	title := make([]byte, 10)
	for i := range title {
		title[i] = byte('a' + p.RNG().Intn(26))
	}
	p.SetTitle(string(title))
	p.SetMalware("p2p")

	b.node = dht.New(p)
	if err := b.node.Start(p.Node().Addr4()); err != nil {
		p.Logf("p2pbot: %v", err)
		return
	}
	// Replica pushes (STORE from K-closest placement, republish, or a
	// neighbour's path caching) deliver commands without waiting for
	// the next poll — the "subscribe" half of poll/subscribe.
	b.node.OnStore = func(key dht.ID, value []byte, seq uint64) {
		if key == b.cmdKey {
			b.handleRecord(value)
		}
	}
	b.node.Join(b.cfg.Bootstrap, func(int) {
		b.joined = true
		b.pollOnce()
	})
	// Desynchronize the fleet's poll phase once per bot; the ticker
	// then holds the offset forever.
	b.p.Sched().Schedule(sim.Time(p.RNG().Int63n(int64(b.cfg.PollPeriod))), srcPoll, func() {
		if !p.Alive() {
			return
		}
		b.poll = p.NewTicker(b.cfg.PollPeriod, srcPoll, b.pollOnce)
		b.poll.StartImmediate()
	})
}

// Stop implements container.Behavior.
func (b *Bot) Stop(*container.Process) {
	if b.flood != nil {
		b.flood.Stop()
	}
	if b.node != nil {
		b.node.Close()
	}
}

// pollOnce resolves the command key through the overlay.
func (b *Bot) pollOnce() {
	if !b.p.Alive() {
		return
	}
	b.Polls++
	b.node.Get(b.cmdKey, func(value []byte, _ uint64, found bool) {
		if found {
			b.handleRecord(value)
		}
	})
}

// handleRecord authenticates a record and acts on fresh ones.
func (b *Bot) handleRecord(value []byte) {
	rec, err := b.check.decode(value)
	if err != nil {
		b.p.Logf("p2pbot: rejecting record: %v", err)
		return
	}
	if rec.Seq <= b.lastSeq {
		return
	}
	b.lastSeq = rec.Seq
	b.CommandsSeen++
	if b.p.Sched().Now() >= rec.Until {
		return // expired campaign
	}
	var onStart func()
	if b.cfg.OnAttackStart != nil {
		hook, addr := b.cfg.OnAttackStart, b.p.Node().Addr4()
		onStart = func() { hook(addr) }
	}
	b.flood.LaunchUntil(rec.Method, rec.Target, rec.Until, b.cfg.StartJitter, onStart)
}

// String aids debugging.
func (b *Bot) String() string {
	return fmt.Sprintf("p2pbot(joined=%v attacking=%v seq=%d)", b.joined, b.Attacking(), b.lastSeq)
}
