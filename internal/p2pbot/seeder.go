package p2pbot

import (
	"crypto/ed25519"
	"net/netip"

	"ddosim/internal/container"
	"ddosim/internal/dht"
	"ddosim/internal/sim"
)

// srcRepublish labels the seeder's republish ticks.
var srcRepublish = sim.NewSource("p2p.republish")

// SeederConfig configures the botmaster's overlay presence.
type SeederConfig struct {
	// Key signs command records.
	Key ed25519.PrivateKey
	// Bootstrap lists other overlay entry points (usually empty: the
	// seeder IS the entry point).
	Bootstrap []netip.AddrPort
	// RepublishPeriod re-replicates the live record to the current
	// K-closest set, healing churn holes. Default 30 s.
	RepublishPeriod sim.Time
	// DHT tunes the underlying node.
	DHT dht.Config
	// OnContact fires once per distinct peer address ever heard from —
	// the P2P family's recruitment census, the counterpart of Mirai's
	// CNC.OnBotRegistered.
	OnContact func(addr netip.Addr)
}

// Seeder is the botmaster's process behaviour ("p2p-seed"): the
// overlay's bootstrap node, the command publisher, and the republish
// pump. Crashing it is the P2P family's takedown analogue — and the
// point is that the already-replicated record outlives it.
type Seeder struct {
	cfg  SeederConfig
	p    *container.Process
	node *dht.Node

	cmdKey  dht.ID
	seq     uint64
	current []byte // live signed record, nil before first publish
	repub   *sim.Ticker
	seen    map[netip.Addr]bool

	// Contacts counts distinct peers heard from.
	Contacts int
	// Published counts PublishAttack calls.
	Published int
}

var _ container.Behavior = (*Seeder)(nil)

// NewSeeder creates the behaviour.
func NewSeeder(cfg SeederConfig) *Seeder {
	if cfg.RepublishPeriod <= 0 {
		cfg.RepublishPeriod = 30 * sim.Second
	}
	return &Seeder{cfg: cfg, cmdKey: dht.Key(CommandChannel), seen: make(map[netip.Addr]bool)}
}

// SeederFactory adapts NewSeeder to the binary registry.
func SeederFactory(cfg SeederConfig) container.BehaviorFactory {
	return func(args []string) container.Behavior { return NewSeeder(cfg) }
}

// Name implements container.Behavior.
func (s *Seeder) Name() string { return "p2p-seed" }

// Node exposes the underlying DHT node (tests, reports).
func (s *Seeder) Node() *dht.Node { return s.node }

// Start implements container.Behavior.
func (s *Seeder) Start(p *container.Process) {
	s.p = p
	s.node = dht.New(p, s.cfg.DHT)
	if err := s.node.Start(p.Node().Addr4()); err != nil {
		p.Logf("p2p-seed: %v", err)
		return
	}
	s.node.OnContact = func(c dht.Contact) {
		addr := c.Addr.Addr()
		if s.seen[addr] {
			return
		}
		s.seen[addr] = true
		s.Contacts++
		if s.cfg.OnContact != nil {
			s.cfg.OnContact(addr)
		}
	}
	if len(s.cfg.Bootstrap) > 0 {
		s.node.Join(s.cfg.Bootstrap, nil)
	}
	s.repub = p.NewTicker(s.cfg.RepublishPeriod, s.republish)
	s.repub.Source = srcRepublish
	s.repub.Start()
}

// Stop implements container.Behavior.
func (s *Seeder) Stop(*container.Process) {
	if s.node != nil {
		s.node.Close()
	}
}

// PublishAttack signs and replicates a new attack order running until
// the given absolute instant. Returns the record's sequence number.
func (s *Seeder) PublishAttack(method string, target netip.AddrPort, until sim.Time) uint64 {
	s.seq++
	rec := &Record{Seq: s.seq, Method: method, Target: target, Until: until}
	s.current = rec.Encode(s.cfg.Key)
	s.Published++
	s.node.Put(s.cmdKey, s.current, s.seq, nil)
	return s.seq
}

// republish re-replicates the live record to the current K-closest
// set; stale copies lose on seq, so this is idempotent.
func (s *Seeder) republish() {
	if s.current == nil || !s.p.Alive() {
		return
	}
	s.node.Put(s.cmdKey, s.current, s.seq, nil)
}
