package p2pbot

import (
	"bytes"
	"crypto/ed25519"
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"ddosim/internal/container"
	"ddosim/internal/dht"
	"ddosim/internal/mirai"
	"ddosim/internal/netsim"
	"ddosim/internal/sim"
)

// srcTest labels the events this package's tests schedule.
var srcTest = sim.NewSource("test")

func testKey() ([32]byte, [32]byte) {
	var seed [32]byte
	for i := range seed {
		seed[i] = byte(i * 7)
	}
	var other [32]byte
	for i := range other {
		other[i] = byte(i*3 + 1)
	}
	return seed, other
}

func TestRecordSignVerify(t *testing.T) {
	seed, otherSeed := testKey()
	pub, priv := DeriveKey(seed)
	otherPub, _ := DeriveKey(otherSeed)

	rec := &Record{
		Seq:    3,
		Method: mirai.MethodUDPPlain,
		Target: netip.MustParseAddrPort("10.0.9.9:80"),
		Until:  1234 * sim.Second,
	}
	data := rec.Encode(priv)
	got, err := DecodeRecord(pub, data)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *rec {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, rec)
	}
	// Wrong key.
	if _, err := DecodeRecord(otherPub, data); err == nil {
		t.Fatal("foreign public key must not verify")
	}
	// Bit flip in the body.
	tampered := append([]byte(nil), data...)
	tampered[3] ^= 0x40
	if _, err := DecodeRecord(pub, tampered); err == nil {
		t.Fatal("tampered record must not verify")
	}
	// Truncation.
	if _, err := DecodeRecord(pub, data[:10]); err == nil {
		t.Fatal("truncated record must not verify")
	}
	// IPv6 target.
	rec6 := &Record{Seq: 4, Method: mirai.MethodSYN,
		Target: netip.MustParseAddrPort("[2001:db8::9]:443"), Until: 99 * sim.Second}
	got6, err := DecodeRecord(pub, rec6.Encode(priv))
	if err != nil {
		t.Fatal(err)
	}
	if *got6 != *rec6 {
		t.Fatalf("v6 round trip mismatch: %+v vs %+v", got6, rec6)
	}
}

// ---------------------------------------------------------------------
// Overlay integration

type botnet struct {
	sched  *sim.Scheduler
	engine *container.Engine
	seedC  *container.Container
	seeder *Seeder
	bots   []*Bot
	botCs  []*container.Container
	victim netip.AddrPort
	priv   ed25519.PrivateKey
}

func (bn *botnet) runFor(t *testing.T, d sim.Time) {
	t.Helper()
	if err := bn.sched.Run(bn.sched.Now() + d); err != nil {
		t.Fatal(err)
	}
}

func newBotnet(t *testing.T, seedVal int64, nBots int) *botnet {
	t.Helper()
	sched := sim.NewScheduler(seedVal)
	star := netsim.NewStar(netsim.New(sched))
	eng := container.NewEngine(sched, star)
	bn := &botnet{sched: sched, engine: eng}

	mk := func(name string, rate netsim.DataRate) *container.Container {
		img := &container.Image{Name: "ddosim/" + name, Tag: "t", Arch: "x86_64",
			Files: map[string][]byte{}, ExecPaths: map[string]bool{}}
		eng.RegisterImage(img)
		c, err := eng.Create("ddosim/"+name+":t", name,
			container.LinkConfig{Rate: rate, Delay: sim.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		return c
	}

	keySeed, _ := testKey()
	pub, priv := DeriveKey(keySeed)
	bn.priv = priv

	bn.seedC = mk("seed", 100*netsim.Mbps)
	bn.seeder = NewSeeder(SeederConfig{Key: priv})
	bn.seedC.Spawn(bn.seeder)
	boot := []netip.AddrPort{bn.seeder.Node().Addr()}

	victimC := mk("victim", 100*netsim.Mbps)
	bn.victim = netip.AddrPortFrom(victimC.Node().Addr4(), 80)

	// One factory for the fleet, as the attacker registers it.
	factory := BotFactory(BotConfig{Bootstrap: boot, PubKey: pub, PollPeriod: 10 * sim.Second})
	for i := 0; i < nBots; i++ {
		c := mk(fmt.Sprintf("bot-%d", i), 1*netsim.Mbps)
		bot := factory(nil).(*Bot)
		// Stagger infection like the exploit campaign would.
		delay := sim.Time(i) * 200 * sim.Millisecond
		sched.Schedule(delay, srcTest, func() { c.Spawn(bot) })
		bn.bots = append(bn.bots, bot)
		bn.botCs = append(bn.botCs, c)
	}
	return bn
}

func (bn *botnet) attackers() int {
	n := 0
	for _, b := range bn.bots {
		if b.Attacking() {
			n++
		}
	}
	return n
}

func TestCommandDisseminatesAndFloodsStart(t *testing.T) {
	bn := newBotnet(t, 21, 10)
	bn.runFor(t, 30*sim.Second)

	for i, b := range bn.bots {
		if !b.Joined() {
			t.Fatalf("bot %d never joined the overlay", i)
		}
	}
	if bn.seeder.Contacts < len(bn.bots) {
		t.Fatalf("seeder census saw %d peers, want >= %d", bn.seeder.Contacts, len(bn.bots))
	}

	until := bn.sched.Now() + 5*sim.Minute
	bn.seeder.PublishAttack(mirai.MethodUDPPlain, bn.victim, until)
	// One poll period plus lookup time disseminates to everyone.
	bn.runFor(t, 30*sim.Second)

	if got := bn.attackers(); got != len(bn.bots) {
		t.Fatalf("%d/%d bots attacking after dissemination window", got, len(bn.bots))
	}
	for i, b := range bn.bots {
		if b.CommandsSeen != 1 {
			t.Fatalf("bot %d saw %d commands, want 1 (republish must not re-trigger)", i, b.CommandsSeen)
		}
	}
}

func TestFloodSurvivesSeederTakedown(t *testing.T) {
	bn := newBotnet(t, 21, 10)
	bn.runFor(t, 30*sim.Second)

	until := bn.sched.Now() + 5*sim.Minute
	bn.seeder.PublishAttack(mirai.MethodUDPPlain, bn.victim, until)
	bn.runFor(t, 30*sim.Second)
	if got := bn.attackers(); got != len(bn.bots) {
		t.Fatalf("precondition: %d/%d attacking", got, len(bn.bots))
	}

	// Take the seeder down hard: process killed, link severed.
	for _, p := range bn.seedC.Procs() {
		bn.seedC.Kill(p.PID())
	}
	bn.seedC.Node().DefaultDevice().SetUp(false)

	before := make([]uint64, len(bn.bots))
	for i, b := range bn.bots {
		before[i] = b.PacketsSent()
	}
	bn.runFor(t, 2*sim.Minute)
	for i, b := range bn.bots {
		if !b.Attacking() {
			t.Fatalf("bot %d stopped attacking after seeder takedown", i)
		}
		if b.PacketsSent() <= before[i] {
			t.Fatalf("bot %d flood stalled after takedown", i)
		}
	}

	// A bot infected AFTER the takedown still finds the record in the
	// surviving replicas (it must bootstrap off a live peer).
	lateC := func() *container.Container {
		img := &container.Image{Name: "ddosim/late", Tag: "t", Arch: "x86_64",
			Files: map[string][]byte{}, ExecPaths: map[string]bool{}}
		bn.engine.RegisterImage(img)
		c, err := bn.engine.Create("ddosim/late:t", "late",
			container.LinkConfig{Rate: 1 * netsim.Mbps, Delay: sim.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		return c
	}()
	keySeed, _ := testKey()
	pub, _ := DeriveKey(keySeed)
	late := NewBot(BotConfig{
		Bootstrap:  []netip.AddrPort{bn.bots[0].Node().Addr(), bn.bots[1].Node().Addr()},
		PubKey:     pub,
		PollPeriod: 10 * sim.Second,
	})
	lateC.Spawn(late)
	bn.runFor(t, 30*sim.Second)
	if !late.Attacking() {
		t.Fatal("post-takedown recruit never learned the command from replicas")
	}

	// And the whole campaign winds down at the record's end time.
	bn.runFor(t, 5*sim.Minute)
	if got := bn.attackers(); got != 0 {
		t.Fatalf("%d bots still attacking past campaign end", got)
	}
}

func TestFresherRecordSupersedes(t *testing.T) {
	bn := newBotnet(t, 21, 6)
	bn.runFor(t, 30*sim.Second)

	v1End := bn.sched.Now() + 10*sim.Minute
	bn.seeder.PublishAttack(mirai.MethodUDPPlain, bn.victim, v1End)
	bn.runFor(t, 30*sim.Second)

	// Re-target: fresh record, new method.
	victim2 := netip.AddrPortFrom(bn.seedC.Node().Addr4(), 443)
	bn.seeder.PublishAttack(mirai.MethodSYN, victim2, v1End)
	bn.runFor(t, 30*sim.Second)
	for i, b := range bn.bots {
		if b.CommandsSeen != 2 {
			t.Fatalf("bot %d saw %d commands, want 2", i, b.CommandsSeen)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	sig := func() string {
		bn := newBotnet(t, 21, 8)
		bn.runFor(t, 30*sim.Second)
		bn.seeder.PublishAttack(mirai.MethodUDPPlain, bn.victim, bn.sched.Now()+2*sim.Minute)
		bn.runFor(t, 90*sim.Second)
		s := ""
		for i, b := range bn.bots {
			s += fmt.Sprintf("%d:%d:%d:%d;", i, b.PacketsSent(), b.Polls, b.Node().RPCsSent)
		}
		return s + fmt.Sprintf("seed:%d", bn.seeder.Contacts)
	}
	a, b := sig(), sig()
	if a != b {
		t.Fatalf("same-seed runs diverged:\n%s\n%s", a, b)
	}
}

// ---------------------------------------------------------------------
// The verification contract: a bot acts only on record bytes that
// passed ed25519.Verify under the channel key in this run, and bytes
// equal to the last ones that passed are not checked again.

// TestFactoryBotsVerifyRecordOnce delivers one record to a fleet many
// times, by poll and by STORE push, and expects one DecodeRecord call.
func TestFactoryBotsVerifyRecordOnce(t *testing.T) {
	bn := newBotnet(t, 21, 10)
	bn.runFor(t, 30*sim.Second)

	check := bn.bots[0].check
	pushes := 0
	for i, b := range bn.bots {
		if b.check != check {
			t.Fatalf("bot %d has a record check of its own", i)
		}
		onStore := b.Node().OnStore
		b.Node().OnStore = func(key dht.ID, value []byte, seq uint64) {
			if key == b.cmdKey {
				pushes++
			}
			onStore(key, value, seq)
		}
	}

	bn.seeder.PublishAttack(mirai.MethodUDPPlain, bn.victim, bn.sched.Now()+5*sim.Minute)
	bn.runFor(t, 60*sim.Second)

	if got := bn.attackers(); got != len(bn.bots) {
		t.Fatalf("%d/%d bots attacking", got, len(bn.bots))
	}
	deliveries := check.hits + check.verified
	if pushes == 0 || deliveries-pushes < 2*len(bn.bots) {
		t.Fatalf("%d deliveries (%d by push); want pushes and several polls per bot", deliveries, pushes)
	}
	if check.verified != 1 {
		t.Fatalf("%d deliveries of one record ran DecodeRecord %d times, want 1", deliveries, check.verified)
	}
}

// TestForgedSameSeqRecordRejected flips one signature bit of the
// record the memo holds: same Seq, other bytes. Every bot that gets it
// verifies it again, rejects it, logs the rejection and does not act.
func TestForgedSameSeqRecordRejected(t *testing.T) {
	bn := newBotnet(t, 21, 3)
	bn.runFor(t, 30*sim.Second)

	rec := &Record{Seq: 1, Method: mirai.MethodUDPPlain, Target: bn.victim, Until: bn.sched.Now() + 5*sim.Minute}
	good := rec.Encode(bn.priv)
	forged := append([]byte(nil), good...)
	forged[len(forged)-1] ^= 0x01

	bn.bots[0].handleRecord(good)
	check := bn.bots[0].check
	if check.verified != 1 || bn.bots[0].CommandsSeen != 1 {
		t.Fatalf("valid record: verified %d, commands seen %d", check.verified, bn.bots[0].CommandsSeen)
	}
	for i, b := range bn.bots {
		b.handleRecord(forged)
		if check.verified != 2+i {
			t.Fatalf("bot %d: forged record not verified (%d DecodeRecord calls)", i, check.verified)
		}
		logged := false
		for _, line := range bn.botCs[i].Logs() {
			logged = logged || strings.Contains(line, "rejecting record: p2pbot: bad record signature")
		}
		if !logged {
			t.Fatalf("bot %d did not log the rejection: %q", i, bn.botCs[i].Logs())
		}
	}
	bn.runFor(t, sim.Second)
	if bn.bots[0].CommandsSeen != 1 || bn.bots[1].CommandsSeen != 0 || bn.attackers() != 1 {
		t.Fatalf("a bot acted on the forged record: seen %d/%d/%d, %d attacking",
			bn.bots[0].CommandsSeen, bn.bots[1].CommandsSeen, bn.bots[2].CommandsSeen, bn.attackers())
	}

	// The memo still holds the valid bytes: no new verification.
	bn.bots[1].handleRecord(good)
	if check.verified != 1+len(bn.bots) || bn.bots[1].CommandsSeen != 1 {
		t.Fatalf("valid record after the forgery: verified %d, commands seen %d", check.verified, bn.bots[1].CommandsSeen)
	}
}

// TestRecordCheckCopiesAcceptedBytes mutates the caller's buffer after
// acceptance; the memo must keep the bytes that passed.
func TestRecordCheckCopiesAcceptedBytes(t *testing.T) {
	seed, _ := testKey()
	pub, priv := DeriveKey(seed)
	rec := Record{Seq: 5, Method: mirai.MethodSYN, Target: netip.MustParseAddrPort("10.0.9.9:80"), Until: 60 * sim.Second}
	data := rec.Encode(priv)
	buf := append([]byte(nil), data...)

	c := &recordCheck{pub: pub}
	if got, err := c.decode(buf); err != nil || got != rec {
		t.Fatalf("decode = %+v, %v", got, err)
	}
	buf[0] ^= 0xff
	if !bytes.Equal(c.data, data) {
		t.Fatal("mutating the caller's buffer changed the memo")
	}
	if _, err := c.decode(buf); err == nil {
		t.Fatal("the mutated buffer passed")
	}
	if got, err := c.decode(data); err != nil || got != rec || c.verified != 2 || c.hits != 1 {
		t.Fatalf("original bytes after mutation: %+v, %v, verified %d, hits %d", got, err, c.verified, c.hits)
	}
}

// TestFactoriesDoNotShareRecordCheck: one check per factory (per run),
// and one per directly built bot.
func TestFactoriesDoNotShareRecordCheck(t *testing.T) {
	seed, _ := testKey()
	pub, _ := DeriveKey(seed)
	cfg := BotConfig{PubKey: pub}
	f1, f2 := BotFactory(cfg), BotFactory(cfg)
	a, b, c := f1(nil).(*Bot), f1(nil).(*Bot), f2(nil).(*Bot)
	if a.check != b.check {
		t.Error("bots from one factory do not share a record check")
	}
	if a.check == c.check {
		t.Error("bots from two factories share a record check")
	}
	if d, e := NewBot(cfg), NewBot(cfg); d.check == e.check || d.check == a.check {
		t.Error("NewBot reuses a record check")
	}
}
