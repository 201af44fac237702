package mirai

import (
	"net/netip"

	"ddosim/internal/container"
	"ddosim/internal/netsim"
	"ddosim/internal/sim"
)

// srcFlood labels a flood's start and its per-packet ticks.
var srcFlood = sim.NewSource("flood")

// Flooder is the Mirai attack engine, factored out of the bot behaviour
// so other botnet families (the Kademlia-DHT bot in internal/p2pbot)
// launch byte-for-byte the same floods their Mirai siblings do: paced
// at the device's own line rate, UDP-PLAIN carrying padded payloads,
// SYN/ACK as crafted header-only segments with randomized source ports
// and sequence numbers.
//
// A Flooder belongs to one process and draws jitter and TCP header
// randomness from that process's deterministic RNG stream. Launch may
// be called again while a flood is live (Mirai C&C operators re-command
// mid-attack; the DHT family re-reads records): the new order replaces
// the old one and the superseded tick chain dies at its next event via
// a generation stamp, so overlapping commands never double the rate.
type Flooder struct {
	p            *container.Process
	payloadBytes int

	method   string
	dst      netip.AddrPort
	until    sim.Time
	interval sim.Time
	sock     *netsim.UDPSocket

	attacking bool
	gen       int
	sent      uint64

	// tickFn is the re-arm callback, bound once per launch so the
	// per-packet Schedule call in tick allocates nothing (the flood
	// loop is a declared hot path; see //simlint:hotpath on tick).
	tickFn func()
}

// NewFlooder builds the engine for p. payloadBytes sizes the UDP-PLAIN
// padding (DefaultUDPPlainPayload when <= 0).
func NewFlooder(p *container.Process, payloadBytes int) *Flooder {
	if payloadBytes <= 0 {
		payloadBytes = DefaultUDPPlainPayload
	}
	return &Flooder{p: p, payloadBytes: payloadBytes}
}

// Attacking reports whether the flood loop is live.
func (f *Flooder) Attacking() bool { return f.attacking }

// Sent reports flood packets emitted so far, cumulative across
// launches.
func (f *Flooder) Sent() uint64 { return f.sent }

// Until reports the absolute instant the current order expires.
func (f *Flooder) Until() sim.Time { return f.until }

// Stop abandons the current order; the tick chain dies at its next
// event.
func (f *Flooder) Stop() {
	f.gen++
	f.attacking = false
}

// LaunchFor starts (or replaces) a flood against dst running for
// durationSecs measured from the jittered start instant — the Mirai
// command semantic: a bot that begins late still floods the full
// commanded window (the ramp-amortization mechanism behind the paper's
// Fig. 3).
func (f *Flooder) LaunchFor(method string, dst netip.AddrPort, durationSecs int, jitter sim.Time, onStart func()) bool {
	return f.launch(method, dst, jitter, onStart,
		func(start sim.Time) sim.Time { return start + sim.Time(durationSecs)*sim.Second })
}

// LaunchUntil starts (or replaces) a flood against dst that runs until
// the absolute instant until — the replicated-record semantic of the
// DHT family, whose signed commands carry a campaign end time rather
// than a per-bot duration.
func (f *Flooder) LaunchUntil(method string, dst netip.AddrPort, until sim.Time, jitter sim.Time, onStart func()) bool {
	return f.launch(method, dst, jitter, onStart, func(sim.Time) sim.Time { return until })
}

// launch arms the flood: bind/craft by method, supersede any live
// order, then schedule the first packet after a uniformly-random delay
// in [0, jitter] drawn from the process RNG (zero jitter starts now).
// onStart, when non-nil, observes the first-packet instant; a start
// that lands at or after the order's expiry sends nothing and calls
// nothing. untilAt maps the start instant to the order's expiry.
// Returns false for an unknown method or an unbindable socket.
func (f *Flooder) launch(method string, dst netip.AddrPort, jitter sim.Time, onStart func(), untilAt func(sim.Time) sim.Time) bool {
	rate := f.p.Node().DefaultDevice().Rate()
	var wireSize int
	var sock *netsim.UDPSocket
	switch method {
	case MethodUDPPlain:
		s, err := f.p.BindUDP(0, nil)
		if err != nil {
			f.p.Logf("flood: socket: %v", err)
			return false
		}
		sock = s
		wireSize = (&netsim.Packet{Proto: netsim.ProtoUDP, Dst: dst, Pad: f.payloadBytes}).Size()
	case MethodSYN, MethodACK:
		wireSize = (&netsim.Packet{Proto: netsim.ProtoTCP, Dst: dst, TCP: &netsim.TCPHeader{}}).Size()
	default:
		f.p.Logf("flood: unknown method %q", method)
		return false
	}
	// Supersede any live order: retire its socket and invalidate its
	// tick chain before installing the replacement.
	if f.sock != nil {
		f.sock.Close()
	}
	f.gen++
	f.method, f.dst, f.sock = method, dst, sock
	f.interval = rate.TxTime(wireSize)

	delay := sim.Time(0)
	if jitter > 0 {
		delay = sim.Time(f.p.RNG().Int63n(int64(jitter)))
	}
	start := f.p.Sched().Now() + delay
	f.until = untilAt(start)
	gen := f.gen
	f.tickFn = func() { f.tick(gen) }
	f.p.Sched().ScheduleAt(start, srcFlood, func() {
		if gen != f.gen || !f.p.Alive() {
			return
		}
		if f.p.Sched().Now() >= f.until {
			// Only LaunchUntil's fixed end can precede the start.
			f.attacking = false
			return
		}
		f.attacking = true
		if onStart != nil {
			onStart()
		}
		f.tick(gen)
	})
	return true
}

// tick emits one flood packet and re-arms, pacing the loop at the
// device line rate until the order expires or is superseded. This is
// the shared flood engine's per-packet loop — the path both botnet
// families pace at line rate — so it re-arms through the pre-bound
// tickFn instead of a fresh closure.
//
//simlint:hotpath
func (f *Flooder) tick(gen int) {
	if gen != f.gen {
		return
	}
	if !f.p.Alive() || f.p.Sched().Now() >= f.until {
		f.attacking = false
		return
	}
	switch f.method {
	case MethodUDPPlain:
		f.sock.SendPadded(f.dst, nil, f.payloadBytes)
	case MethodSYN:
		f.sendRawTCP(f.dst, netsim.FlagSYN)
	case MethodACK:
		f.sendRawTCP(f.dst, netsim.FlagACK)
	}
	f.sent++
	f.p.Sched().Schedule(f.interval, srcFlood, f.tickFn)
}

// sendRawTCP injects a crafted header-only segment with a randomized
// source port and sequence number — Mirai's syn/ack attack modules
// bypass the OS stack the same way.
func (f *Flooder) sendRawTCP(dst netip.AddrPort, flags netsim.TCPFlags) {
	node := f.p.Node()
	src := node.Addr4()
	if dst.Addr().Is6() {
		src = node.Addr6()
	}
	rng := f.p.RNG()
	pkt := node.AllocPacket()
	pkt.Proto = netsim.ProtoTCP
	pkt.Src = netip.AddrPortFrom(src, uint16(1024+rng.Intn(64000)))
	pkt.Dst = dst
	pkt.SetTCP(flags, uint32(rng.Int63()), 0)
	node.SendPacket(pkt)
}
