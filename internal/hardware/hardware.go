// Package hardware models the paper's physical validation testbed
// (§IV-D): Raspberry Pi Devs rate-limited to 100–500 kbps on a shared
// 802.11 channel behind a consumer router, flooding a desktop TServer
// whose Wireshark capture measures the received rate.
//
// This is an independently-written model — it shares no code with
// netsim — so comparing its output against DDoSim's reproduces the
// structure of the paper's validation: the same experiment on two
// different substrates should produce similar curves (Fig. 4).
//
// The wireless MAC is a contention-window model of 802.11 DCF: when
// the channel frees, every backlogged station draws a backoff slot
// from its contention window; the unique minimum wins the channel, and
// ties collide (wasting airtime and doubling the colliders' windows).
package hardware

import (
	"math/rand"

	"ddosim/internal/sim"
)

// Sources labelling the testbed model's frame arrivals and its channel
// arbitration.
var (
	srcArrival = sim.NewSource("hw.arrival")
	srcChannel = sim.NewSource("hw.channel")
)

// Config parameterizes one hardware-testbed run.
type Config struct {
	// Seed drives rate sampling, backoff draws, and measurement
	// noise.
	Seed int64
	// NumDevs is the number of Raspberry Pis (the paper sweeps 1–19).
	NumDevs int
	// MinRateBps/MaxRateBps bound each Pi's shaped rate (bits/s);
	// the paper limits them to 100–500 kbps.
	MinRateBps int64
	MaxRateBps int64
	// RatesBps, when non-empty, pins each Pi's shaped rate instead of
	// sampling — the validation experiment configures the *same*
	// devices on both substrates.
	RatesBps []int64
	// AttackSecs is the flood duration.
	AttackSecs int
	// PayloadBytes is the UDP flood payload (Mirai default 512).
	PayloadBytes int
}

// DefaultConfig mirrors the paper's validation settings.
func DefaultConfig(numDevs int) Config {
	return Config{
		Seed:         1,
		NumDevs:      numDevs,
		MinRateBps:   100_000,
		MaxRateBps:   500_000,
		AttackSecs:   100,
		PayloadBytes: 512,
	}
}

// Result is the Wireshark-side measurement.
type Result struct {
	// AvgReceivedKbps is the average received payload rate at
	// TServer over the attack window — the Fig. 4 y-axis.
	AvgReceivedKbps float64
	// Delivered and Collisions count MAC outcomes.
	Delivered  uint64
	Collisions uint64
}

// 802.11g-style MAC/PHY constants.
const (
	phyRateBps   = 54_000_000
	slotTime     = 9 * sim.Microsecond
	difs         = 28 * sim.Microsecond
	sifsPlusAck  = 44 * sim.Microsecond
	macOverheadB = 36 // MAC header + LLC + FCS
	ipUDPHeaderB = 28
	etherHeaderB = 14 // what the capture sees on the wired segment
	cwMin        = 16
	cwMax        = 1024
)

// station is one Pi: a shaped packet source with DCF backoff state.
type station struct {
	rateBps   int64
	backlog   int
	cw        int
	delivered uint64
}

// Run executes the hardware model and returns the measurement.
func Run(cfg Config) Result {
	if cfg.NumDevs <= 0 || cfg.AttackSecs <= 0 {
		return Result{}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sched := sim.NewScheduler(cfg.Seed + 1)

	frameBytes := cfg.PayloadBytes + ipUDPHeaderB + macOverheadB
	airTime := difs + phyRateBps64(frameBytes) + sifsPlusAck

	var res Result
	var receivedPayload uint64
	channelFree := sim.Time(0)
	idle := true
	var arbitrate func()

	stations := make([]*station, cfg.NumDevs)
	for i := range stations {
		var rate int64
		if i < len(cfg.RatesBps) {
			rate = cfg.RatesBps[i]
		} else {
			rate = cfg.MinRateBps + rng.Int63n(cfg.MaxRateBps-cfg.MinRateBps+1)
		}
		st := &station{rateBps: rate, cw: cwMin}
		stations[i] = st
		// Shaped arrivals: one frame every wire-time at the Pi's
		// traffic-shaper rate. An arrival wakes an idle channel.
		interval := sim.Time(int64(frameBytes) * 8 * int64(sim.Second) / rate)
		t := sim.NewTicker(sched, interval, srcArrival, func() {
			st.backlog++
			if idle {
				idle = false
				sched.Schedule(0, srcChannel, arbitrate)
			}
		})
		t.StartImmediate()
	}

	// The channel-arbitration loop: at each free instant, contend.
	arbitrate = func() {
		now := sched.Now()
		if now < channelFree {
			sched.ScheduleAt(channelFree, srcChannel, arbitrate)
			return
		}
		var contenders []*station
		for _, st := range stations {
			if st.backlog > 0 {
				contenders = append(contenders, st)
			}
		}
		if len(contenders) == 0 {
			idle = true // next arrival re-arms arbitration
			return
		}
		// Each contender draws a backoff slot; unique minimum wins.
		minSlot, winners := cwMax+1, contenders[:0:0]
		for _, st := range contenders {
			s := rng.Intn(st.cw)
			switch {
			case s < minSlot:
				minSlot, winners = s, append(winners[:0], st)
			case s == minSlot:
				winners = append(winners, st)
			}
		}
		start := now + sim.Time(minSlot)*slotTime
		if len(winners) == 1 {
			w := winners[0]
			w.backlog--
			w.delivered++
			w.cw = cwMin
			res.Delivered++
			// Wireshark on TServer's Ethernet segment sees the
			// Ethernet frame: payload + IP/UDP + Ethernet headers.
			receivedPayload += uint64(cfg.PayloadBytes + ipUDPHeaderB + etherHeaderB)
		} else {
			// Collision: airtime wasted, colliders double their CW.
			res.Collisions++
			for _, w := range winners {
				if w.cw < cwMax {
					w.cw *= 2
				}
			}
		}
		channelFree = start + airTime
		sched.ScheduleAt(channelFree, srcChannel, arbitrate)
	}
	horizon := sim.Time(cfg.AttackSecs) * sim.Second
	if err := sched.Run(horizon); err != nil {
		return res
	}

	// Wireshark-side measurement with a little capture noise.
	kbps := float64(receivedPayload) * 8 / 1000 / float64(cfg.AttackSecs)
	noise := 1 + 0.02*rng.NormFloat64()
	if noise < 0.9 {
		noise = 0.9
	}
	res.AvgReceivedKbps = kbps * noise
	return res
}

func phyRateBps64(bytes int) sim.Time {
	return sim.Time(int64(bytes) * 8 * int64(sim.Second) / phyRateBps)
}
