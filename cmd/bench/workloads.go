package main

import (
	"fmt"

	"ddosim/ddosim"
)

// workload is one fixed kill-chain scenario. Each repetition is one
// closed run of it: build the testbed, run to the horizon, export the
// artifacts. None sets Shards or SchedQueue, so each runs whatever
// kernel is the default.
type workload struct {
	name    string
	devs    int
	horizon ddosim.Time
	attack  int // commanded flood, seconds
	// recruit overrides the recruitment deadline when non-zero.
	recruit ddosim.Time
	// tweak applies the workload's remaining departures from the
	// default config.
	tweak func(*ddosim.Config)
	// check is the workload's seed-independent sanity test: it keeps
	// the workload exercising what it was chosen for.
	check func(w workload, s stats) error
}

// workloads are the benchmark's scenarios; README.md gives the reason
// for each and which layer it stresses.
var workloads = []workload{
	{
		// The per-packet fast path below TServer's 25 Mbps downlink:
		// no drops, no recruitment to speak of.
		name: "flood-uncongested", devs: 60, horizon: 600 * ddosim.Second, attack: 400,
		tweak: fixedRate,
		check: func(_ workload, s stats) error {
			return expect(s["netsim.drops"] == 0, "netsim.drops = %v, want 0", s["netsim.drops"])
		},
	},
	{
		// The same layer saturated: the drop path and its trace events.
		name: "flood-congested", devs: 200, horizon: 90 * ddosim.Second, attack: 60,
		recruit: 30 * ddosim.Second,
		tweak:   fixedRate,
		check: func(_ workload, s stats) error {
			return expect(s["netsim.drop_frac"] > 0.2, "netsim.drop_frac = %v, want > 0.2", s["netsim.drop_frac"])
		},
	},
	{
		// Memory-error recruitment at fleet scale with almost no flood.
		name: "recruit-10k", devs: 10_000, horizon: 60 * ddosim.Second, attack: 1,
		recruit: 50 * ddosim.Second,
		check: func(w workload, s stats) error {
			return expect(s["exploit.infected"] >= 0.9*float64(w.devs),
				"exploit.infected = %v, want >= 90%% of %d", s["exploit.infected"], w.devs)
		},
	},
	{
		// The control plane: Kademlia overlay, churn, fault timers.
		name: "p2p-churn-faults", devs: 1000, horizon: 150 * ddosim.Second, attack: 30,
		tweak: func(c *ddosim.Config) {
			c.Botnet = ddosim.BotnetP2P
			c.Churn = ddosim.ChurnDynamic
			c.Faults = ddosim.FaultsAtIntensity(0.5)
		},
		check: func(_ workload, s stats) error {
			if err := expect(s["churn.departures"] > 0, "churn.departures = 0, want > 0"); err != nil {
				return err
			}
			return expect(s["faults.injected"] > 0, "faults.injected = 0, want > 0")
		},
	},
}

// fixedRate gives every Dev the middle of the paper's 100–500 kbps
// range. Sampled rates would make the flood's packet count, and so the
// work a rep does, swing several percent from seed to seed.
func fixedRate(c *ddosim.Config) {
	c.MinDevRate = 300 * ddosim.Kbps
	c.MaxDevRate = c.MinDevRate
}

// config builds the workload's ddosim config for one seed.
func (w workload) config(seed int64) ddosim.Config {
	c := ddosim.DefaultConfig(w.devs)
	c.Seed = seed
	c.SimDuration = w.horizon
	c.AttackDuration = w.attack
	if w.recruit > 0 {
		c.RecruitTimeout = w.recruit
	}
	if w.tweak != nil {
		w.tweak(&c)
	}
	return c
}

// sane applies the checks every workload shares — the attack order
// went out and something was infected — and then the workload's own.
func (w workload) sane(s stats) error {
	if s["core.attack_issued_s"] < 0 {
		return fmt.Errorf("attack never issued")
	}
	if s["exploit.infected"] <= 0 {
		return fmt.Errorf("no device infected")
	}
	if w.check == nil {
		return nil
	}
	return w.check(w, s)
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func expect(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}
