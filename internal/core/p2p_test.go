package core_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"ddosim/internal/churn"
	"ddosim/internal/core"
	"ddosim/internal/faults"
	"ddosim/internal/sim"
)

// p2pConfig is the shared scenario for the P2P-family tests: a small
// fleet recruited over the memory-error vector that joins the Kademlia
// overlay and pulls the attack order from signed records.
func p2pConfig(seed int64) core.Config {
	cfg := core.DefaultConfig(10)
	cfg.Seed = seed
	cfg.Botnet = core.BotnetP2P
	cfg.Churn = churn.Dynamic
	cfg.SimDuration = 300 * sim.Second
	cfg.AttackDuration = 30
	cfg.RecruitTimeout = 90 * sim.Second
	cfg.P2PPollPeriod = 10 * sim.Second
	return cfg
}

// TestP2PRunEndToEnd drives the whole decentralized kill chain:
// exploit → infection → overlay join → record poll → flood, and
// checks the family-specific surfaces (no C&C, seeder census, DHT
// control traffic labeled apart from the attack traffic).
func TestP2PRunEndToEnd(t *testing.T) {
	a, s, r := runCfg(t, p2pConfig(1))

	if s.CNC() != nil {
		t.Error("p2p run built a centralized C&C")
	}
	if s.Seeder() == nil {
		t.Fatal("p2p run has no seeder")
	}
	if r.InfectionRate() == 0 {
		t.Error("no device was infected")
	}
	if r.BotsRegistered == 0 {
		t.Error("seeder census heard no peers")
	}
	if s.Seeder().Contacts != r.BotsRegistered {
		t.Errorf("seeder contacts %d != registered census %d",
			s.Seeder().Contacts, r.BotsRegistered)
	}
	if r.DReceivedKbps == 0 {
		t.Error("sink received nothing; the order never disseminated")
	}
	labels := make(map[string]int)
	for _, f := range s.Flows().Records() {
		labels[f.Label]++
	}
	if labels["dht"] == 0 {
		t.Errorf("no flows labeled dht (got %v)", labels)
	}
	if labels["attack"] == 0 {
		t.Errorf("no flows labeled attack (got %v)", labels)
	}
	if !bytes.Contains(a.rep, []byte(`"infection_rate"`)) {
		t.Error("report JSON lost its shape")
	}
}

// TestP2PSameSeedByteIdenticalArtifacts extends the determinism
// contract to the DHT overlay: per-node RNG streams and sorted bucket
// iteration must keep same-seed runs byte-identical, and the overlay
// must actually be seed-sensitive.
func TestP2PSameSeedByteIdenticalArtifacts(t *testing.T) {
	a1, _, _ := runCfg(t, p2pConfig(1234))
	a2, _, _ := runCfg(t, p2pConfig(1234))
	a1.equal(t, a2, "same-seed p2p runs")

	a3, _, _ := runCfg(t, p2pConfig(99))
	if bytes.Equal(a1.rep, a3.rep) {
		t.Error("different seeds produced identical p2p report JSON")
	}
}

// TestP2PConcurrentRunsByteIdentical runs two same-seed p2p
// simulations, faults included, on two goroutines at once, as the
// experiment pool does. Their artifacts must match each other and a
// sequential run; under -race it flags any state the P2P family shares
// across runs.
func TestP2PConcurrentRunsByteIdentical(t *testing.T) {
	cfg := func() core.Config {
		c := p2pConfig(1234)
		c.Faults = faults.AtIntensity(0.5)
		return c
	}
	want, _, _ := runCfg(t, cfg())

	var got [2]artifacts
	var errs [2]error
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _, _, errs[i] = runArtifacts(cfg())
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want.equal(t, got[i], fmt.Sprintf("sequential vs concurrent run %d", i))
	}
	got[0].equal(t, got[1], "two concurrent runs")
}

// TestP2PFaultArtifactsMatchGolden pins every artifact of the p2p
// family under dynamic churn and a half-strength fault scenario: the
// seeder, the overlay's churn, and the fault injector's process
// crashes and respawns all feed the hashed bytes. Its report and trace
// hashes moved with the kill-chain spans (see goldenHashes).
func TestP2PFaultArtifactsMatchGolden(t *testing.T) {
	cfg := p2pConfig(1234)
	cfg.Faults = faults.AtIntensity(0.5)
	a, _, r := runCfg(t, cfg)
	if r.Faults == nil || r.Faults.ProcCrashes == 0 || r.Faults.ProcRestarts == 0 {
		t.Errorf("fault stats %+v; the scenario no longer crashes and respawns processes", r.Faults)
	}
	a.matchGolden(t, "p2p faults", goldenHashes{
		rep:    "27a34d4c6c52821d6b510327202ff7f40467d83f33ebf3976e95b54c793f7cd6",
		chrome: "281deabf8851489d5f06f7ed9f853c8414b96dab362a40a8c8d0fac31bb581ec",
		flows:  "ef4e6d0575fdfee232acd46cfaa3e5a0d272308b4564a44b46d318e857d5080c",
		ts:     "3f885b30c78233a30d7a8c96142e9350bebee9970405d593bae1f74b4d26b5f9",
		prom:   "20e6dad3f72c001715a184336857b6012d61b077b78a7353e39698532e763d2d",
	})
}

// TestP2PTakedownContrast is the executable form of the family
// contrast the p2p experiment measures: under a permanent C&C
// takedown mid-attack, the heartbeat-mode centralized botnet starves
// within one command wave while the P2P fleet — holding signed
// records with the campaign's absolute end — keeps flooding.
func TestP2PTakedownContrast(t *testing.T) {
	const (
		takedownSec = 20
		graceSec    = 15
	)
	fc := faults.Config{CNCTakedownAfterOrder: takedownSec * sim.Second}

	split := func(series []float64) (pre, post float64) {
		avg := func(s []float64) float64 {
			if len(s) == 0 {
				return 0
			}
			var sum float64
			for _, v := range s {
				sum += v
			}
			return sum / float64(len(s))
		}
		td, from := takedownSec, takedownSec+graceSec
		if td > len(series) {
			td = len(series)
		}
		if from > len(series) {
			from = len(series)
		}
		return avg(series[:td]), avg(series[from:])
	}

	mcfg := core.DefaultConfig(10)
	mcfg.Seed = 1
	mcfg.SimDuration = 300 * sim.Second
	mcfg.AttackDuration = 60
	mcfg.CommandWave = 10 * sim.Second
	mcfg.Faults = fc
	_, _, mr := runCfg(t, mcfg)
	mPre, mPost := split(mr.PerSecondKbps)
	if mPre == 0 {
		t.Fatal("mirai never flooded pre-takedown")
	}
	if mPost > 0.05*mPre {
		t.Errorf("mirai flood survived the takedown: pre %.1f post %.1f kbps", mPre, mPost)
	}
	if mr.Faults == nil || mr.Faults.CNCTakedowns != 1 {
		t.Errorf("takedown did not fire exactly once: %+v", mr.Faults)
	}

	pcfg := p2pConfig(1)
	pcfg.Churn = churn.None
	pcfg.AttackDuration = 60
	pcfg.Faults = fc
	_, _, pr := runCfg(t, pcfg)
	pPre, pPost := split(pr.PerSecondKbps)
	if pPre == 0 {
		t.Fatal("p2p never flooded pre-takedown")
	}
	if pPost < 0.9*pPre {
		t.Errorf("p2p flood did not sustain the takedown: pre %.1f post %.1f kbps", pPre, pPost)
	}
}
