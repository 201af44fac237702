package ddosim_test

import (
	"net/netip"
	"sort"
	"testing"

	"ddosim/ddosim"
)

// TestUseCaseToolkitEndToEnd drives every §V helper through the
// public facade on one instrumented run: traffic analysis from the
// flow dataset and the sink, feature extraction, detector training,
// and epidemic fitting.
func TestUseCaseToolkitEndToEnd(t *testing.T) {
	cfg := smallConfig(15)
	cfg.AttackDuration = 40
	sim, err := ddosim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	extractor := ddosim.NewTrafficExtractor(sim.TServer())
	dst := netip.AddrPortFrom(sim.TServer().Addr4(), 80)
	if err := ddosim.InstallBenignClients(sim.Star(), dst, 4, "benign"); err != nil {
		t.Fatal(err)
	}

	r, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Infected != 15 {
		t.Fatalf("infected = %d", r.Infected)
	}

	// The flow dataset and the sink observed the attack. A flow that
	// outlives the active timeout spans several records; sum them.
	type flowKey struct {
		proto    string
		src, dst netip.AddrPort
	}
	type flow struct {
		label string
		bytes uint64
	}
	byKey := make(map[flowKey]*flow)
	var flows []*flow
	for _, rec := range sim.Flows().Records() {
		if !sim.TServer().HasAddr(rec.Dst.Addr()) {
			continue
		}
		key := flowKey{rec.Proto, rec.Src, rec.Dst}
		f := byKey[key]
		if f == nil {
			f = &flow{label: rec.Label}
			byKey[key] = f
			flows = append(flows, f)
		}
		f.bytes += rec.Bytes
	}
	if len(flows) < 15 {
		t.Fatalf("flows into TServer = %d", len(flows))
	}
	sort.SliceStable(flows, func(i, j int) bool { return flows[i].bytes > flows[j].bytes })
	for i, f := range flows[:3] {
		if f.label != "attack" || f.bytes == 0 {
			t.Fatalf("top flow %d: %+v", i, *f)
		}
	}
	if sim.Sink().RxPackets() == 0 {
		t.Fatal("sink saw nothing")
	}

	// Train and evaluate a detector on extracted windows.
	attackFrom := int64(r.AttackIssuedAt / ddosim.Second)
	attackTo := attackFrom + int64(cfg.AttackDuration)
	var samples []ddosim.DetectorSample
	for sec := int64(2); sec < attackTo+20; sec++ {
		samples = append(samples, ddosim.DetectorSample{
			X:      extractor.Window(sec).Slice(),
			Attack: sec >= attackFrom && sec < attackTo,
		})
	}
	det := ddosim.TrainDetector(samples, 150, 0.1, 1)
	conf := ddosim.EvaluateDetector(det, samples)
	if conf.Accuracy() < 0.9 {
		t.Fatalf("detector accuracy = %.2f (confusion %+v)", conf.Accuracy(), conf)
	}

	// Fit the infection curve.
	curve := r.InfectionCurve()
	if len(curve.Times) != 15 {
		t.Fatalf("infection curve has %d points", len(curve.Times))
	}
	lambda, rmse := ddosim.FitInfectionLambda(curve, 15, curve.Times[len(curve.Times)-1]+5)
	if lambda <= 0 || rmse < 0 {
		t.Fatalf("fit: lambda=%v rmse=%v", lambda, rmse)
	}
	beta, _ := ddosim.FitInfectionBeta(curve, 15, curve.Times[len(curve.Times)-1]+5)
	if beta <= 0 {
		t.Fatalf("beta = %v", beta)
	}
	times, infected := ddosim.SimulateExternalInfection(lambda, 15, 0.05, 30)
	if len(times) == 0 || len(infected) != len(times) {
		t.Fatal("model simulation empty")
	}
}

func TestMitigationViaFacade(t *testing.T) {
	// Same attack with and without a deployed rate limiter.
	base := smallConfig(12)
	r1, err := ddosim.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	sim2, err := ddosim.New(base)
	if err != nil {
		t.Fatal(err)
	}
	rl := ddosim.InstallRateLimiter(sim2.TServer(), 2500, 8192, 200)
	r2, err := sim2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r2.DReceivedKbps*5 > r1.DReceivedKbps {
		t.Fatalf("mitigation ineffective: %.1f vs %.1f kbps", r2.DReceivedKbps, r1.DReceivedKbps)
	}
	if rl.Blacklisted() == 0 {
		t.Fatal("no bots blacklisted")
	}
	rl.Uninstall()
}

func TestAttackMethodsViaFacade(t *testing.T) {
	for _, method := range []string{ddosim.MethodUDPPlain, ddosim.MethodSYN, ddosim.MethodACK} {
		cfg := smallConfig(5)
		cfg.AttackMethod = method
		r, err := ddosim.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if r.DReceivedKbps <= 0 {
			t.Fatalf("%s: no traffic", method)
		}
	}
}
