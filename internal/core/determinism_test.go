package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"ddosim/internal/churn"
	"ddosim/internal/core"
	"ddosim/internal/faults"
	"ddosim/internal/netsim"
	"ddosim/internal/report"
	"ddosim/internal/sim"
)

// artifacts holds every serialized export of one run. The determinism
// tests compare (and hash) these byte-for-byte.
type artifacts struct {
	rep    []byte // report JSON
	jsonl  []byte // trace JSONL
	chrome []byte // Chrome trace_event JSON
	flows  []byte // labeled flow dataset CSV
	ts     []byte // windowed time-series CSV
}

// equal compares all artifacts and reports each mismatch through t.
func (a artifacts) equal(t *testing.T, b artifacts, what string) {
	t.Helper()
	pairs := []struct {
		name   string
		x1, x2 []byte
	}{
		{"report JSON", a.rep, b.rep},
		{"trace JSONL", a.jsonl, b.jsonl},
		{"Chrome trace", a.chrome, b.chrome},
		{"flow CSV", a.flows, b.flows},
		{"time-series CSV", a.ts, b.ts},
	}
	for _, p := range pairs {
		if !bytes.Equal(p.x1, p.x2) {
			t.Errorf("%s: %s differs:\n%s", what, p.name, firstDiff(p.x1, p.x2))
		}
	}
}

// runOnce executes a small end-to-end scenario — dynamic churn keeps
// membership flips, rejoin timers, and C&C reaping all active — and
// returns every serialized artifact. The profiler's wall clock is
// replaced with a deterministic counter so the report's observability
// summary is seed-determined too.
func runOnce(t *testing.T, seed int64) artifacts {
	return runOnceFaults(t, seed, faults.Config{})
}

// runOnceFaults is runOnce under a fault scenario.
func runOnceFaults(t *testing.T, seed int64, fc faults.Config) artifacts {
	t.Helper()
	cfg := core.DefaultConfig(10)
	cfg.Seed = seed
	cfg.Churn = churn.Dynamic
	cfg.SimDuration = 300 * sim.Second
	cfg.AttackDuration = 30
	cfg.RecruitTimeout = 90 * sim.Second
	cfg.Faults = fc
	a, _, _ := runCfg(t, cfg)
	return a
}

// runCfg executes an arbitrary configuration with a deterministic
// profiler clock and serializes every artifact. Shared by the classic
// determinism scenarios above and the P2P-family ones in p2p_test.go.
func runCfg(t *testing.T, cfg core.Config) (artifacts, *core.Simulation, *core.Results) {
	t.Helper()
	a, s, r, err := runArtifacts(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a, s, r
}

// runArtifacts is runCfg returning its error, for runs on goroutines
// other than the test's.
func runArtifacts(cfg core.Config) (artifacts, *core.Simulation, *core.Results, error) {
	s, err := core.New(cfg)
	if err != nil {
		return artifacts{}, nil, nil, err
	}
	var fakeNanos int64
	s.Obs().Prof.SetClock(func() int64 {
		fakeNanos += 1_000_000
		return fakeNanos
	})
	r, err := s.Run()
	if err != nil {
		return artifacts{}, nil, nil, err
	}

	var out artifacts
	for _, w := range []struct {
		dst   *[]byte
		write func(io.Writer) error
	}{
		{&out.rep, report.FromResults(cfg, r, true).WriteJSON},
		{&out.jsonl, s.Obs().Trace.WriteJSONL},
		{&out.chrome, s.Obs().Trace.WriteChromeTrace},
		{&out.flows, s.Flows().WriteCSV},
		{&out.ts, s.Windows().WriteCSV},
	} {
		var buf bytes.Buffer
		if err := w.write(&buf); err != nil {
			return artifacts{}, nil, nil, err
		}
		*w.dst = buf.Bytes()
	}
	return out, s, r, nil
}

// goldenHashes holds the SHA-256 of each artifact of one pinned run.
type goldenHashes struct{ rep, jsonl, chrome, flows, ts string }

// matchGolden reports every artifact whose hash differs from want.
func (a artifacts) matchGolden(t *testing.T, what string, want goldenHashes) {
	t.Helper()
	for _, g := range []struct {
		name, want string
		got        []byte
	}{
		{"report JSON", want.rep, a.rep},
		{"trace JSONL", want.jsonl, a.jsonl},
		{"Chrome trace", want.chrome, a.chrome},
		{"flow CSV", want.flows, a.flows},
		{"time-series CSV", want.ts, a.ts},
	} {
		if got := sha256Hex(g.got); got != g.want {
			t.Errorf("%s: %s hash = %s, want %s", what, g.name, got, g.want)
		}
	}
}

// TestSameSeedByteIdenticalArtifacts is the executable form of the
// invariant simlint's analyzers guard statically: two runs with the
// same seed must serialize byte-identical report JSON and trace
// exports. Any wall-clock read, global-RNG draw, or map-iteration
// leak in a live path shows up here as a diff.
func TestSameSeedByteIdenticalArtifacts(t *testing.T) {
	a1 := runOnce(t, 1234)
	a2 := runOnce(t, 1234)
	a1.equal(t, a2, "same-seed runs")

	// A different seed must actually change the run, or the assertions
	// above prove nothing.
	a3 := runOnce(t, 99)
	if bytes.Equal(a1.rep, a3.rep) {
		t.Error("different seeds produced identical report JSON; scenario is not seed-sensitive")
	}
	if bytes.Equal(a1.flows, a3.flows) {
		t.Error("different seeds produced identical flow CSV; scenario is not seed-sensitive")
	}
}

// TestFaultFreeArtifactsMatchPrePRGolden pins the zero-cost guarantee
// of the fault-injection subsystem: with a zero Faults config, every
// artifact of the runOnce scenario is byte-identical across commits.
// The hashes were last re-captured when the reconnect path gained
// per-bot deterministic jitter and capped backoff (every reconnect
// timestamp moved). If an intentional change elsewhere moves these
// bytes, re-capture the hashes — but a diff caused by a faults-related
// change means the zero-value path is no longer free.
func TestFaultFreeArtifactsMatchPrePRGolden(t *testing.T) {
	runOnce(t, 1234).matchGolden(t, "fault-free", goldenHashes{
		rep:    "bfd35824d86665d66a2145b6052faef9c8833758048903ecea465807b2415a88",
		jsonl:  "63dfc99c88bce61e51a4a581ced89300e09bf0d2375d66542737a950586ee8fa",
		chrome: "9c795ed86b9d15cf7b320a8ec225b19648f5e7c0005981f8eb4f9e2c8e009f8a",
		flows:  "13cffc1ccdc455f2ec8b12ca56fd588684f5153b82e273c457192c0c3dc55097",
		ts:     "1c32e115904f53dafff0228742b7945e99f4f41ef1b06541762a29653fb9161f",
	})
}

// runCongested drives the trace's heavy paths on a small fleet. The
// TServer downlink is cut to 1 Mbps, so the flood congests the hub and
// every drop records an annotated queue-drop event. Faults at intensity
// 0.6 add fault events and fault spans opened with BeginSpan and closed
// by EndSpan or, at the horizon, CloseOpenSpans.
func runCongested(t *testing.T) artifacts {
	t.Helper()
	cfg := core.DefaultConfig(10)
	cfg.Seed = 1234
	cfg.TServerDownlink = 1 * netsim.Mbps
	cfg.SimDuration = 150 * sim.Second
	cfg.AttackDuration = 30
	cfg.RecruitTimeout = 90 * sim.Second
	cfg.Faults = faults.AtIntensity(0.6)
	a, _, _ := runCfg(t, cfg)
	return a
}

// TestCongestedFaultTraceMatchesGolden pins the bytes of the paths the
// fault-free golden scenario never takes: thousands of annotated queue
// drops, fault spans ended explicitly and at the horizon, and the
// report, flow and time-series records of a congested, faulted run.
func TestCongestedFaultTraceMatchesGolden(t *testing.T) {
	a := runCongested(t)
	for _, want := range []string{
		`{"type":"event","cat":"net","name":"queue-drop"`,
		`{"type":"span","cat":"fault"`,
		`{"type":"event","cat":"fault"`,
	} {
		if !bytes.Contains(a.jsonl, []byte(want)) {
			t.Errorf("trace holds no %s record; the scenario no longer covers it", want)
		}
	}
	a.matchGolden(t, "congested faults", goldenHashes{
		rep:    "5e141d935580c21b7e6643721dc6678d6f726d2da033427a3f726ff59ec8bac0",
		jsonl:  "000170253b55f963cc7863bcbd1b480c0d8dbd6fb930f80327453de87c0c4d38",
		chrome: "32be16253c422762b183385c5a40ac7202f7465c96e9696782c9fcf2acb27df1",
		flows:  "a07eadae23b3023272cb3373fc49713ca2943ab2d58db3d89a09215929acd096",
		ts:     "4145f39ee79e2141dbdd0a76c8eef2a3d5089743d922fcb07e8f47d5fb465774",
	})
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestFaultScenarioByteIdenticalArtifacts extends the determinism
// contract to active fault injection: the injector draws from its own
// seeded stream, so two same-seed runs of a harsh scenario must still
// serialize byte-identically — and the scenario must actually inject.
func TestFaultScenarioByteIdenticalArtifacts(t *testing.T) {
	fc := faults.AtIntensity(0.8)
	a1 := runOnceFaults(t, 1234, fc)
	a2 := runOnceFaults(t, 1234, fc)
	a1.equal(t, a2, "same-seed fault runs")

	if !bytes.Contains(a1.rep, []byte(`"faults"`)) {
		t.Error("fault scenario left no stats in the report")
	}
	// The scenario must perturb the run relative to fault-free.
	free := runOnce(t, 1234)
	if bytes.Equal(a1.rep, free.rep) {
		t.Error("intensity-0.8 scenario changed nothing")
	}
}

// firstDiff renders the context around the first differing byte.
func firstDiff(a, b []byte) string {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := max(0, i-80)
			return "first diff at byte " + itoa(i) +
				"\n run1: …" + string(a[lo:min(len(a), i+80)]) +
				"\n run2: …" + string(b[lo:min(len(b), i+80)])
		}
	}
	return "lengths differ: " + itoa(len(a)) + " vs " + itoa(len(b))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
