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
	chrome []byte // Chrome trace_event JSON
	flows  []byte // labeled flow dataset CSV
	ts     []byte // windowed time-series CSV
	prom   []byte // Prometheus metrics dump
}

// equal compares all artifacts and reports each mismatch through t.
func (a artifacts) equal(t *testing.T, b artifacts, what string) {
	t.Helper()
	pairs := []struct {
		name   string
		x1, x2 []byte
	}{
		{"report JSON", a.rep, b.rep},
		{"Chrome trace", a.chrome, b.chrome},
		{"flow CSV", a.flows, b.flows},
		{"time-series CSV", a.ts, b.ts},
		{"Prometheus dump", a.prom, b.prom},
	}
	for _, p := range pairs {
		if !bytes.Equal(p.x1, p.x2) {
			t.Errorf("%s: %s differs:\n%s", what, p.name, firstDiff(p.x1, p.x2))
		}
	}
}

// runOnce executes a small end-to-end scenario — dynamic churn keeps
// membership flips, rejoin timers, and C&C reaping all active — and
// returns every serialized artifact. The simulator reads no wall
// clock, so the report's observability summary is seed-determined
// too.
func runOnce(t *testing.T, seed int64) artifacts {
	return runOnceFaults(t, seed, faults.Config{})
}

// runOnceFaults is runOnce under a fault scenario.
func runOnceFaults(t *testing.T, seed int64, fc faults.Config) artifacts {
	t.Helper()
	a, _, _ := runCfg(t, churnConfig(seed, fc))
	return a
}

// churnConfig is runOnceFaults' scenario: ten memory-error Devs under
// dynamic churn recruited into the mirai family.
func churnConfig(seed int64, fc faults.Config) core.Config {
	cfg := core.DefaultConfig(10)
	cfg.Seed = seed
	cfg.Churn = churn.Dynamic
	cfg.SimDuration = 300 * sim.Second
	cfg.AttackDuration = 30
	cfg.RecruitTimeout = 90 * sim.Second
	cfg.Faults = fc
	return cfg
}

// credGoldenConfig is a credentials-vector run: a seed scanner, the
// bots' own telnet scanning and the loader recruit the fleet.
func credGoldenConfig() core.Config {
	cfg := core.DefaultConfig(12)
	cfg.Seed = 7
	cfg.Vector = core.VectorCredentials
	cfg.SimDuration = 400 * sim.Second
	cfg.AttackDuration = 30
	cfg.RecruitTimeout = 300 * sim.Second
	cfg.ScanPeriod = sim.Second
	return cfg
}

// cncCrashFaults is a fault scenario that also crashes the botmaster's
// process every 40 s, which faults.AtIntensity alone never does.
func cncCrashFaults(t *testing.T) faults.Config {
	t.Helper()
	fc, err := faults.ParseSpec("intensity=0.6;cnc:crash=40s")
	if err != nil {
		t.Fatal(err)
	}
	return fc
}

// runCfg executes an arbitrary configuration and serializes every
// artifact. Shared by the classic
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
	r, err := s.Run()
	if err != nil {
		return artifacts{}, nil, nil, err
	}

	var out artifacts
	for _, w := range []struct {
		dst   *[]byte
		write func(io.Writer) error
	}{
		{&out.rep, report.FromResults(cfg, r).WriteJSON},
		{&out.chrome, s.Obs().Trace.WriteChromeTrace},
		{&out.flows, s.Flows().WriteCSV},
		{&out.ts, s.Windows().WriteCSV},
		{&out.prom, s.Obs().Registry().WritePrometheus},
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
//
// Every golden's report and Chrome trace hashes were re-captured once
// when the kill-chain spans came to be built from each Dev's record at
// the end of the run: the spans moved to the end of the trace, in fleet
// order; a register span joined them; the exploit-success and
// flood-start instants, which restated a span's end, went; and the
// phase summary gained its register row. Flow and time-series hashes
// held.
//
// Every golden's report hash was re-captured once more when every
// scheduled event came to name its source and the wall-clock profiler
// was deleted: the obs summary lost wall_ns_per_sim_sec (which a fake
// clock had fixed at 1000000), and its top_sources list names the
// sources the "unlabeled" row used to merge (the flood's, on every
// golden). The trace, flow and time-series hashes held.
//
// The Prometheus dump's hash joined every golden later, captured
// without moving any other byte.
type goldenHashes struct{ rep, chrome, flows, ts, prom string }

// matchGolden reports every artifact whose hash differs from want.
func (a artifacts) matchGolden(t *testing.T, what string, want goldenHashes) {
	t.Helper()
	for _, g := range []struct {
		name, want string
		got        []byte
	}{
		{"report JSON", want.rep, a.rep},
		{"Chrome trace", want.chrome, a.chrome},
		{"flow CSV", want.flows, a.flows},
		{"time-series CSV", want.ts, a.ts},
		{"Prometheus dump", want.prom, a.prom},
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
// The flow and time-series hashes were last re-captured when the
// reconnect path gained per-bot deterministic jitter and capped backoff
// (every reconnect timestamp moved); the other three when the
// kill-chain spans moved to the run's end (see goldenHashes). If an
// intentional change elsewhere moves these
// bytes, re-capture the hashes — but a diff caused by a faults-related
// change means the zero-value path is no longer free.
func TestFaultFreeArtifactsMatchPrePRGolden(t *testing.T) {
	runOnce(t, 1234).matchGolden(t, "fault-free", goldenHashes{
		rep:    "eec8d63f66ebf2182a102f8e57087e417f7f2312e326997a7baa88df1a17c7c8",
		chrome: "78227878a9518260ffd02745ee97d2621eff3e4304e82f4871b1e23c825e9b2f",
		flows:  "13cffc1ccdc455f2ec8b12ca56fd588684f5153b82e273c457192c0c3dc55097",
		ts:     "1c32e115904f53dafff0228742b7945e99f4f41ef1b06541762a29653fb9161f",
		prom:   "1afd865393c720d5062c7e3d7ca24aa66c25dbefb98b4727a1f27fccbc6f217f",
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
// Its report and trace hashes moved with the kill-chain spans (see
// goldenHashes).
func TestCongestedFaultTraceMatchesGolden(t *testing.T) {
	a := runCongested(t)
	for _, want := range []string{
		`"name":"queue-drop","cat":"net","ph":"i"`,
		`"cat":"fault","ph":"X"`,
		`"cat":"fault","ph":"i"`,
	} {
		if !bytes.Contains(a.chrome, []byte(want)) {
			t.Errorf("trace holds no %s record; the scenario no longer covers it", want)
		}
	}
	a.matchGolden(t, "congested faults", goldenHashes{
		rep:    "c2dd756541694219cfc32ecb659cb314896ffc98136086151b9bf1405afcf0c5",
		chrome: "e07316cf3f42cd540fd66a8b46846f4e0ac61ce3f859f9fd8a938bc832807fe4",
		flows:  "a07eadae23b3023272cb3373fc49713ca2943ab2d58db3d89a09215929acd096",
		ts:     "4145f39ee79e2141dbdd0a76c8eef2a3d5089743d922fcb07e8f47d5fb465774",
		prom:   "f462cfbad1d1775d1e9f826dd843208e7f4ac7baf318198e67b7bf8122e1475a",
	})
}

// TestCredentialArtifactsMatchGolden pins every artifact of a
// credentials-vector run: scanner reports, the loader's pushes and the
// infections they make, a path no memory-error golden takes. The report
// and time-series hashes were re-captured when the star router lost
// its implicit default device: frames the scanners address to no host
// now die at the router instead of crossing TServer's downlink. The
// Table I estimates and net_tx_bytes read the frames transmitted, and
// the scheduler's event counts (queue_depth, the obs summary) fall
// with them. The report and trace hashes moved again with the
// kill-chain spans (see goldenHashes).
func TestCredentialArtifactsMatchGolden(t *testing.T) {
	a, _, r := runCfg(t, credGoldenConfig())
	if r.Timeline.Count(core.EventLoaded) == 0 {
		t.Error("no Dev was loaded; the scenario no longer covers the loader")
	}
	a.matchGolden(t, "credentials", goldenHashes{
		rep:    "98dfe3f2e4338f339f1f1a4659e89c2ac7f9fbbd2e50585b89c953de24cf4cb8",
		chrome: "69aedd29a5151b2b9bcc4527005100ab644918b55e56c9a26092525e59916b2b",
		flows:  "03fe995636ec6e2583f62e3602bda2365bc573e56cb5b4a4a5ccf0c7dadc97d4",
		ts:     "887bc4c5ae4b7371417058dd597940f33822b0cb5f8406f00373ad44a4bf3701",
		prom:   "d03593df962ed8d6d50d4f11c67fc6a3c7df4a82f743f32b73b6e49537458bbf",
	})
}

// TestCNCCrashArtifactsMatchGolden pins both families while the
// botmaster's process crashes and is re-executed: the C&C for mirai,
// the overlay seeder for p2p, and every registration that follows.
// Their report and trace hashes moved with the kill-chain spans (see
// goldenHashes).
func TestCNCCrashArtifactsMatchGolden(t *testing.T) {
	p2p := p2pConfig(1234)
	p2p.Faults = cncCrashFaults(t)
	for _, tc := range []struct {
		family string
		cfg    core.Config
		want   goldenHashes
	}{
		{"mirai", churnConfig(1234, cncCrashFaults(t)), goldenHashes{
			rep:    "5b0ea48b2dc4bbd0e0d27cd023de9523800e406e7b05090270d5a698c736122b",
			chrome: "155a22b7a6fa7c5d4035b123caf99873fdb6c779a6008d81df99a3d00c662e06",
			flows:  "bbea002b352a861610bf5f51987fab3985f76b71cc4aa1e208a1e67416030142",
			ts:     "7a8ac0c4eb8e8dd057d6aff6dc5db28219573aa81e1acddc82d4829907f57443",
			prom:   "d94ef9dca523d4b40da5a94dbc35f20aaa9df233eb1f9c4152b5718ab615c484",
		}},
		{"p2p", p2p, goldenHashes{
			rep:    "b589f2a485bd0768d059b912bda0d736247e61d99fa44b78759b02068692b170",
			chrome: "46d4deeeb8c63bffbfadb38f07a4617707a01724b22dc26ab8dee35406bc062d",
			flows:  "793045f0047e09126e8dfb72cd88840f2dd5b412ca188dacec7d1a147de273b4",
			ts:     "1a10b3ec1595ac4ca878a50966151735c33e46e5b3e0b6862a4e39adfb1665d9",
			prom:   "321e86db88ad20e9faec72b1c1c8b6321c4725c9867b83e14564e8ca5096bc95",
		}},
	} {
		t.Run(tc.family, func(t *testing.T) {
			a, _, r := runCfg(t, tc.cfg)
			if r.Faults == nil || r.Faults.CNCCrashes == 0 {
				t.Errorf("fault stats %+v; the scenario no longer crashes the botmaster", r.Faults)
			}
			a.matchGolden(t, tc.family+" C&C crashes", tc.want)
		})
	}
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
