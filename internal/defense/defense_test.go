package defense

import (
	"math"
	"net/netip"
	"testing"

	"ddosim/internal/netsim"
	"ddosim/internal/sim"
)

// srcTest labels the events this package's tests schedule.
var srcTest = sim.NewSource("test")

// buildScenario runs benign clients for the whole window and a flood
// during [attackFrom, attackTo), returning the extractor.
func buildScenario(t *testing.T, benign, bots int, attackFrom, attackTo int64, horizon sim.Time) *Extractor {
	t.Helper()
	sched := sim.NewScheduler(31)
	w := netsim.New(sched)
	star := netsim.NewStar(w)
	ts := star.AttachHostAsym("tserver", 10*netsim.Mbps, 25*netsim.Mbps, sim.Millisecond, 0)
	if _, err := netsim.InstallSink(ts, 80); err != nil {
		t.Fatal(err)
	}
	ext := NewExtractor(ts)
	dst := netip.AddrPortFrom(ts.Addr4(), 80)
	if _, err := InstallBenignClients(star, dst, benign, "benign"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < bots; i++ {
		host := star.AttachHost("bot-"+string(rune('a'+i)), 300*netsim.Kbps, sim.Millisecond, 0)
		sock, err := host.BindUDP(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		interval := (300 * netsim.Kbps).TxTime(512 + 46)
		var flood func()
		flood = func() {
			now := sched.Now()
			if now >= sim.Time(attackTo)*sim.Second {
				return
			}
			sock.SendPadded(dst, nil, 512)
			sched.Schedule(interval, srcTest, flood)
		}
		sched.ScheduleAt(sim.Time(attackFrom)*sim.Second, srcTest, flood)
	}
	if err := sched.Run(horizon); err != nil {
		t.Fatal(err)
	}
	return ext
}

func labeled(ext *Extractor, from, to, attackFrom, attackTo int64) []Sample {
	var out []Sample
	for sec := from; sec < to; sec++ {
		out = append(out, Sample{
			X:      ext.Window(sec).Slice(),
			Attack: sec >= attackFrom && sec < attackTo,
		})
	}
	return out
}

func TestDetectorPipeline(t *testing.T) {
	// 60s benign-only, 60s attack, 60s benign again.
	ext := buildScenario(t, 6, 8, 60, 120, 200*sim.Second)
	train := labeled(ext, 5, 100, 60, 120) // train on a prefix
	test := labeled(ext, 100, 180, 60, 120)

	m := Train(train, 200, 0.1, 1)
	c := Evaluate(m, test)
	if acc := c.Accuracy(); acc < 0.9 {
		t.Fatalf("accuracy = %.2f, want >= 0.9 (confusion %+v)", acc, c)
	}
	if c.Recall() < 0.8 {
		t.Fatalf("recall = %.2f (confusion %+v)", c.Recall(), c)
	}
	if f1 := c.F1(); f1 <= 0 || f1 > 1 {
		t.Fatalf("F1 = %v", f1)
	}
}

func TestFeaturesSeparate(t *testing.T) {
	ext := buildScenario(t, 5, 10, 30, 60, 90*sim.Second)
	benignWin := ext.Window(10)
	attackWin := ext.Window(45)
	if attackWin.PacketRate <= benignWin.PacketRate*2 {
		t.Fatalf("attack packet rate %.0f not clearly above benign %.0f",
			attackWin.PacketRate, benignWin.PacketRate)
	}
	if attackWin.ByteRate <= benignWin.ByteRate {
		t.Fatal("attack byte rate not above benign")
	}
	if attackWin.DistinctSources <= benignWin.DistinctSources {
		t.Fatal("attack source count not above benign")
	}
}

func TestQuietWindowIsZero(t *testing.T) {
	sched := sim.NewScheduler(1)
	w := netsim.New(sched)
	star := netsim.NewStar(w)
	ts := star.AttachHost("tserver", netsim.Mbps, 0, 0)
	ext := NewExtractor(ts)
	if got := ext.Window(5); got != (FeatureVector{}) {
		t.Fatalf("quiet window = %+v", got)
	}
	if got := ext.Windows(0, 3); len(got) != 3 {
		t.Fatalf("Windows = %d entries", len(got))
	}
}

func TestEntropyBounds(t *testing.T) {
	ext := buildScenario(t, 8, 0, 0, 0, 60*sim.Second)
	for sec := int64(5); sec < 50; sec++ {
		fv := ext.Window(sec)
		if fv.PacketRate == 0 {
			continue
		}
		maxEntropy := math.Log2(fv.DistinctSources)
		if fv.SourceEntropy < 0 || fv.SourceEntropy > maxEntropy+1e-9 {
			t.Fatalf("sec %d: entropy %.3f outside [0, %.3f]", sec, fv.SourceEntropy, maxEntropy)
		}
	}
}

// TestWindowEntropyDeterministic: a window's source entropy has the
// same bits on every call. Its terms are summed in a fixed order;
// summed in map order, one 60-source window gave several distinct
// results over 100 calls.
func TestWindowEntropyDeterministic(t *testing.T) {
	w := &windowAgg{bySrc: make(map[netip.Addr]int)}
	for i := 1; i <= 60; i++ {
		w.bySrc[netip.AddrFrom4([4]byte{10, 0, 1, byte(i)})] = i * i
		w.packets += i * i
	}
	e := &Extractor{windows: map[int64]*windowAgg{0: w}}
	want := math.Float64bits(e.Window(0).SourceEntropy)
	for call := 2; call <= 100; call++ {
		if got := math.Float64bits(e.Window(0).SourceEntropy); got != want {
			t.Fatalf("call %d: entropy bits %#x, first call %#x", call, got, want)
		}
	}
}

func TestConfusionMetrics(t *testing.T) {
	c := Confusion{TP: 8, FP: 2, TN: 9, FN: 1}
	if got := c.Accuracy(); math.Abs(got-0.85) > 1e-9 {
		t.Fatalf("accuracy = %v", got)
	}
	if got := c.Precision(); math.Abs(got-0.8) > 1e-9 {
		t.Fatalf("precision = %v", got)
	}
	if got := c.Recall(); math.Abs(got-8.0/9.0) > 1e-9 {
		t.Fatalf("recall = %v", got)
	}
	if got := c.F1(); got <= 0 || got >= 1 {
		t.Fatalf("f1 = %v", got)
	}
	var zero Confusion
	if zero.Accuracy() != 0 || zero.Precision() != 0 || zero.Recall() != 0 || zero.F1() != 0 {
		t.Fatal("zero confusion metrics not zero")
	}
}

func TestTrainEmptyAndDeterministic(t *testing.T) {
	m := Train(nil, 10, 0.1, 1)
	if m == nil || len(m.W) != NumFeatures {
		t.Fatalf("empty-train model = %+v", m)
	}
	samples := []Sample{
		{X: []float64{1, 1, 1, 1, 1}, Attack: false},
		{X: []float64{100, 100, 100, 100, 2}, Attack: true},
		{X: []float64{2, 2, 2, 2, 1}, Attack: false},
		{X: []float64{90, 120, 80, 90, 2}, Attack: true},
	}
	a := Train(samples, 100, 0.1, 7)
	b := Train(samples, 100, 0.1, 7)
	for j := range a.W {
		if a.W[j] != b.W[j] {
			t.Fatal("same seed trained different weights")
		}
	}
	if !a.Classify(samples[1].X) || a.Classify(samples[0].X) {
		t.Fatal("model failed trivially separable data")
	}
}

func TestPredictRange(t *testing.T) {
	samples := []Sample{
		{X: []float64{1, 2, 3, 4, 5}, Attack: false},
		{X: []float64{9, 8, 7, 6, 5}, Attack: true},
	}
	m := Train(samples, 50, 0.2, 1)
	for _, s := range samples {
		p := m.Predict(s.X)
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("probability %v out of range", p)
		}
	}
}
