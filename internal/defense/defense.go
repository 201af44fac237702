// Package defense implements the paper's first use case (§V-A):
// testing DDoS defenses inside the simulation. It extracts per-second
// traffic features at TServer (packet rate, byte rate, mean packet
// size, source count, source entropy), trains a logistic-regression
// classifier on labeled benign/attack windows — entirely in stdlib Go —
// and evaluates detection quality.
package defense

import (
	"math"
	"math/rand"
	"net/netip"
	"slices"
	"strconv"

	"ddosim/internal/netsim"
	"ddosim/internal/sim"
)

// srcClient labels the benign clients' sends.
var srcClient = sim.NewSource("defense.client")

// NumFeatures is the dimensionality of a feature vector.
const NumFeatures = 5

// FeatureVector summarizes one second of traffic at the target.
type FeatureVector struct {
	PacketRate      float64
	ByteRate        float64
	MeanPacketSize  float64
	DistinctSources float64
	SourceEntropy   float64
}

// Slice renders the vector for the classifier.
func (f FeatureVector) Slice() []float64 {
	return []float64{f.PacketRate, f.ByteRate, f.MeanPacketSize, f.DistinctSources, f.SourceEntropy}
}

type windowAgg struct {
	packets int
	bytes   int
	bySrc   map[netip.Addr]int
}

// Extractor taps a node and aggregates per-second windows — the
// "extraction of network traffic at any layer" the paper highlights.
type Extractor struct {
	windows map[int64]*windowAgg
}

// NewExtractor installs a tap on node and begins aggregating.
func NewExtractor(node *netsim.Node) *Extractor {
	e := &Extractor{windows: make(map[int64]*windowAgg)}
	node.AddTap(func(at sim.Time, pkt *netsim.Packet) {
		sec := int64(at / sim.Second)
		w := e.windows[sec]
		if w == nil {
			w = &windowAgg{bySrc: make(map[netip.Addr]int)}
			e.windows[sec] = w
		}
		w.packets++
		w.bytes += pkt.PayloadSize()
		w.bySrc[pkt.Src.Addr()]++
	})
	return e
}

// Window returns the feature vector for one second (zero vector for
// quiet seconds).
func (e *Extractor) Window(sec int64) FeatureVector {
	w := e.windows[sec]
	if w == nil || w.packets == 0 {
		return FeatureVector{}
	}
	// Float addition is not associative, so the terms are summed over
	// the sorted counts: map order would move the entropy's last bits
	// from call to call.
	counts := make([]int, 0, len(w.bySrc))
	for _, n := range w.bySrc { //simlint:allow maporder(collect-then-sort: the counts are sorted before they are summed)
		counts = append(counts, n)
	}
	slices.Sort(counts)
	entropy := 0.0
	for _, n := range counts {
		p := float64(n) / float64(w.packets)
		entropy -= p * math.Log2(p)
	}
	return FeatureVector{
		PacketRate:      float64(w.packets),
		ByteRate:        float64(w.bytes),
		MeanPacketSize:  float64(w.bytes) / float64(w.packets),
		DistinctSources: float64(len(w.bySrc)),
		SourceEntropy:   entropy,
	}
}

// Windows returns vectors for every second in [from, to).
func (e *Extractor) Windows(from, to int64) []FeatureVector {
	out := make([]FeatureVector, 0, to-from)
	for sec := from; sec < to; sec++ {
		out = append(out, e.Window(sec))
	}
	return out
}

// Sample is one labeled training/evaluation instance.
type Sample struct {
	X      []float64
	Attack bool
}

// Logistic is a standardized logistic-regression classifier.
type Logistic struct {
	W    []float64
	B    float64
	Mean []float64
	Std  []float64
}

// Train fits a classifier with plain gradient descent. Deterministic
// for a fixed seed.
func Train(samples []Sample, epochs int, lr float64, seed int64) *Logistic {
	if len(samples) == 0 {
		return &Logistic{W: make([]float64, NumFeatures), Mean: make([]float64, NumFeatures), Std: ones(NumFeatures)}
	}
	d := len(samples[0].X)
	m := &Logistic{W: make([]float64, d), Mean: make([]float64, d), Std: make([]float64, d)}

	// Standardize features.
	for _, s := range samples {
		for j, v := range s.X {
			m.Mean[j] += v
		}
	}
	for j := range m.Mean {
		m.Mean[j] /= float64(len(samples))
	}
	for _, s := range samples {
		for j, v := range s.X {
			dv := v - m.Mean[j]
			m.Std[j] += dv * dv
		}
	}
	for j := range m.Std {
		m.Std[j] = math.Sqrt(m.Std[j] / float64(len(samples)))
		if m.Std[j] < 1e-9 {
			m.Std[j] = 1
		}
	}

	rng := rand.New(rand.NewSource(seed))
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	for epoch := 0; epoch < epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for _, i := range idx {
			s := samples[i]
			p := m.Predict(s.X)
			y := 0.0
			if s.Attack {
				y = 1
			}
			g := p - y
			for j, v := range s.X {
				m.W[j] -= lr * g * m.standardize(j, v)
			}
			m.B -= lr * g
		}
	}
	return m
}

func ones(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

func (m *Logistic) standardize(j int, v float64) float64 {
	return (v - m.Mean[j]) / m.Std[j]
}

// Predict returns the attack probability for a raw feature vector.
func (m *Logistic) Predict(x []float64) float64 {
	z := m.B
	for j, v := range x {
		z += m.W[j] * m.standardize(j, v)
	}
	return 1 / (1 + math.Exp(-z))
}

// Classify thresholds Predict at 0.5.
func (m *Logistic) Classify(x []float64) bool { return m.Predict(x) >= 0.5 }

// Confusion tallies classification outcomes.
type Confusion struct {
	TP, FP, TN, FN int
}

// Evaluate classifies every sample and tallies the confusion matrix.
func Evaluate(m *Logistic, samples []Sample) Confusion {
	var c Confusion
	for _, s := range samples {
		pred := m.Classify(s.X)
		switch {
		case pred && s.Attack:
			c.TP++
		case pred && !s.Attack:
			c.FP++
		case !pred && !s.Attack:
			c.TN++
		default:
			c.FN++
		}
	}
	return c
}

// Accuracy reports (TP+TN)/total.
func (c Confusion) Accuracy() float64 {
	total := c.TP + c.FP + c.TN + c.FN
	if total == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(total)
}

// Precision reports TP/(TP+FP).
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall reports TP/(TP+FN).
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 is the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// BenignClient periodically sends small telemetry datagrams to the
// target — the "normal traffic" the paper mixes with attack traffic
// when testing classifiers.
type BenignClient struct {
	sock *netsim.UDPSocket
}

// InstallBenignClients attaches n telemetry clients to the star and
// points them at dst. Each sends a 60–400 byte datagram every
// 0.5–2.5 s.
func InstallBenignClients(star *netsim.Star, dst netip.AddrPort, n int, namePrefix string) ([]*BenignClient, error) {
	sched := star.Net.Sched()
	rng := sched.RNG()
	out := make([]*BenignClient, 0, n)
	for i := 0; i < n; i++ {
		host := star.AttachHost(
			namePrefix+"-"+strconv.Itoa(i), 2*netsim.Mbps, 2*sim.Millisecond, 0)
		sock, err := host.BindUDP(0, nil)
		if err != nil {
			return nil, err
		}
		c := &BenignClient{sock: sock}
		out = append(out, c)
		period := 500*sim.Millisecond + sim.Time(rng.Int63n(int64(2*sim.Second)))
		size := 60 + rng.Intn(340)
		t := sim.NewTicker(sched, period, srcClient, func() {
			c.sock.SendPadded(dst, nil, size)
		})
		t.StartImmediate()
	}
	return out, nil
}
