package epidemic

import (
	"math"
	"testing"
)

func TestExternalModelClosedForm(t *testing.T) {
	// dI/dt = lambda(N-I) has closed form N(1 - e^{-lambda t}).
	p := ExternalParams{Lambda: 0.1, N: 100}
	times, inf := SimulateExternal(p, 0.01, 50)
	for k := 0; k < len(times); k += 500 {
		want := p.N * (1 - math.Exp(-p.Lambda*times[k]))
		if math.Abs(inf[k]-want) > 0.05 {
			t.Fatalf("t=%.1f: I=%v, closed form %v", times[k], inf[k], want)
		}
	}
}

func TestSIModelProperties(t *testing.T) {
	p := SIParams{Beta: 0.8, N: 200, I0: 1}
	times, inf := SimulateSI(p, 0.01, 40)
	if len(times) != len(inf) {
		t.Fatal("length mismatch")
	}
	// Monotone non-decreasing, bounded by N, sigmoid saturation.
	for k := 1; k < len(inf); k++ {
		if inf[k] < inf[k-1]-1e-9 {
			t.Fatalf("SI infected decreased at k=%d", k)
		}
		if inf[k] > p.N+1e-6 {
			t.Fatalf("SI infected exceeded N: %v", inf[k])
		}
	}
	if inf[len(inf)-1] < 0.99*p.N {
		t.Fatalf("SI did not saturate: final %v of %v", inf[len(inf)-1], p.N)
	}
}

func TestFitLambdaRecoversTruth(t *testing.T) {
	// Generate a curve from a known lambda, add nothing, and fit.
	const trueLambda = 0.12
	const n = 80
	var c Curve
	for _, tm := range []float64{2, 5, 8, 12, 16, 22, 30, 40} {
		count := int(n*(1-math.Exp(-trueLambda*tm)) + 0.5)
		c.Times = append(c.Times, tm)
		c.Counts = append(c.Counts, count)
	}
	lambda, rmse := FitLambda(c, n, 50)
	if math.Abs(lambda-trueLambda) > 0.02 {
		t.Fatalf("fit lambda = %v, want ~%v (rmse %v)", lambda, trueLambda, rmse)
	}
	if rmse > 1.5 {
		t.Fatalf("rmse = %v", rmse)
	}
}

func TestFitBetaRecoversTruth(t *testing.T) {
	const trueBeta = 0.6
	const n = 120
	pt, pv := SimulateSI(SIParams{Beta: trueBeta, N: n, I0: 1}, 0.01, 40)
	var c Curve
	for _, tm := range []float64{5, 10, 15, 20, 25, 30, 35} {
		c.Times = append(c.Times, tm)
		c.Counts = append(c.Counts, int(sampleAt(pt, pv, tm)+0.5))
	}
	beta, rmse := FitBeta(c, n, 40)
	if math.Abs(beta-trueBeta) > 0.05 {
		t.Fatalf("fit beta = %v, want ~%v (rmse %v)", beta, trueBeta, rmse)
	}
}

func TestExternalFitsDDoSimShapeBetterThanSI(t *testing.T) {
	// DDoSim's infection radiates from one attacker at near-constant
	// per-device rate — concave from the start. The external-force
	// model should fit such a curve better than the sigmoid SI model.
	const n = 60
	var c Curve
	for _, tm := range []float64{2, 4, 6, 8, 10, 14, 18, 24, 30} {
		count := int(n*(1-math.Exp(-0.15*tm)) + 0.5)
		c.Times = append(c.Times, tm)
		c.Counts = append(c.Counts, count)
	}
	_, rmseExt := FitLambda(c, n, 35)
	_, rmseSI := FitBeta(c, n, 35)
	if rmseExt >= rmseSI {
		t.Fatalf("external rmse %v not better than SI rmse %v on a concave curve", rmseExt, rmseSI)
	}
}

func TestRMSEEdgeCases(t *testing.T) {
	if got := RMSE(nil, nil, Curve{}); got != 0 {
		t.Fatalf("empty RMSE = %v", got)
	}
	times := []float64{0, 1, 2}
	values := []float64{0, 10, 20}
	c := Curve{Times: []float64{-1, 0.5, 5}, Counts: []int{0, 5, 20}}
	got := RMSE(times, values, c)
	if math.IsNaN(got) || got < 0 {
		t.Fatalf("RMSE = %v", got)
	}
}

func TestSampleAtInterpolates(t *testing.T) {
	times := []float64{0, 1, 2, 3}
	values := []float64{0, 10, 20, 30}
	if got := sampleAt(times, values, 1.5); math.Abs(got-15) > 1e-9 {
		t.Fatalf("sampleAt(1.5) = %v", got)
	}
	if got := sampleAt(times, values, -5); got != 0 {
		t.Fatalf("clamp low = %v", got)
	}
	if got := sampleAt(times, values, 99); got != 30 {
		t.Fatalf("clamp high = %v", got)
	}
	if got := sampleAt(nil, nil, 1); got != 0 {
		t.Fatalf("empty = %v", got)
	}
}

func TestGoldenSection(t *testing.T) {
	min := goldenSection(func(x float64) float64 { return (x - 0.7) * (x - 0.7) }, 0, 2)
	if math.Abs(min-0.7) > 1e-6 {
		t.Fatalf("golden section found %v, want 0.7", min)
	}
}
