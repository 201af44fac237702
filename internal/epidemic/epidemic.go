// Package epidemic implements the paper's second use case (§V-B):
// comparing mathematical models of botnet spread against the
// simulation. It provides the SI ordinary-differential-equation model
// and an external-force infection model matching DDoSim's
// scan-from-one-attacker topology, both integrated with fourth-order
// Runge-Kutta, and least-squares fitting of model parameters to a
// measured infection curve.
package epidemic

import (
	"math"
)

// SIParams parameterizes the classic susceptible-infected contact
// model dI/dt = beta * S * I / N.
type SIParams struct {
	Beta float64
	N    float64
	I0   float64
}

// SimulateSI integrates the SI model with RK4 at step dt over [0, T],
// returning sampled times and infected counts.
func SimulateSI(p SIParams, dt, T float64) (times, infected []float64) {
	deriv := func(i float64) float64 {
		s := p.N - i
		if s < 0 {
			s = 0
		}
		return p.Beta * s * i / p.N
	}
	return integrate(p.I0, deriv, dt, T)
}

// ExternalParams parameterizes the external-force model
// dI/dt = lambda * (N - I): every susceptible is independently
// compromised at rate lambda by an outside attacker. This matches
// DDoSim's experiment topology, where infection radiates from the
// Attacker rather than spreading bot-to-bot.
type ExternalParams struct {
	Lambda float64
	N      float64
}

// SimulateExternal integrates the external-force model.
func SimulateExternal(p ExternalParams, dt, T float64) (times, infected []float64) {
	deriv := func(i float64) float64 {
		s := p.N - i
		if s < 0 {
			s = 0
		}
		return p.Lambda * s
	}
	return integrate(0, deriv, dt, T)
}

// integrate runs RK4 on a single-variable ODE di/dt = f(i).
func integrate(i0 float64, f func(float64) float64, dt, T float64) (times, infected []float64) {
	i, t := i0, 0.0
	times = append(times, t)
	infected = append(infected, i)
	for t < T {
		k1 := f(i)
		k2 := f(i + dt/2*k1)
		k3 := f(i + dt/2*k2)
		k4 := f(i + dt*k3)
		i += dt / 6 * (k1 + 2*k2 + 2*k3 + k4)
		t += dt
		times = append(times, t)
		infected = append(infected, i)
	}
	return times, infected
}

// Curve is a measured infection curve: counts[i] devices infected by
// times[i] seconds.
type Curve struct {
	Times  []float64
	Counts []int
}

// RMSE evaluates a model series against the measured curve by
// sampling the model at each measurement time (nearest sample).
func RMSE(modelTimes, modelValues []float64, c Curve) float64 {
	if len(c.Times) == 0 {
		return 0
	}
	var sum float64
	for k, t := range c.Times {
		v := sampleAt(modelTimes, modelValues, t)
		d := v - float64(c.Counts[k])
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(c.Times)))
}

func sampleAt(times, values []float64, t float64) float64 {
	if len(times) == 0 {
		return 0
	}
	// Times are uniform ascending; binary-search-free index.
	if t <= times[0] {
		return values[0]
	}
	last := len(times) - 1
	if t >= times[last] {
		return values[last]
	}
	dt := times[1] - times[0]
	idx := int(t / dt)
	if idx >= last {
		idx = last - 1
	}
	// Linear interpolation.
	frac := (t - times[idx]) / dt
	return values[idx]*(1-frac) + values[idx+1]*frac
}

// FitLambda fits the external-force model's lambda to a measured
// curve by golden-section search on RMSE.
func FitLambda(c Curve, n int, horizon float64) (lambda, rmse float64) {
	eval := func(l float64) float64 {
		t, v := SimulateExternal(ExternalParams{Lambda: l, N: float64(n)}, horizon/2000, horizon)
		return RMSE(t, v, c)
	}
	lambda = goldenSection(eval, 1e-5, 2.0)
	return lambda, eval(lambda)
}

// FitBeta fits the SI contact model's beta to a measured curve (with
// one initial infection) by golden-section search on RMSE.
func FitBeta(c Curve, n int, horizon float64) (beta, rmse float64) {
	eval := func(b float64) float64 {
		t, v := SimulateSI(SIParams{Beta: b, N: float64(n), I0: 1}, horizon/2000, horizon)
		return RMSE(t, v, c)
	}
	beta = goldenSection(eval, 1e-5, 5.0)
	return beta, eval(beta)
}

// goldenSection minimizes a unimodal function on [lo, hi].
func goldenSection(f func(float64) float64, lo, hi float64) float64 {
	const phi = 1.618033988749895
	const iters = 80
	a, b := lo, hi
	c := b - (b-a)/phi
	d := a + (b-a)/phi
	fc, fd := f(c), f(d)
	for i := 0; i < iters; i++ {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - (b-a)/phi
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + (b-a)/phi
			fd = f(d)
		}
	}
	return (a + b) / 2
}
