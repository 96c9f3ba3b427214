package acq

import (
	"fmt"
	"math"
	"testing"
)

// fdGrad is the central-difference oracle with one Richardson step,
// (4·D(h/2) − D(h))/3, whose truncation error is O(h⁴).
func fdGrad(f func([]float64) float64, x []float64, h float64) []float64 {
	p := append([]float64(nil), x...)
	g := make([]float64, len(x))
	diff := func(i int, h float64) float64 {
		p[i] = x[i] + h
		up := f(p)
		p[i] = x[i] - h
		dn := f(p)
		p[i] = x[i]
		return (up - dn) / (2 * h)
	}
	for i := range x {
		g[i] = (4*diff(i, h/2) - diff(i, h)) / 3
	}
	return g
}

// checkGrad fails unless got matches the oracle want to 1e-6 relative
// error, or within 1e-10·fscale of it where the gradient is near zero and
// the oracle's own rounding noise (order ε·|f|/h) dominates.
func checkGrad(t *testing.T, what string, got, want []float64, fscale float64) {
	t.Helper()
	for i := range want {
		if math.IsNaN(got[i]) || math.IsInf(got[i], 0) {
			t.Fatalf("%s: component %d not finite: %v", what, i, got[i])
		}
		if e := math.Abs(got[i] - want[i]); e > 1e-6*math.Abs(want[i]) && e > 1e-10*fscale {
			t.Fatalf("%s: component %d analytic %.12g, central difference %.12g", what, i, got[i], want[i])
		}
	}
}

// TestEIPFPartialsMatchFiniteDifference checks EIGrad and PFGrad against
// central differences in (µ, σ²) across λ, and pins the guarded branches:
// |λ| > 40 and σ < 1e-12 return the derivatives of the branch taken, and
// every returned value is bit-identical to EI and PF.
func TestEIPFPartialsMatchFiniteDifference(t *testing.T) {
	for _, c := range []struct{ mu, v, tau float64 }{
		{0, 1, 0}, {0.3, 0.2, -0.1}, {-1, 2.5, 0.4}, {2, 0.7, 0.1}, {-0.5, 0.05, -0.2}, {1.2, 3, 4},
	} {
		e, em, ev := EIGrad(c.mu, c.v, c.tau)
		if !sameBits(e, EI(c.mu, c.v, c.tau)) {
			t.Fatalf("EIGrad value %v, EI %v", e, EI(c.mu, c.v, c.tau))
		}
		g := fdGrad(func(p []float64) float64 { return EI(p[0], p[1], c.tau) }, []float64{c.mu, c.v}, 1e-4)
		checkGrad(t, fmt.Sprintf("EI at %+v", c), []float64{em, ev}, g, 1)
		p, pm, pv := PFGrad(c.mu, c.v)
		if !sameBits(p, PF(c.mu, c.v)) {
			t.Fatalf("PFGrad value %v, PF %v", p, PF(c.mu, c.v))
		}
		g = fdGrad(func(q []float64) float64 { return PF(q[0], q[1]) }, []float64{c.mu, c.v}, 1e-4)
		checkGrad(t, fmt.Sprintf("PF at %+v", c), []float64{pm, pv}, g, 1)
	}
	for _, c := range []struct {
		name             string
		mu, v, tau       float64
		ei, dmu, dsigma2 float64
	}{
		{"lambda>40", 0, 1e-4, 1, 1, -1, 0},
		{"lambda<-40", 1, 1e-4, 0, 0, 0, 0},
		{"sigma<1e-12 improving", 0, 1e-30, 2, 2, -1, 0},
		{"sigma<1e-12 not improving", 3, 0, 2, 0, 0, 0},
	} {
		e, em, ev := EIGrad(c.mu, c.v, c.tau)
		if e != c.ei || em != c.dmu || ev != c.dsigma2 || !sameBits(e, EI(c.mu, c.v, c.tau)) {
			t.Fatalf("EIGrad %s = (%v, %v, %v), want (%v, %v, %v)", c.name, e, em, ev, c.ei, c.dmu, c.dsigma2)
		}
	}
	for _, mu := range []float64{-1, 1} {
		p, pm, pv := PFGrad(mu, 0)
		if p != PF(mu, 0) || pm != 0 || pv != 0 {
			t.Fatalf("PFGrad(%v, 0) = (%v, %v, %v), want the 0/1 branch with zero derivatives", mu, p, pm, pv)
		}
	}
}

// smoothPosterior is a test surrogate with closed-form gradients:
// µ = a·sin(x0) + b·x1², σ² = s·(0.5 + 0.3·cos(x0·x1)).
func smoothPosterior(a, b, s float64) Posterior {
	return func(x, dm, dv []float64) (float64, float64) {
		if dm != nil {
			dm[0], dm[1] = a*math.Cos(x[0]), 2*b*x[1]
			dv[0], dv[1] = -0.3*s*x[1]*math.Sin(x[0]*x[1]), -0.3*s*x[0]*math.Sin(x[0]*x[1])
		}
		return a*math.Sin(x[0]) + b*x[1]*x[1], s * (0.5 + 0.3*math.Cos(x[0]*x[1]))
	}
}

// TestAcquisitionGradientsMatchFiniteDifference runs wEI (with zero, one
// and two constraints) and the §4.2 FeasibilityObjective (and its
// negation) through the central-difference oracle on smooth posteriors,
// including points in wEI's λ > 40 and λ < −40 tails, and checks that each
// value returned with a gradient equals the value-only call bit for bit.
func TestAcquisitionGradientsMatchFiniteDifference(t *testing.T) {
	obj := smoothPosterior(1, 0.5, 1)
	c1 := smoothPosterior(0.8, -0.4, 0.6)
	c2 := smoothPosterior(-0.6, 0.3, 0.2)
	tail := smoothPosterior(1, 0.5, 1e-6) // σ ≈ 1e-3: |λ| > 40 away from µ = τ
	acqs := []struct {
		name string
		f    func(x, grad []float64) float64
	}{
		{"EI", WEI(obj, nil, 0.4)},
		{"wEI-1", WEI(obj, []Posterior{c1}, 0.4)},
		{"wEI-2", WEI(obj, []Posterior{c1, c2}, -0.2)},
		{"wEI-lambda>40", WEI(tail, []Posterior{c1}, 3)},
		{"wEI-lambda<-40", WEI(tail, []Posterior{c1}, -3)},
		{"feasibility", FeasibilityObjective([]Posterior{c1, c2, obj})},
		{"negated-feasibility", Negated(FeasibilityObjective([]Posterior{c1, c2, obj}))},
	}
	probes := [][]float64{{0.1, 0.2}, {-0.7, 0.9}, {1.3, -0.4}, {0.5, 1.5}, {-1.2, -1.1}}
	for _, a := range acqs {
		for pi, x := range probes {
			grad := []float64{7, 7} // must be overwritten
			v := a.f(x, grad)
			if w := a.f(x, nil); !sameBits(v, w) {
				t.Fatalf("%s probe %d: value with gradient %v, without %v", a.name, pi, v, w)
			}
			want := fdGrad(func(p []float64) float64 { return a.f(p, nil) }, x, 1e-4)
			checkGrad(t, fmt.Sprintf("%s probe %d", a.name, pi), grad, want, 1)
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
