package mfgp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gp"
	"repro/internal/kernel"
	"repro/internal/stats"
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
// error. Near a zero gradient the oracle itself carries rounding noise of
// order ε·|f|/h, so each component may also sit within 1e-9·fscale, where
// fscale is the magnitude of the differentiated quantity.
func checkGrad(t *testing.T, what string, got, want []float64, fscale float64) {
	t.Helper()
	for i := range want {
		if math.IsNaN(got[i]) || math.IsInf(got[i], 0) {
			t.Fatalf("%s: component %d not finite: %v", what, i, got[i])
		}
		if e := math.Abs(got[i] - want[i]); e > 1e-6*math.Abs(want[i]) && e > 1e-9*fscale {
			t.Fatalf("%s: component %d analytic %.12g, central difference %.12g", what, i, got[i], want[i])
		}
	}
}

// gradChain fits a chain over d inputs with sizes[l] points at level l,
// whose fused levels use the eq. (9) kernel, or a plain SE-ARD kernel over (x, f) when seard is set.
func gradChain(t *testing.T, sizes []int, d int, prop Propagation, seard bool, noise float64) (*MultiLevel, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(100*len(sizes) + d)))
	lo, hi := make([]float64, d), make([]float64, d)
	for j := range hi {
		hi[j] = 1
	}
	f := func(x []float64, l int) float64 {
		s := 0.0
		for j, v := range x {
			s += math.Sin(2*v + float64(j))
		}
		for ; l > 0; l-- {
			s = 1.1*s + 0.3*math.Sin(s) + 0.05
		}
		return s
	}
	var X0 [][]float64
	var m *MultiLevel
	for l := range sizes {
		X := stats.LatinHypercube(rng, lo, hi, sizes[l])
		y := make([]float64, len(X))
		for i, x := range X {
			y[i] = f(x, l)
		}
		cfg := gp.Config{MaxIter: 20, Restarts: 1, FixedNoise: &noise, Workers: 1}
		if l == 0 {
			X0 = X
			cfg.Kernel = kernel.NewSEARD(d)
			base, err := gp.Fit(X, y, cfg, rng)
			if err != nil {
				t.Fatal(err)
			}
			m = NewMultiLevel(base, prop, 8)
			continue
		}
		if seard {
			cfg.Kernel = kernel.NewSEARD(d + 1)
		}
		if err := m.FitLevel(X, y, cfg, rng); err != nil {
			t.Fatal(err)
		}
	}
	return m, X0
}

// TestPredictLevelGradMatchesFiniteDifference is the gradient oracle matrix
// of the fused posterior: chains of one, two and three levels × Monte-Carlo,
// Gauss–Hermite and plug-in propagation × the eq. (9) and a plain SE-ARD
// augmented kernel. At every level, ∂mean/∂x and ∂var/∂x match central
// differences of PredictLevel, and the values PredictLevelGrad returns are
// bit-identical to PredictLevel's.
func TestPredictLevelGradMatchesFiniteDifference(t *testing.T) {
	const d = 3
	for _, levels := range []int{1, 2, 3} {
		for _, p := range propagations {
			for _, seard := range []bool{false, true} {
				if levels == 1 && (p.prop != MonteCarlo || seard) {
					continue // a one-level chain has no propagation or fused kernel
				}
				name := fmt.Sprintf("L%d/%s/nargp", levels, p.name)
				if seard {
					name = fmt.Sprintf("L%d/%s/seard", levels, p.name)
				}
				t.Run(name, func(t *testing.T) {
					m, _ := gradChain(t, []int{18, 10, 7}[:levels], d, p.prop, seard, 0.02)
					probes := stats.LatinHypercube(rand.New(rand.NewSource(3)), make([]float64, d), []float64{1, 1, 1}, 4)
					dm, dv := make([]float64, d), make([]float64, d)
					for l := 0; l < levels; l++ {
						ys := m.Level(l).OutputStd()
						for pi, x := range probes {
							mu, va := m.PredictLevelGrad(x, l, dm, dv)
							wm, wv := m.PredictLevel(x, l)
							if !sameBits(mu, wm) || !sameBits(va, wv) {
								t.Fatalf("level %d probe %d: PredictLevelGrad (%v,%v), PredictLevel (%v,%v)", l, pi, mu, va, wm, wv)
							}
							fm := fdGrad(func(q []float64) float64 { v, _ := m.PredictLevel(q, l); return v }, x, 1e-4)
							fv := fdGrad(func(q []float64) float64 { _, v := m.PredictLevel(q, l); return v }, x, 1e-4)
							checkGrad(t, fmt.Sprintf("level %d probe %d mean", l, pi), dm, fm, ys)
							checkGrad(t, fmt.Sprintf("level %d probe %d variance", l, pi), dv, fv, ys*ys)
						}
					}
				})
			}
		}
	}
}

// TestPredictLevelGradOnLevel0TrainingPoint probes a level-0 training point
// of a near-noiseless chain, where the level-0 latent variance rounds to
// zero and propagate takes its single-node sd == 0 branch: the fused
// gradient is that branch's gradient (the node moves with ∂µ/∂x alone) and
// finite, and matches central differences where the fused mean is
// differentiable.
func TestPredictLevelGradOnLevel0TrainingPoint(t *testing.T) {
	const d = 2
	for _, p := range propagations {
		t.Run(p.name, func(t *testing.T) {
			m, X0 := gradChain(t, []int{6, 5}, d, p.prop, false, 1e-8)
			var x []float64
			for _, xi := range X0 {
				if _, va := m.PredictLevel(xi, 0); va == 0 {
					x = xi
					break
				}
			}
			if x == nil {
				t.Fatal("no level-0 training point with a zero latent variance")
			}
			dm, dv := make([]float64, d), make([]float64, d)
			mu, va := m.PredictLevelGrad(x, 1, dm, dv)
			wm, wv := m.PredictLevel(x, 1)
			if !sameBits(mu, wm) || !sameBits(va, wv) {
				t.Fatalf("PredictLevelGrad (%v,%v), PredictLevel (%v,%v)", mu, va, wm, wv)
			}
			// The branch taken: one node at µ_0(x), moving as ∂µ_0/∂x.
			g0m, g0v := make([]float64, d), make([]float64, d)
			mu0, _ := m.Level(0).PredictLatentGrad(x, g0m, g0v)
			for t2 := range g0v {
				if g0v[t2] != 0 {
					t.Fatalf("clamped level-0 variance has gradient %v", g0v)
				}
			}
			bm, bv := make([]float64, 1), make([]float64, 1)
			bdm, bdv := make([]float64, d), make([]float64, d)
			m.Level(1).PredictLatentAugmentedGrad(x, []float64{mu0}, g0m, bm, bv, bdm, bdv)
			for t2 := 0; t2 < d; t2++ {
				if !sameBits(dm[t2], bdm[t2]) || !sameBits(dv[t2], bdv[t2]) {
					t.Fatalf("fused gradient (%v, %v), single-node branch (%v, %v)", dm, dv, bdm, bdv)
				}
			}
			for _, g := range append(dm, dv...) {
				if math.IsNaN(g) || math.IsInf(g, 0) {
					t.Fatalf("gradient not finite: %v, %v", dm, dv)
				}
			}
			// Off the point the nodes spread by σ_0(x) ∝ |x − x_i|. Symmetric
			// Gauss–Hermite nodes cancel that kink, and plug-in never sees it,
			// so the fused mean is differentiable there; eight Monte-Carlo
			// draws have a nonzero sample mean, so it is not, and only the
			// branch identity above applies.
			if p.prop != MonteCarlo {
				fm := fdGrad(func(q []float64) float64 { v, _ := m.PredictLevel(q, 1); return v }, x, 1e-4)
				checkGrad(t, "mean", dm, fm, m.Level(1).OutputStd())
			}
		})
	}
}
