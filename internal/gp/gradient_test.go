package gp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

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

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestPredictLatentGradMatchesFiniteDifference is the oracle for the SE-ARD
// posterior gradients, exact and low-rank (DTC): ∂µ/∂x and ∂σ²/∂x match
// central differences, including on a training point, and the values
// returned with a gradient are bit-identical to PredictLatent.
func TestPredictLatentGradMatchesFiniteDifference(t *testing.T) {
	for _, tc := range []struct {
		name     string
		d        int
		inducing int
	}{{"exact-1d", 1, 0}, {"exact-4d", 4, 0}, {"lowrank-3d", 3, 12}} {
		t.Run(tc.name, func(t *testing.T) {
			X, y, lo, hi := trainSet(int64(40+tc.d), 30, tc.d)
			for i := range X {
				for j := range X[i] {
					X[i][j] = 2*X[i][j] - 0.5 // non-trivial standardization
				}
				y[i] = 3*y[i] + 1
			}
			m, err := Fit(X, y, Config{Kernel: kernel.NewSEARD(tc.d), MaxIter: 30, Inducing: tc.inducing, FixedNoise: fixedNoise(0.05), Workers: 1},
				rand.New(rand.NewSource(7)))
			if err != nil {
				t.Fatal(err)
			}
			probes := stats.LatinHypercube(rand.New(rand.NewSource(8)), lo, hi, 6)
			probes = append(probes, X[3])
			dm, dv := make([]float64, tc.d), make([]float64, tc.d)
			for pi, x := range probes {
				mu, va := m.PredictLatentGrad(x, dm, dv)
				wm, wv := m.PredictLatent(x)
				if !sameBits(mu, wm) || !sameBits(va, wv) {
					t.Fatalf("probe %d: PredictLatentGrad (%v,%v), PredictLatent (%v,%v)", pi, mu, va, wm, wv)
				}
				fm := fdGrad(func(p []float64) float64 { v, _ := m.PredictLatent(p); return v }, x, 1e-3)
				fv := fdGrad(func(p []float64) float64 { _, v := m.PredictLatent(p); return v }, x, 1e-3)
				checkGrad(t, fmt.Sprintf("probe %d mean", pi), dm, fm, m.OutputStd())
				checkGrad(t, fmt.Sprintf("probe %d variance", pi), dv, fv, m.OutputStd()*m.OutputStd())
			}
		})
	}
}

// TestPredictLatentAugmentedGradMatchesFiniteDifference checks eq. (10)'s
// per-node gradients on the eq. (9) kernel (hoisted split, exact and
// low-rank) and on a plain SE-ARD augmented kernel (per-node fallback):
// for nodes that move with x as f_s(x) = c_s + w_sᵀx, every node's mean and
// variance gradient matches central differences of PredictLatentAugmented,
// whose values the gradient path reproduces bit for bit.
func TestPredictLatentAugmentedGradMatchesFiniteDifference(t *testing.T) {
	for _, tc := range []struct {
		name     string
		d        int
		seard    bool
		inducing int
	}{{"nargp-1d", 1, false, 0}, {"nargp-5d", 5, false, 0}, {"nargp-lowrank-3d", 3, false, 10}, {"seard-3d", 3, true, 0}} {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.d
			X, y, lo, hi := trainSet(int64(50+d), 25, d)
			aug := make([][]float64, len(X))
			for i, x := range X {
				aug[i] = append(append([]float64(nil), x...), math.Cos(2*x[0])+0.3*y[i])
				y[i] = 1.2*y[i] + 0.1*aug[i][d]*aug[i][d]
			}
			var k kernel.Kernel = kernel.NewNARGP(d)
			if tc.seard {
				k = kernel.NewSEARD(d + 1)
			}
			m, err := Fit(aug, y, Config{Kernel: k, MaxIter: 25, Inducing: tc.inducing, FixedNoise: fixedNoise(0.05), Workers: 1}, rand.New(rand.NewSource(9)))
			if err != nil {
				t.Fatal(err)
			}
			const S = 3
			c := []float64{-0.4, 0.2, 0.9}
			w := make([]float64, S*d)
			for i := range w {
				w[i] = 0.3 * math.Sin(float64(i)+1)
			}
			nodes := func(x []float64, fs []float64) {
				for s := range fs {
					fs[s] = c[s]
					for t, xt := range x {
						fs[s] += w[s*d+t] * xt
					}
				}
			}
			fs, means, vars := make([]float64, S), make([]float64, S), make([]float64, S)
			gm, gv := make([]float64, S), make([]float64, S)
			dm, dv := make([]float64, S*d), make([]float64, S*d)
			probes := stats.LatinHypercube(rand.New(rand.NewSource(10)), lo, hi, 5)
			for pi, x := range probes {
				nodes(x, fs)
				m.PredictLatentAugmentedGrad(x, fs, w, means, vars, dm, dv)
				m.PredictLatentAugmented(x, fs, gm, gv)
				for s := 0; s < S; s++ {
					if !sameBits(means[s], gm[s]) || !sameBits(vars[s], gv[s]) {
						t.Fatalf("probe %d node %d: gradient path (%v,%v), value path (%v,%v)", pi, s, means[s], vars[s], gm[s], gv[s])
					}
					node := func(p []float64, wantVar bool) float64 {
						f := make([]float64, S)
						nodes(p, f)
						mu, va := make([]float64, S), make([]float64, S)
						m.PredictLatentAugmented(p, f, mu, va)
						if wantVar {
							return va[s]
						}
						return mu[s]
					}
					fm := fdGrad(func(p []float64) float64 { return node(p, false) }, x, 1e-3)
					fv := fdGrad(func(p []float64) float64 { return node(p, true) }, x, 1e-3)
					checkGrad(t, fmt.Sprintf("probe %d node %d mean", pi, s), dm[s*d:(s+1)*d], fm, m.OutputStd())
					checkGrad(t, fmt.Sprintf("probe %d node %d variance", pi, s), dv[s*d:(s+1)*d], fv, m.OutputStd()*m.OutputStd())
				}
			}
		})
	}
}
