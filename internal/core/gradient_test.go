package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/acq"
	"repro/internal/problem"
	"repro/internal/stats"
	"repro/internal/testbench"
	"repro/internal/testfunc"
)

// fdGrad is the central-difference oracle with one Richardson step,
// (4·D(h/2) − D(h))/3, whose truncation error is O(h⁴).
func fdGrad(f func([]float64) float64, x []float64, h []float64) []float64 {
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
		g[i] = (4*diff(i, h[i]/2) - diff(i, h[i])) / 3
	}
	return g
}

// TestConstrainedChainGradients runs the gradient oracle over what propose
// maximizes on constrained problems, at K=2 and K=3: every output's chain
// (objective and each constraint) at the cheapest and the target level, and
// the wEI and negated §4.2 feasibility acquisitions assembled from them.
// Each gradient matches central differences to 1e-6 relative error (or
// 1e-9 of the scale of the terms the quantity is computed from, where it
// is near zero), and each value returned with a gradient is bit-identical
// to the value-only call.
func TestConstrainedChainGradients(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    problem.Problem
		cfg  Config
	}{
		{"K=2", testfunc.ConstrainedSynthetic(), fastCfg(20)},
		{"K=3", testbench.NewPowerAmp3(), ladderCfg(20)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := NewEngine(tc.p, tc.cfg, rand.New(rand.NewSource(5)))
			if err != nil {
				t.Fatal(err)
			}
			for eng.st.iter < 1 {
				s, err := eng.Ask(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				ev, _ := problem.EvaluateRich(tc.p, s.X, s.Fid)
				if err := eng.Tell(s.X, s.Fid, ev); err != nil {
					t.Fatal(err)
				}
			}
			st := eng.st
			chains, ok := st.fitLadder(st.iter, true, nil)
			if !ok || st.nc == 0 {
				t.Fatalf("fit ok=%v with %d constraints", ok, st.nc)
			}
			h := make([]float64, st.d)
			for i := range h {
				h[i] = 1e-4 * (st.hi[i] - st.lo[i])
			}
			probes := stats.LatinHypercube(rand.New(rand.NewSource(6)), st.lo, st.hi, 3)
			target := st.ladder.Target()
			check := func(what string, got, want []float64, fscale float64) {
				t.Helper()
				for i := range want {
					if e := math.Abs(got[i] - want[i]); math.IsNaN(got[i]) || e > 1e-6*math.Abs(want[i]) && e > 1e-9*fscale {
						t.Fatalf("%s: component %d analytic %.12g, central difference %.12g", what, i, got[i], want[i])
					}
				}
			}
			posts := make([]acq.Posterior, st.nOut)
			for k, chain := range chains {
				l := topLevel(chain, target)
				posts[k] = func(x, dm, dv []float64) (float64, float64) { return chain.PredictLevelGrad(x, l, dm, dv) }
				for _, level := range []int{0, l} {
					ys := chain.Level(level).OutputStd()
					for pi, x := range probes {
						dm, dv := make([]float64, st.d), make([]float64, st.d)
						mu, va := chain.PredictLevelGrad(x, level, dm, dv)
						wm, wv := chain.PredictLevel(x, level)
						if math.Float64bits(mu) != math.Float64bits(wm) || math.Float64bits(va) != math.Float64bits(wv) {
							t.Fatalf("output %d level %d: gradient path (%v,%v), value path (%v,%v)", k, level, mu, va, wm, wv)
						}
						fm := fdGrad(func(q []float64) float64 { v, _ := chain.PredictLevel(q, level); return v }, x, h)
						fv := fdGrad(func(q []float64) float64 { _, v := chain.PredictLevel(q, level); return v }, x, h)
						// The fused variance is E[m²] − mean², so the oracle's
						// rounding noise scales with mean² as well as the
						// output scale.
						check(fmt.Sprintf("output %d level %d probe %d mean", k, level, pi), dm, fm, ys+math.Abs(mu))
						check(fmt.Sprintf("output %d level %d probe %d variance", k, level, pi), dv, fv, ys*ys+mu*mu)
					}
				}
			}
			// τ at the median objective prediction keeps EI away from its
			// λ tails at the probes.
			tau, _ := chains[0].PredictLevel(probes[1], topLevel(chains[0], target))
			acqs := map[string]func(x, grad []float64) float64{
				"wEI":         acq.WEI(posts[0], posts[1:], tau),
				"feasibility": acq.Negated(acq.FeasibilityObjective(posts[1:])),
			}
			for name, a := range acqs {
				for pi, x := range probes {
					grad := make([]float64, st.d)
					v := a(x, grad)
					if w := a(x, nil); math.Float64bits(v) != math.Float64bits(w) {
						t.Fatalf("%s probe %d: value with gradient %v, without %v", name, pi, v, w)
					}
					want := fdGrad(func(q []float64) float64 { return a(q, nil) }, x, h)
					check(fmt.Sprintf("%s probe %d", name, pi), grad, want, math.Max(math.Abs(v), 1))
				}
			}
		})
	}
}
