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

// refPropagate is eq. (10) evaluated the direct way: one PredictLatent per
// node on the full augmented point (x, f). The hoisted propagation must
// match it bit for bit.
func refPropagate(high *gp.Model, x []float64, mu, va float64, prop Propagation, zs, weights []float64) (float64, float64) {
	d := len(x)
	aug := append(append(make([]float64, 0, d+1), x...), 0)
	sd := math.Sqrt(math.Max(va, 0))
	if prop == PlugIn || sd == 0 {
		aug[d] = mu
		return high.PredictLatent(aug)
	}
	var sumW, meanAcc, m2Acc float64
	n := len(zs)
	for i := 0; i < n; i++ {
		w := 1.0 / float64(n)
		if weights != nil {
			w = weights[i]
		}
		aug[d] = mu + sd*zs[i]
		mi, vi := high.PredictLatent(aug)
		sumW += w
		meanAcc += w * mi
		m2Acc += w * (vi + mi*mi)
	}
	mean := meanAcc / sumW
	variance := m2Acc/sumW - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, variance
}

var propagations = []struct {
	name string
	prop Propagation
}{{"monte-carlo", MonteCarlo}, {"gauss-hermite", GaussHermite}, {"plugin", PlugIn}}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkFusedOracle compares a two-level chain's Predict with refPropagate
// at every probe.
func checkFusedOracle(t *testing.T, m *MultiLevel, probes [][]float64, stage string) {
	t.Helper()
	for i, x := range probes {
		muL, vaL := m.Level(0).PredictLatent(x)
		wm, wv := refPropagate(m.Level(1), x, muL, vaL, m.prop, m.zs[0], m.weights)
		pm, pv := m.Predict(x)
		if !sameBits(pm, wm) || !sameBits(pv, wv) {
			t.Fatalf("%s, probe %d: Predict (%v,%v), per-node (%v,%v)", stage, i, pm, pv, wm, wv)
		}
	}
}

// TestHoistedPropagationMatchesPerNode is the oracle for hoisting the
// design-only eq. (9) factors out of the propagation loop: across design
// dimensions, propagation modes, the exact and low-rank high GP, and a
// high kernel of another structure (which must take the per-node
// fallback), two-level fused predictions equal the per-node evaluation bit
// for bit — also after appends grow the high GP past the prediction scratch
// sized at fit time, and after truncation retracts it again.
func TestHoistedPropagationMatchesPerNode(t *testing.T) {
	variants := []struct {
		name     string
		seard    bool // plain SE-ARD over (x, f): not eq. (9), no split
		inducing int
	}{{"nargp", false, 0}, {"nargp-lowrank", false, 6}, {"seard-fallback", true, 0}}
	for _, d := range []int{1, 5, 36} {
		Xl, yl, Xh, yh, lo, hi := fusionSet(int64(60+d), 20, 8, d)
		probes := stats.LatinHypercube(rand.New(rand.NewSource(int64(70+d))), lo, hi, 5)
		extra := stats.LatinHypercube(rand.New(rand.NewSource(int64(80+d))), lo, hi, 4)
		for _, p := range propagations {
			for _, v := range variants {
				t.Run(fmt.Sprintf("d%d/%s/%s", d, p.name, v.name), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(90 + d)))
					low, err := gp.Fit(Xl, yl, gp.Config{Kernel: kernel.NewSEARD(d), MaxIter: 5, Restarts: 1, Workers: 1}, rng)
					if err != nil {
						t.Fatal(err)
					}
					m := NewMultiLevel(low, p.prop, 0)
					cfg := gp.Config{MaxIter: 5, Restarts: 1, Inducing: v.inducing, Workers: 1}
					if v.seard {
						cfg.Kernel = kernel.NewSEARD(d + 1)
					}
					if err := m.FitLevel(Xh, yh, cfg, rng); err != nil {
						t.Fatal(err)
					}
					if _, nargp := m.Level(1).Kernel().(*kernel.NARGP); nargp == v.seard {
						t.Fatalf("eq. (9) kernel = %v on the %s high kernel", nargp, v.name)
					}
					if got := m.Level(1).IsLowRank(); got != (v.inducing > 0) {
						t.Fatalf("high GP low-rank = %v, want %v", got, v.inducing > 0)
					}
					n0 := m.Level(1).TrainingSize()
					checkFusedOracle(t, m, probes, "after fit")
					for _, x := range extra {
						y := 0.0
						for j, xj := range x {
							y += math.Sin(3*xj + float64(j))
						}
						if err := m.AppendLevel(1, x, 1.15*y+0.05); err != nil {
							t.Fatal(err)
						}
					}
					checkFusedOracle(t, m, probes, "after AppendLevel")
					if err := m.TruncateLevel(1, n0); err != nil {
						t.Fatal(err)
					}
					checkFusedOracle(t, m, probes, "after TruncateLevel")
				})
			}
		}
	}
}

// TestMultiLevelHoistedMatchesPerNode runs the same oracle through a
// three-level chain: every level's propagation step, at the target and at
// the middle level, and after the target level grows and is truncated.
func TestMultiLevelHoistedMatchesPerNode(t *testing.T) {
	X, y, f2 := threeLevelData()
	probes := [][]float64{{0.03}, {0.27}, {0.5}, {0.74}, {0.98}}
	for _, p := range propagations {
		t.Run(p.name, func(t *testing.T) {
			m, err := FitMultiLevel(X, y, MultiLevelConfig{
				MaxIter: 10, Restarts: 1, Propagation: p.prop, Workers: 1,
			}, rand.New(rand.NewSource(5)))
			if err != nil {
				t.Fatal(err)
			}
			check := func(stage string) {
				t.Helper()
				for _, x := range probes {
					for l := 0; l < m.Levels(); l++ {
						wm, wv := m.Level(0).PredictLatent(x)
						for lev := 1; lev <= l; lev++ {
							wm, wv = refPropagate(m.Level(lev), x, wm, wv, m.prop, m.zs[lev-1], m.weights)
						}
						gm, gv := m.PredictLevel(x, l)
						if !sameBits(gm, wm) || !sameBits(gv, wv) {
							t.Fatalf("%s, x=%v, level %d: (%v,%v) vs per-node (%v,%v)", stage, x, l, gm, gv, wm, wv)
						}
					}
				}
			}
			check("after fit")
			top := m.Levels() - 1
			n0 := m.Level(top).TrainingSize()
			for _, x := range []float64{0.11, 0.36, 0.58, 0.81} {
				if err := m.AppendLevel(top, []float64{x}, f2(x)); err != nil {
					t.Fatal(err)
				}
			}
			check("after AppendLevel")
			if err := m.TruncateLevel(top, n0); err != nil {
				t.Fatal(err)
			}
			check("after TruncateLevel")
		})
	}
}
