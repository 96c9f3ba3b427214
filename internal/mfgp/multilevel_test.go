package mfgp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gp"
	"repro/internal/kernel"
)

// threeLevelData builds a nested 1-D design for the chain
// f0 = sin(8πx), f1 = f0², f2 = (x−√2)·f1.
func threeLevelData() (X [][][]float64, y [][]float64, f2 func(float64) float64) {
	f0 := func(x float64) float64 { return math.Sin(8 * math.Pi * x) }
	f1 := func(x float64) float64 { v := f0(x); return v * v }
	f2 = func(x float64) float64 { return (x - math.Sqrt2) * f1(x) }
	grid := func(n int) (X [][]float64) {
		for i := 0; i < n; i++ {
			X = append(X, []float64{float64(i) / float64(n-1)})
		}
		return
	}
	apply := func(X [][]float64, f func(float64) float64) (y []float64) {
		for _, x := range X {
			y = append(y, f(x[0]))
		}
		return
	}
	X0, X1, X2 := grid(60), grid(25), grid(12)
	return [][][]float64{X0, X1, X2},
		[][]float64{apply(X0, f0), apply(X1, f1), apply(X2, f2)}, f2
}

// TestMultiLevelAppendTruncateRoundTrip pins the fantasy-retraction
// contract: appending rows to any single level and truncating back restores
// the chain posterior bit for bit.
func TestMultiLevelAppendTruncateRoundTrip(t *testing.T) {
	X, y, _ := threeLevelData()
	rng := rand.New(rand.NewSource(12))
	m, err := FitMultiLevel(X, y, MultiLevelConfig{
		Restarts: 1, FixedNoise: fixedNoise(1e-6),
		Propagation: GaussHermite, NumSamples: 12,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	probe := [][]float64{{0.05}, {0.33}, {0.71}, {0.98}}
	type post struct{ mu, va float64 }
	before := make([][]post, m.Levels())
	for l := 0; l < m.Levels(); l++ {
		for _, x := range probe {
			mu, va := m.PredictLevel(x, l)
			before[l] = append(before[l], post{mu, va})
		}
	}
	for l := 0; l < m.Levels(); l++ {
		n := m.Level(l).TrainingSize()
		if err := m.AppendLevel(l, []float64{0.5}, 0.1); err != nil {
			t.Fatalf("append level %d: %v", l, err)
		}
		if err := m.AppendLevel(l, []float64{0.6}, -0.2); err != nil {
			t.Fatalf("append level %d: %v", l, err)
		}
		if m.Level(l).TrainingSize() != n+2 {
			t.Fatalf("level %d size %d after append, want %d", l, m.Level(l).TrainingSize(), n+2)
		}
		if err := m.TruncateLevel(l, n); err != nil {
			t.Fatalf("truncate level %d: %v", l, err)
		}
		for lv := 0; lv < m.Levels(); lv++ {
			for i, x := range probe {
				mu, va := m.PredictLevel(x, lv)
				if math.Float64bits(mu) != math.Float64bits(before[lv][i].mu) ||
					math.Float64bits(va) != math.Float64bits(before[lv][i].va) {
					t.Fatalf("level %d append/truncate did not restore level-%d posterior at %v: (%v,%v) vs (%v,%v)",
						l, lv, x[0], mu, va, before[lv][i].mu, before[lv][i].va)
				}
			}
		}
	}
}

// TestMultiLevelAppendIncorporatesData checks AppendLevel is a real update,
// not a no-op: appending a target-level observation pulls the chain
// posterior toward it.
func TestMultiLevelAppendIncorporatesData(t *testing.T) {
	X, y, f2 := threeLevelData()
	rng := rand.New(rand.NewSource(13))
	m, err := FitMultiLevel(X, y, MultiLevelConfig{
		Restarts: 1, FixedNoise: fixedNoise(1e-6),
		Propagation: GaussHermite, NumSamples: 12,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Probe midway between the sparse level-2 design points (spacing 1/11),
	// where the target level still carries residual uncertainty. The append
	// freezes the augmented coordinate at the current chain mean; at that
	// exact augmented point the level-2 GP variance must drop (conditioning
	// on a new observation never inflates the posterior there).
	x := []float64{4.5 / 11.0}
	muChain, _ := m.PredictLevel(x, 1)
	aug := []float64{x[0], muChain}
	_, vaBefore := m.Level(2).PredictLatent(aug)
	if err := m.AppendLevel(2, x, f2(x[0])); err != nil {
		t.Fatal(err)
	}
	muLat, vaAfter := m.Level(2).PredictLatent(aug)
	if math.IsNaN(muLat) || vaAfter < 0 {
		t.Fatalf("bad posterior after append: %v ± %v", muLat, vaAfter)
	}
	if vaAfter >= vaBefore {
		t.Fatalf("append did not reduce level-2 variance at the observed point: %v -> %v", vaBefore, vaAfter)
	}
	if muFull, vaFull := m.Predict(x); math.IsNaN(muFull) || vaFull < 0 {
		t.Fatalf("bad chain posterior after append: %v ± %v", muFull, vaFull)
	}
}

// TestMultiLevelCheckpointRoundTrip pins the engine's K-level restore
// protocol: persisting the per-level datasets plus Hyper() and rebuilding the
// chain level by level with those hyperparameters frozen (gp.Config
// WarmStart + SkipTraining) and deterministic propagation reproduces the
// chain posterior bit for bit.
func TestMultiLevelCheckpointRoundTrip(t *testing.T) {
	X, y, _ := threeLevelData()
	rng := rand.New(rand.NewSource(14))
	cfg := MultiLevelConfig{
		Restarts: 1, FixedNoise: fixedNoise(1e-6),
		Propagation: GaussHermite, NumSamples: 12,
	}
	m, err := FitMultiLevel(X, y, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	// "Restore": same datasets + saved hypers, no training.
	hyper := m.Hyper()
	rng2 := rand.New(rand.NewSource(999))
	frozen := func(l int) gp.Config {
		return gp.Config{FixedNoise: cfg.FixedNoise, WarmStart: hyper[l], SkipTraining: true}
	}
	base := frozen(0)
	base.Kernel = kernel.NewSEARD(1)
	low, err := gp.Fit(X[0], y[0], base, rng2)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewMultiLevel(low, cfg.Propagation, cfg.NumSamples)
	for l := 1; l < len(X); l++ {
		if err := m2.FitLevel(X[l], y[l], frozen(l), rng2); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i <= 50; i++ {
		x := []float64{float64(i) / 50}
		for l := 0; l < m.Levels(); l++ {
			mu1, va1 := m.PredictLevel(x, l)
			mu2, va2 := m2.PredictLevel(x, l)
			if math.Float64bits(mu1) != math.Float64bits(mu2) ||
				math.Float64bits(va1) != math.Float64bits(va2) {
				t.Fatalf("restore drifted at x=%v level %d: (%v,%v) vs (%v,%v)",
					x[0], l, mu1, va1, mu2, va2)
			}
		}
	}
}

// TestMultiLevelPlugIn exercises the plug-in propagation mode.
func TestMultiLevelPlugIn(t *testing.T) {
	X, y, f2 := threeLevelData()
	rng := rand.New(rand.NewSource(15))
	m, err := FitMultiLevel(X, y, MultiLevelConfig{
		Restarts: 2, FixedNoise: fixedNoise(1e-6), Propagation: PlugIn,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var sq float64
	const n = 101
	for i := 0; i < n; i++ {
		x := float64(i) / (n - 1)
		mu, va := m.Predict([]float64{x})
		if va < 0 || math.IsNaN(mu) {
			t.Fatalf("bad plug-in posterior at %v: %v ± %v", x, mu, va)
		}
		d := mu - f2(x)
		sq += d * d
	}
	if rmse := math.Sqrt(sq / n); rmse > 0.2 {
		t.Fatalf("plug-in 3-level RMSE %v too large", rmse)
	}
}

// TestMultiLevelAppendValidation covers the error paths.
func TestMultiLevelAppendValidation(t *testing.T) {
	X, y, _ := threeLevelData()
	rng := rand.New(rand.NewSource(16))
	m, err := FitMultiLevel(X, y, MultiLevelConfig{
		Restarts: 1, FixedNoise: fixedNoise(1e-6), Propagation: GaussHermite,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AppendLevel(3, []float64{0.5}, 0); err == nil {
		t.Fatal("expected out-of-range level error")
	}
	if err := m.AppendLevel(-1, []float64{0.5}, 0); err == nil {
		t.Fatal("expected negative level error")
	}
	if err := m.AppendLevel(0, []float64{0.5, 0.5}, 0); err == nil {
		t.Fatal("expected dim mismatch error")
	}
	if err := m.TruncateLevel(9, 0); err == nil {
		t.Fatal("expected truncate range error")
	}
}
