// Package mfgp implements the paper's two-fidelity nonlinear fusion model
// (§3.1–§3.2), following Perdikaris et al. (2017):
//
//   - a low-fidelity GP f_l(x) trained on the cheap data,
//   - a high-fidelity GP f_h over the augmented input (x, f_l(x)) with the
//     structured kernel k1·k2 + k3 (eq. 9),
//   - posterior prediction by propagating the low-fidelity posterior through
//     the high-fidelity GP (eq. 10), via Monte-Carlo with common random
//     numbers or deterministic Gauss–Hermite quadrature.
package mfgp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/gp"
	"repro/internal/kernel"
	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Propagation selects how the non-Gaussian high-fidelity posterior of
// eq. (10) is approximated.
type Propagation int

const (
	// MonteCarlo samples the low-fidelity posterior and averages the
	// high-fidelity predictions (the paper's method). Samples use common
	// random numbers so that the resulting acquisition surface is smooth
	// and deterministic for a given model.
	MonteCarlo Propagation = iota
	// GaussHermite replaces the random samples with Gauss–Hermite
	// quadrature nodes — a deterministic variant ablated in EXPERIMENTS.md.
	GaussHermite
	// PlugIn ignores the low-fidelity variance and evaluates the
	// high-fidelity GP at the posterior mean only (cheapest, underestimates
	// uncertainty; used for diagnostics).
	PlugIn
)

// Config controls fusion-model training. Zero values select defaults.
type Config struct {
	// LowKernel covers the d design dimensions (default SE-ARD).
	LowKernel kernel.Kernel
	// HighKernel covers the augmented d+1 input (default NewNARGP(d)).
	HighKernel kernel.Kernel
	// Restarts / MaxIter forward to gp.Fit for both levels.
	Restarts int
	MaxIter  int
	// FixedNoise pins both GPs' observation noise (standardized units).
	FixedNoise *float64
	// Propagation method for Predict (default MonteCarlo).
	Propagation Propagation
	// NumSamples: MC sample count or Gauss–Hermite order (default 50 / 20).
	NumSamples int
	// WarmStartHigh optionally warm-starts the high-fidelity GP's
	// hyperparameters (see gp.Config.WarmStart).
	WarmStartHigh []float64
	// SkipTraining keeps WarmStartHigh (or the kernel's current
	// hyperparameters) without optimizing the NLML — the degraded-mode
	// fallback of the BO loop re-factorizes with frozen hyperparameters when
	// a full refit fails (see gp.Config.SkipTraining).
	SkipTraining bool
	// Inducing, when positive, switches the high-fidelity GP to the low-rank
	// inducing-point approximation once its history exceeds Inducing points
	// (see gp.Config.Inducing). Zero keeps the exact GP.
	Inducing int
	// Workers bounds the goroutines for GP training restarts and batched
	// prediction (see gp.Config.Workers): 0 = default, 1 = serial. Results
	// are bit-identical for every setting.
	Workers int
	// Span, when non-nil, parents the high-level GP's "gp.fit" trace span
	// (see gp.Config.Span). nil is a zero-allocation no-op.
	Span *telemetry.Span
}

// Model is a trained two-fidelity fusion model.
type Model struct {
	low, high *gp.Model
	dim       int
	workers   int

	prop    Propagation
	zs      []float64 // common standard-normal draws (MC)
	weights []float64 // quadrature weights (GH); nil for MC

	// predPool recycles *PredictScratch so Predict allocates nothing in
	// steady state even when acquisition loops hammer it concurrently.
	predPool sync.Pool
}

// PredictScratch is the reusable buffer set for one fused prediction: the
// augmented coordinates f_s of eq. (10)'s propagation nodes and the
// high-fidelity posterior at each. Obtain one with NewPredictScratch and pass
// it to PredictInto; a scratch must not be used from two goroutines at once.
type PredictScratch struct {
	fs, mus, vas []float64
}

// NewPredictScratch returns a scratch sized for the model's propagation nodes.
func (m *Model) NewPredictScratch() *PredictScratch {
	sc := &PredictScratch{}
	sc.nodes(max(len(m.zs), 1))
	return sc
}

// nodes returns the per-node buffers for n nodes, growing them if needed.
func (sc *PredictScratch) nodes(n int) (fs, mus, vas []float64) {
	if len(sc.fs) < n {
		sc.fs = make([]float64, n)
		sc.mus = make([]float64, n)
		sc.vas = make([]float64, n)
	}
	return sc.fs[:n], sc.mus[:n], sc.vas[:n]
}

func (m *Model) getPredictScratch() *PredictScratch {
	if sc, ok := m.predPool.Get().(*PredictScratch); ok {
		return sc
	}
	return m.NewPredictScratch()
}

// Fit trains the fusion model on a low-fidelity dataset (Xl, yl) and a
// high-fidelity dataset (Xh, yh). The two designs need not share points; the
// low-fidelity posterior mean supplies the augmented coordinate at Xh
// (eq. 10's integration handles the mismatch at prediction time).
func Fit(Xl [][]float64, yl []float64, Xh [][]float64, yh []float64, cfg Config, rng *rand.Rand) (*Model, error) {
	if len(Xl) == 0 {
		return nil, errors.New("mfgp: low-fidelity level needs at least one point")
	}
	d := len(Xl[0])
	lowK := cfg.LowKernel
	if lowK == nil {
		lowK = kernel.NewSEARD(d)
	}
	low, err := gp.Fit(Xl, yl, gp.Config{
		Kernel: lowK, Restarts: cfg.Restarts, MaxIter: cfg.MaxIter, FixedNoise: cfg.FixedNoise,
		Workers: cfg.Workers,
	}, rng)
	if err != nil {
		return nil, fmt.Errorf("mfgp: low-fidelity fit: %w", err)
	}
	return FitWithLow(low, d, Xh, yh, cfg, rng)
}

// FitWithLow builds the fusion model on top of an already-trained
// low-fidelity GP — the BO loop fits the low GP once per iteration and
// shares it between the low-fidelity acquisition and the fused model.
func FitWithLow(low *gp.Model, d int, Xh [][]float64, yh []float64, cfg Config, rng *rand.Rand) (*Model, error) {
	if low == nil || len(Xh) == 0 {
		return nil, errors.New("mfgp: need a low-fidelity model and high-fidelity data")
	}
	if len(Xh[0]) != d {
		return nil, fmt.Errorf("mfgp: fidelity input dims differ: %d vs %d", d, len(Xh[0]))
	}
	highK := cfg.HighKernel
	if highK == nil {
		highK = kernel.NewNARGP(d)
	}
	// Augment the high-fidelity inputs with the low-fidelity posterior mean.
	Xaug := make([][]float64, len(Xh))
	for i, x := range Xh {
		mu, _ := low.PredictLatent(x)
		Xaug[i] = append(append(make([]float64, 0, d+1), x...), mu)
	}
	high, err := gp.Fit(Xaug, yh, gp.Config{
		Kernel: highK, Restarts: cfg.Restarts, MaxIter: cfg.MaxIter,
		FixedNoise: cfg.FixedNoise, WarmStart: cfg.WarmStartHigh,
		SkipTraining: cfg.SkipTraining && cfg.WarmStartHigh != nil,
		Inducing:     cfg.Inducing,
		Workers:      cfg.Workers,
		Span:         cfg.Span,
	}, rng)
	if err != nil {
		return nil, fmt.Errorf("mfgp: high-fidelity fit: %w", err)
	}

	m := &Model{low: low, high: high, dim: d, workers: cfg.Workers, prop: cfg.Propagation}
	n := cfg.NumSamples
	switch cfg.Propagation {
	case GaussHermite:
		if n <= 0 {
			n = 20
		}
		m.zs, m.weights = stats.GaussHermite(n)
	case MonteCarlo:
		if n <= 0 {
			n = 50
		}
		m.zs = make([]float64, n)
		for i := range m.zs {
			m.zs[i] = rng.NormFloat64()
		}
	case PlugIn:
		// No nodes needed.
	default:
		return nil, fmt.Errorf("mfgp: unknown propagation %d", cfg.Propagation)
	}
	return m, nil
}

// AppendHigh folds one new high-fidelity observation into the fused model
// without retraining: the augmented coordinate is taken from the *current*
// low-fidelity posterior (previously stored rows stay frozen — the standard
// streaming approximation, reset by the next full refit) and the high GP's
// covariance factor is rank-1-extended in O(n²). Errors leave the model
// unchanged; callers fall back to a full FitWithLow.
func (m *Model) AppendHigh(x []float64, y float64) error {
	if len(x) != m.dim {
		return fmt.Errorf("mfgp: append dim %d != %d", len(x), m.dim)
	}
	mu, _ := m.low.PredictLatent(x)
	aug := append(append(make([]float64, 0, m.dim+1), x...), mu)
	return m.high.AppendObservation(aug, y)
}

// TruncateHigh retracts appended high-fidelity observations down to n — the
// fantasy-retraction primitive for batch proposals. On the exact path the
// restored high-GP factor is bit-identical to the pre-append state.
func (m *Model) TruncateHigh(n int) error { return m.high.Truncate(n) }

// HighSize returns the number of high-fidelity observations in the model.
func (m *Model) HighSize() int { return m.high.TrainingSize() }

// Dim returns the design-space dimensionality.
func (m *Model) Dim() int { return m.dim }

// Low returns the trained low-fidelity GP.
func (m *Model) Low() *gp.Model { return m.low }

// High returns the trained high-fidelity GP over augmented inputs.
func (m *Model) High() *gp.Model { return m.high }

// PredictLow returns the low-fidelity posterior mean and variance at x.
func (m *Model) PredictLow(x []float64) (mean, variance float64) {
	return m.low.PredictLatent(x)
}

// Predict returns the fused high-fidelity posterior mean and variance at x,
// integrating out the low-fidelity value per eq. (10). The variance combines
// within-sample predictive variance and between-sample mean spread (law of
// total variance).
func (m *Model) Predict(x []float64) (mean, variance float64) {
	sc := m.getPredictScratch()
	mean, variance = m.PredictInto(x, sc)
	m.predPool.Put(sc)
	return mean, variance
}

// PredictInto is Predict with caller-owned scratch for the propagation
// nodes. Acquisition loops and PredictBatch route every posterior evaluation
// through here; results are identical to Predict.
func (m *Model) PredictInto(x []float64, sc *PredictScratch) (mean, variance float64) {
	muL, vaL := m.low.PredictLatent(x)
	return propagate(m.high, x, muL, vaL, m.prop, m.zs, m.weights, sc)
}

// propagate pushes the Gaussian posterior N(mu, va) of the level below
// through the augmented-input GP high at design point x (eq. 10): at the
// nodes f = mu + sd·z for z in zs, equally weighted unless weights are
// given, or at mu alone under PlugIn or when the lower level is certain. It
// returns the moment-matched mean and variance (law of total variance).
// The two-fidelity Model and every MultiLevel step share it.
func propagate(high *gp.Model, x []float64, mu, va float64, prop Propagation,
	zs, weights []float64, sc *PredictScratch) (mean, variance float64) {
	sd := math.Sqrt(math.Max(va, 0))
	if prop == PlugIn || sd == 0 {
		fs, mus, vas := sc.nodes(1)
		fs[0] = mu
		high.PredictLatentAugmented(x, fs, mus, vas)
		return mus[0], vas[0]
	}
	n := len(zs)
	fs, mus, vas := sc.nodes(n)
	for i, z := range zs {
		fs[i] = mu + sd*z
	}
	high.PredictLatentAugmented(x, fs, mus, vas)
	var sumW, meanAcc, m2Acc float64
	for i := 0; i < n; i++ {
		w := 1.0 / float64(n)
		if weights != nil {
			w = weights[i]
		}
		mu, va := mus[i], vas[i]
		sumW += w
		meanAcc += w * mu
		m2Acc += w * (va + mu*mu)
	}
	mean = meanAcc / sumW
	variance = m2Acc/sumW - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, variance
}

// PredictBatch evaluates Predict over many points, fanning the grid across
// the model's configured worker count. Every point is an independent pure
// function of the trained model, so the output is bit-identical to the
// serial loop for any worker count.
func (m *Model) PredictBatch(xs [][]float64) (means, variances []float64) {
	means = make([]float64, len(xs))
	variances = make([]float64, len(xs))
	parallel.ForEach(parallel.Workers(m.workers), len(xs), func(i int) {
		means[i], variances[i] = m.Predict(xs[i])
	})
	return means, variances
}
