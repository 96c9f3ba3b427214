package mfgp

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/gp"
	"repro/internal/kernel"
	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// MultiLevel is the recursive NARGP model of Perdikaris et al. (2017) over
// L ≥ 1 fidelity levels: level 0 is a plain GP over x, and every level ℓ > 0
// is a GP over the augmented input (x, f̂_{ℓ−1}(x)) with the structured
// kernel of eq. (9). The paper's two-fidelity model (§3) is the two-level
// chain; longer chains back the fidelity-ladder engine (K > 2 rungs) the
// introduction motivates ("we can always carry out the circuit simulation at
// different precision levels"). A one-level chain is the plain level-0 GP —
// the state of a chain whose fused levels could not be fitted.
type MultiLevel struct {
	models     []*gp.Model // models[0] over x, models[ℓ>0] over (x, prev)
	dim        int
	prop       Propagation
	numSamples int         // propagation nodes per fused level (MC or GH)
	zs         [][]float64 // propagation nodes per fused level
	weights    []float64   // quadrature weights (GaussHermite); nil otherwise

	// predPool recycles *predictScratch so Predict allocates nothing in
	// steady state.
	predPool sync.Pool
}

// MultiLevelConfig tunes FitMultiLevel.
type MultiLevelConfig struct {
	// Restarts / MaxIter / FixedNoise forward to gp.Fit at every level.
	Restarts, MaxIter int
	FixedNoise        *float64
	// Propagation selects how each level's posterior is pushed through the
	// next: MonteCarlo (default), GaussHermite or PlugIn.
	Propagation Propagation
	// NumSamples is the propagation cloud size per fused level (default 50
	// for MonteCarlo or 20 nodes for GaussHermite; ignored by PlugIn).
	NumSamples int
	// Inducing forwards to gp.Config.Inducing at every level.
	Inducing int
	// Workers forwards to gp.Config.Workers at every level (0 = default,
	// 1 = serial); results are bit-identical for every setting.
	Workers int
	// Span, when non-nil, parents the per-level gp.fit trace spans.
	Span *telemetry.Span
}

// NewMultiLevel starts a chain from a trained level-0 GP over the design
// space; FitLevel stacks the fused levels on top. numSamples is the
// propagation cloud size per fused level (≤ 0 selects 50 Monte-Carlo samples
// or 20 Gauss–Hermite nodes). It panics on an unknown propagation mode,
// which callers validate with their configuration.
func NewMultiLevel(base *gp.Model, prop Propagation, numSamples int) *MultiLevel {
	m := &MultiLevel{models: []*gp.Model{base}, dim: base.Kernel().Dim(), prop: prop, numSamples: numSamples}
	switch prop {
	case MonteCarlo:
		if m.numSamples <= 0 {
			m.numSamples = 50
		}
	case GaussHermite:
		if m.numSamples <= 0 {
			m.numSamples = 20
		}
		_, m.weights = stats.GaussHermite(m.numSamples)
	case PlugIn:
	default:
		panic(fmt.Sprintf("mfgp: unknown propagation %d", prop))
	}
	return m
}

// FitLevel trains the next level of the chain on (X, y): a GP over the
// augmented input (x, µ(x)), where µ is the current top level's fused
// posterior mean, with the eq. (9) kernel unless cfg.Kernel is set. The new
// level's propagation nodes are drawn from rng after its GP is trained, so a
// chain built level by level consumes the stream in fit order. On error the
// chain is left unchanged.
func (m *MultiLevel) FitLevel(X [][]float64, y []float64, cfg gp.Config, rng *rand.Rand) error {
	if len(X) == 0 {
		return errors.New("mfgp: need a low-fidelity model and high-fidelity data")
	}
	for _, x := range X {
		if len(x) != m.dim {
			return fmt.Errorf("mfgp: fidelity input dims differ: %d vs %d", m.dim, len(x))
		}
	}
	if cfg.Kernel == nil {
		cfg.Kernel = kernel.NewNARGP(m.dim)
	}
	top := len(m.models) - 1
	Xaug := make([][]float64, len(X))
	for i, x := range X {
		mu, _ := m.predictLevel(x, top, nil, nil)
		Xaug[i] = append(append(make([]float64, 0, m.dim+1), x...), mu)
	}
	model, err := gp.Fit(Xaug, y, cfg, rng)
	if err != nil {
		return fmt.Errorf("mfgp: high-fidelity fit: %w", err)
	}
	var zs []float64
	switch m.prop {
	case MonteCarlo:
		zs = make([]float64, m.numSamples)
		for i := range zs {
			zs[i] = rng.NormFloat64()
		}
	case GaussHermite:
		zs, _ = stats.GaussHermite(m.numSamples)
	}
	m.models = append(m.models, model)
	m.zs = append(m.zs, zs)
	return nil
}

// FitMultiLevel trains the recursive model on per-level datasets ordered
// from cheapest (X[0], y[0]) to the target fidelity (X[L−1], y[L−1]): a
// level-0 SE-ARD GP, then FitLevel per fused level.
func FitMultiLevel(X [][][]float64, y [][]float64, cfg MultiLevelConfig, rng *rand.Rand) (*MultiLevel, error) {
	if len(X) < 2 {
		return nil, errors.New("mfgp: multi-level model needs at least two levels")
	}
	if len(y) != len(X) {
		return nil, fmt.Errorf("mfgp: %d input levels but %d output levels", len(X), len(y))
	}
	for l := range X {
		if len(X[l]) == 0 {
			return nil, fmt.Errorf("mfgp: level %d has no data", l)
		}
		if len(X[l]) != len(y[l]) {
			return nil, fmt.Errorf("mfgp: level %d has %d inputs but %d outputs", l, len(X[l]), len(y[l]))
		}
	}
	switch cfg.Propagation {
	case MonteCarlo, GaussHermite, PlugIn:
	default:
		return nil, fmt.Errorf("mfgp: unknown propagation %d", cfg.Propagation)
	}
	gcfg := gp.Config{
		Kernel: kernel.NewSEARD(len(X[0][0])), Restarts: cfg.Restarts, MaxIter: cfg.MaxIter,
		FixedNoise: cfg.FixedNoise, Inducing: cfg.Inducing, Workers: cfg.Workers, Span: cfg.Span,
	}
	base, err := gp.Fit(X[0], y[0], gcfg, rng)
	if err != nil {
		return nil, fmt.Errorf("mfgp: level 0 fit: %w", err)
	}
	m := NewMultiLevel(base, cfg.Propagation, cfg.NumSamples)
	for l := 1; l < len(X); l++ {
		gcfg.Kernel = nil
		if err := m.FitLevel(X[l], y[l], gcfg, rng); err != nil {
			return nil, fmt.Errorf("mfgp: level %d: %w", l, err)
		}
	}
	return m, nil
}

// Levels returns the number of fidelity levels.
func (m *MultiLevel) Levels() int { return len(m.models) }

// Dim returns the design-space dimensionality.
func (m *MultiLevel) Dim() int { return m.dim }

// Level returns the GP of fidelity level l (level 0 is over x, higher levels
// over the augmented input). Callers use it for per-level output scales and
// diagnostics; mutating it invalidates the chain.
func (m *MultiLevel) Level(l int) *gp.Model {
	if l < 0 || l >= len(m.models) {
		panic(fmt.Sprintf("mfgp: level %d out of range [0, %d)", l, len(m.models)))
	}
	return m.models[l]
}

// Hyper returns the per-level hyperparameter vectors, suitable for warm
// starting (gp.Config.WarmStart) the per-level fits of a later chain.
func (m *MultiLevel) Hyper() [][]float64 {
	out := make([][]float64, len(m.models))
	for l, g := range m.models {
		out[l] = g.Hyper()
	}
	return out
}

// AppendLevel folds one observation (x, y) at level l into the chain with a
// rank-1 Cholesky update instead of a refit. For l > 0 the augmented
// coordinate is computed from the CURRENT lower chain and then frozen — the
// standard streaming approximation: later appends to lower levels sharpen
// future augmentations but do not retroactively move this row. The periodic
// full refit of the maintenance schedule rebuilds all augmentations exactly.
func (m *MultiLevel) AppendLevel(l int, x []float64, y float64) error {
	if l < 0 || l >= len(m.models) {
		return fmt.Errorf("mfgp: append level %d out of range [0, %d)", l, len(m.models))
	}
	if len(x) != m.dim {
		return fmt.Errorf("mfgp: append point dim %d != %d", len(x), m.dim)
	}
	if l == 0 {
		return m.models[0].AppendObservation(x, y)
	}
	mu, _ := m.predictLevel(x, l-1, nil, nil)
	aug := append(append(make([]float64, 0, m.dim+1), x...), mu)
	return m.models[l].AppendObservation(aug, y)
}

// TruncateLevel drops level-l training rows beyond the first n — the
// retraction primitive for fantasy proposals. It restores the exact
// pre-append posterior of that level provided no OTHER level was appended to
// in between (an append at a lower level changes the augmentation of
// subsequent upper-level appends, which truncation of this level alone
// cannot undo).
func (m *MultiLevel) TruncateLevel(l, n int) error {
	if l < 0 || l >= len(m.models) {
		return fmt.Errorf("mfgp: truncate level %d out of range [0, %d)", l, len(m.models))
	}
	return m.models[l].Truncate(n)
}

// Predict returns the fused posterior at the target (highest) fidelity.
func (m *MultiLevel) Predict(x []float64) (mean, variance float64) {
	return m.predictLevel(x, len(m.models)-1, nil, nil)
}

// PredictLevel returns the fused posterior of fidelity level l (0-based).
func (m *MultiLevel) PredictLevel(x []float64, l int) (mean, variance float64) {
	return m.PredictLevelGrad(x, l, nil, nil)
}

// PredictLevelGrad is PredictLevel that also writes the gradients of the
// fused mean and variance with respect to x into dmean and dvar (len(x)
// each); nil dmean and dvar skip them. The returned mean and variance are
// bit-identical to PredictLevel's. Safe for concurrent use; allocates nothing
// in steady state.
func (m *MultiLevel) PredictLevelGrad(x []float64, l int, dmean, dvar []float64) (mean, variance float64) {
	if l < 0 || l >= len(m.models) {
		panic(fmt.Sprintf("mfgp: level %d out of range [0, %d)", l, len(m.models)))
	}
	return m.predictLevel(x, l, dmean, dvar)
}

// predictLevel propagates the posterior through levels 1..l with common
// random numbers (MonteCarlo), shared quadrature nodes (GaussHermite) or the
// plug-in mean, collapsing to (mean, variance) at each step — the sequential
// approximation used by recursive NARGP implementations. With dmean set, the
// level gradients ride along in the scratch's alternating buffers.
func (m *MultiLevel) predictLevel(x []float64, l int, dmean, dvar []float64) (float64, float64) {
	if l == 0 {
		return m.models[0].PredictLatentGrad(x, dmean, dvar)
	}
	sc, ok := m.predPool.Get().(*predictScratch)
	if !ok {
		sc = new(predictScratch) // node buffers grow on first use
	}
	var gm, gv, nm, nv []float64
	if dmean != nil {
		gm, gv, nm, nv = sc.levelGrads(len(x))
	}
	mu, va := m.models[0].PredictLatentGrad(x, gm, gv)
	for lev := 1; lev <= l; lev++ {
		if lev == l && dmean != nil {
			nm, nv = dmean, dvar
		}
		mu, va = propagate(m.models[lev], x, mu, va, gm, gv, m.prop, m.zs[lev-1], m.weights, sc, nm, nv)
		gm, gv, nm, nv = nm, nv, gm, gv
	}
	m.predPool.Put(sc)
	return mu, va
}

// PredictBatch evaluates Predict over many points, fanning the grid across
// up to workers goroutines (0 = default, 1 = serial). Every point is an
// independent pure function of the trained chain, so the output is
// bit-identical to the serial loop for any worker count.
func (m *MultiLevel) PredictBatch(xs [][]float64, workers int) (means, variances []float64) {
	means = make([]float64, len(xs))
	variances = make([]float64, len(xs))
	parallel.ForEach(parallel.Workers(workers), len(xs), func(i int) {
		means[i], variances[i] = m.Predict(xs[i])
	})
	return means, variances
}
