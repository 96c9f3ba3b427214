package mfgp

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/gp"
	"repro/internal/kernel"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// MultiLevel generalizes the paper's two-fidelity model to L ≥ 2 fidelity
// levels with the recursive NARGP scheme of Perdikaris et al. (2017):
// level 0 is a plain GP over x, and every level ℓ > 0 is a GP over the
// augmented input (x, f̂_{ℓ−1}(x)) with the structured kernel of eq. (9).
// The paper restricts itself to two levels (§3); this type backs the
// fidelity-ladder engine (K > 2 rungs) the introduction motivates ("we can
// always carry out the circuit simulation at different precision levels").
// For L = 2 with identical hyperparameters and propagation it reproduces the
// two-fidelity Model's fused posterior (see TestMultiLevelMatchesNARGP).
type MultiLevel struct {
	models  []*gp.Model // models[0] over x, models[ℓ>0] over (x, prev)
	dim     int
	zs      [][]float64 // propagation nodes per fused level
	weights []float64   // quadrature weights (GaussHermite); nil for MC
	prop    Propagation

	// predPool recycles *PredictScratch so Predict allocates nothing in
	// steady state.
	predPool sync.Pool
}

// MultiLevelConfig tunes multi-level training.
type MultiLevelConfig struct {
	// Restarts / MaxIter / FixedNoise forward to gp.Fit at every level.
	Restarts, MaxIter int
	FixedNoise        *float64
	// Propagation selects how each level's posterior is pushed through the
	// next: MonteCarlo (default), GaussHermite or PlugIn — the same modes as
	// the two-fidelity Model.
	Propagation Propagation
	// NumSamples is the propagation cloud size per fused level (default 50
	// for MonteCarlo — matching the two-fidelity Model — or 20 nodes for
	// GaussHermite; ignored by PlugIn).
	NumSamples int
	// WarmStarts, when non-nil, supplies per-level hyperparameter starts
	// (WarmStarts[l] forwards to gp.Config.WarmStart for level l; nil
	// entries fall back to the default start).
	WarmStarts [][]float64
	// SkipTraining keeps warm-start hyperparameters without optimizing, per
	// level, for every level that has a WarmStarts entry. It is the
	// fit-skipping fast path of the incremental maintenance schedule.
	SkipTraining bool
	// TrainTarget exempts the top (target) level from SkipTraining: its
	// training set is the smallest and the two-fidelity engine always
	// retrains it between full refits, so the K=2 chain must too to stay
	// bit-compatible.
	TrainTarget bool
	// Inducing forwards to gp.Config.Inducing at every level.
	Inducing int
	// Workers forwards to gp.Config.Workers at every level (0 = default,
	// 1 = serial); results are bit-identical for every setting.
	Workers int
	// Span, when non-nil, parents the per-level gp.fit trace spans.
	Span *telemetry.Span
}

// levelGPConfig assembles the gp.Config for one of levels levels.
func (cfg MultiLevelConfig) levelGPConfig(l, levels, d int) gp.Config {
	k := kernel.Kernel(kernel.NewSEARD(d))
	if l > 0 {
		k = kernel.NewNARGP(d)
	}
	g := gp.Config{
		Kernel: k, Restarts: cfg.Restarts, MaxIter: cfg.MaxIter,
		FixedNoise: cfg.FixedNoise, Inducing: cfg.Inducing,
		Workers: cfg.Workers, Span: cfg.Span,
	}
	if cfg.WarmStarts != nil && l < len(cfg.WarmStarts) && cfg.WarmStarts[l] != nil {
		g.WarmStart = cfg.WarmStarts[l]
		g.SkipTraining = cfg.SkipTraining && !(cfg.TrainTarget && l == levels-1)
	}
	return g
}

// FitMultiLevel trains the recursive model on per-level datasets ordered
// from cheapest (X[0], y[0]) to the target fidelity (X[L−1], y[L−1]).
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
	d := len(X[0][0])
	m := &MultiLevel{dim: d, prop: cfg.Propagation}
	var ghNodes, ghWeights []float64
	switch cfg.Propagation {
	case GaussHermite:
		n := cfg.NumSamples
		if n <= 0 {
			n = 20
		}
		ghNodes, ghWeights = stats.GaussHermite(n)
		m.weights = ghWeights
	case PlugIn, MonteCarlo:
	default:
		return nil, fmt.Errorf("mfgp: unknown propagation %d", cfg.Propagation)
	}
	// Level 0: plain GP.
	base, err := gp.Fit(X[0], y[0], cfg.levelGPConfig(0, len(X), d), rng)
	if err != nil {
		return nil, fmt.Errorf("mfgp: level 0 fit: %w", err)
	}
	m.models = append(m.models, base)
	// Levels 1..L−1: augment with the previous level's fused posterior mean.
	// The propagation cloud for a level is drawn AFTER its GP is trained —
	// building the augmented design only reads the nodes of levels below —
	// so with L = 2 the rng stream is consumed in exactly the order of the
	// two-fidelity gp.Fit + FitWithLow pair (bit-compatible trajectories).
	for l := 1; l < len(X); l++ {
		if len(X[l][0]) != d {
			return nil, fmt.Errorf("mfgp: level %d input dim %d != %d", l, len(X[l][0]), d)
		}
		Xaug := make([][]float64, len(X[l]))
		for i, x := range X[l] {
			mu, _ := m.predictLevel(x, l-1)
			Xaug[i] = append(append(make([]float64, 0, d+1), x...), mu)
		}
		model, err := gp.Fit(Xaug, y[l], cfg.levelGPConfig(l, len(X), d), rng)
		if err != nil {
			return nil, fmt.Errorf("mfgp: level %d fit: %w", l, err)
		}
		m.models = append(m.models, model)
		switch cfg.Propagation {
		case MonteCarlo:
			n := cfg.NumSamples
			if n <= 0 {
				n = 50
			}
			zs := make([]float64, n)
			for i := range zs {
				zs[i] = rng.NormFloat64()
			}
			m.zs = append(m.zs, zs)
		case GaussHermite:
			m.zs = append(m.zs, ghNodes)
		case PlugIn:
			m.zs = append(m.zs, nil)
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

// LevelSize returns the training-set size of level l.
func (m *MultiLevel) LevelSize(l int) int { return m.Level(l).TrainingSize() }

// Hyper returns the per-level hyperparameter vectors, suitable for warm
// starting a later FitMultiLevel via MultiLevelConfig.WarmStarts.
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
// same streaming approximation as the two-fidelity AppendHigh: later appends
// to lower levels sharpen future augmentations but do not retroactively move
// this row. The periodic full refit of the maintenance schedule rebuilds all
// augmentations exactly.
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
	mu, _ := m.predictLevel(x, l-1)
	aug := append(append(make([]float64, 0, m.dim+1), x...), mu)
	return m.models[l].AppendObservation(aug, y)
}

// TruncateLevel drops level-l training rows beyond the first n — the
// retraction primitive for ladder fantasy proposals. Like the two-fidelity
// TruncateHigh it restores the exact pre-append posterior of that level
// provided no OTHER level was appended to in between (an append at a lower
// level changes the augmentation of subsequent upper-level appends, which
// truncation of this level alone cannot undo).
func (m *MultiLevel) TruncateLevel(l, n int) error {
	if l < 0 || l >= len(m.models) {
		return fmt.Errorf("mfgp: truncate level %d out of range [0, %d)", l, len(m.models))
	}
	return m.models[l].Truncate(n)
}

// Predict returns the fused posterior at the target (highest) fidelity.
func (m *MultiLevel) Predict(x []float64) (mean, variance float64) {
	return m.predictLevel(x, len(m.models)-1)
}

// PredictLevel returns the fused posterior of fidelity level l (0-based).
func (m *MultiLevel) PredictLevel(x []float64, l int) (mean, variance float64) {
	if l < 0 || l >= len(m.models) {
		panic(fmt.Sprintf("mfgp: level %d out of range [0, %d)", l, len(m.models)))
	}
	return m.predictLevel(x, l)
}

// predictLevel propagates the posterior through levels 1..l with common
// random numbers (MonteCarlo), shared quadrature nodes (GaussHermite) or the
// plug-in mean, collapsing to (mean, variance) at each step — the sequential
// approximation used by recursive NARGP implementations.
func (m *MultiLevel) predictLevel(x []float64, l int) (float64, float64) {
	mu, va := m.models[0].PredictLatent(x)
	if l == 0 {
		return mu, va
	}
	sc, ok := m.predPool.Get().(*PredictScratch)
	if !ok {
		sc = new(PredictScratch) // node buffers grow on first use
	}
	for lev := 1; lev <= l; lev++ {
		mu, va = propagate(m.models[lev], x, mu, va, m.prop, m.zs[lev-1], m.weights, sc)
	}
	m.predPool.Put(sc)
	return mu, va
}
