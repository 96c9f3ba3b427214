// Package gp implements exact Gaussian-process regression (§2.3 of the
// paper): zero-mean GPs with trainable kernels, observation-noise estimation,
// negative-log-marginal-likelihood training with analytic gradients and
// multi-restart L-BFGS, and posterior mean/variance prediction (eq. 4).
//
// Inputs and outputs are standardized internally (zero mean, unit variance
// per coordinate) so that the default hyperparameter bounds are meaningful
// for any problem scaling; predictions are mapped back automatically.
package gp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/optimize"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// Config controls model training. The zero value of optional fields selects
// sensible defaults.
type Config struct {
	// Kernel is the covariance function (required). The model owns the
	// kernel after Fit; pass a Clone if the caller needs to keep it.
	Kernel kernel.Kernel
	// Restarts is the number of random restarts for hyperparameter training
	// in addition to the default initialization (default 2).
	Restarts int
	// MaxIter bounds L-BFGS iterations per restart (default 100).
	MaxIter int
	// NoiseBounds are log-space bounds for log σ_n (default [-8, 1]).
	NoiseBounds [2]float64
	// FixedNoise, when non-nil, pins σ_n to the given value (in standardized
	// output units) instead of training it. Use a small value such as 1e-4
	// for noiseless computer experiments.
	FixedNoise *float64
	// NoStandardizeX disables input standardization (used by tests).
	NoStandardizeX bool
	// WarmStart, when non-nil, is used as the primary training start instead
	// of the default initialization — pass a previous fit's Hyper() to speed
	// up incremental refits. Its length must be NumHyper()+1 (kernel hypers
	// plus log-noise); the noise entry is ignored under FixedNoise.
	WarmStart []float64
	// SkipTraining keeps the WarmStart hyperparameters (or the kernel's
	// current ones when WarmStart is nil) without optimizing the NLML. The
	// BO loop uses it between periodic full refits: the covariance is
	// re-factorized with the new data but hyperparameters stay put.
	SkipTraining bool
	// Inducing, when positive and smaller than the training size, switches
	// the model to the opt-in low-rank (inducing-point / DTC) approximation:
	// hyperparameters are trained subset-of-data on Inducing strided points
	// and the posterior is the deterministic-training-conditional over that
	// set — O(n·m²) training, O(m) mean / O(m²) variance prediction, and
	// O(m²) incremental appends. Zero (the default) keeps the exact GP.
	Inducing int
	// Workers bounds the goroutines used for multi-restart training and
	// batched prediction: 0 selects parallel.DefaultWorkers(), 1 forces the
	// serial path, n > 1 uses up to n goroutines. Results are bit-identical
	// for every setting — restarts run on cloned kernels from pre-drawn
	// starting points and reduce in restart order.
	Workers int
	// Span, when non-nil, parents a "gp.fit" trace span around the training
	// run (annotated with the dataset size, restart bookkeeping and final
	// NLML). nil is a zero-allocation no-op and never changes results.
	Span *telemetry.Span
}

func (c *Config) defaults() error {
	if c.Kernel == nil {
		return errors.New("gp: Config.Kernel is required")
	}
	if c.Restarts < 0 {
		return fmt.Errorf("gp: negative restarts %d", c.Restarts)
	}
	if c.Restarts == 0 {
		c.Restarts = 2
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 100
	}
	if c.NoiseBounds == [2]float64{} {
		c.NoiseBounds = [2]float64{-8, 1}
	}
	return nil
}

// Model is a trained Gaussian-process regressor.
type Model struct {
	cfg  Config
	kern kernel.Kernel

	// Standardization parameters.
	xMean, xStd []float64
	yMean, yStd float64

	// Standardized training data.
	xs [][]float64
	ys []float64

	logNoise float64 // log σ_n in standardized output units

	chol  *linalg.Cholesky
	alpha []float64 // K⁻¹ y (standardized)
	nlml  float64
	info  FitInfo

	// lowRank, when non-nil, replaces chol/alpha with the inducing-point
	// approximation (Config.Inducing).
	lowRank *lowRankState

	// Incremental-maintenance scratch (AppendObservation / Truncate).
	rowBuf, diffBuf, solveBuf []float64

	// predPool holds *predictScratch buffers so that PredictLatent allocates
	// nothing in steady state even under concurrent batch prediction.
	predPool sync.Pool
}

// predictScratch is the per-goroutine buffer set for one posterior
// evaluation: the standardized query point, the cross-covariance row, the
// forward-solve vector, a difference vector for the kernel profile, and the
// profile itself (profiles carry scratch and must not be shared across
// goroutines). When the profile is the eq. (9) kernel, nargp holds it split
// into factors and k2/k3 the design-only kernel rows PredictLatentAugmented reuses across
// nodes; aug is the augmented point of its per-node fallback. The gradient
// path adds the variance weights u, the per-node k1 row, the design
// differences dx (rows × d), and per-coordinate accumulators.
type predictScratch struct {
	x, ks, v, diff, aug []float64
	prof                kernel.PairProfile
	nargp               *kernel.NARGPProfile // nil for SE-ARD
	k2, k3              []float64
	u, k1, dx           []float64
	gm, gv, am, av, a3  []float64
}

func (m *Model) getPredictScratch() *predictScratch {
	if sc, ok := m.predPool.Get().(*predictScratch); ok {
		return sc
	}
	d := len(m.xMean)
	sc := &predictScratch{
		x:    make([]float64, d),
		diff: make([]float64, d),
		aug:  make([]float64, d),
		gm:   make([]float64, d),
		gv:   make([]float64, d),
		am:   make([]float64, d),
		av:   make([]float64, d),
		a3:   make([]float64, d),
		prof: m.kern.Profile(),
	}
	sc.nargp, _ = sc.prof.(*kernel.NARGPProfile)
	sc.grow(len(m.xs))
	return sc
}

// grow sizes the per-row buffers for n kernel rows; incremental appends can
// outgrow pooled buffers sized at fit time.
func (sc *predictScratch) grow(n int) {
	if len(sc.ks) >= n {
		return
	}
	sc.ks = make([]float64, n)
	sc.v = make([]float64, n)
	sc.u = make([]float64, n)
	if sc.nargp != nil {
		sc.k1 = make([]float64, n)
		sc.k2 = make([]float64, n)
		sc.k3 = make([]float64, n)
		sc.dx = make([]float64, n*sc.nargp.Dim)
	}
}

// Fit trains a GP on the dataset (X, y). Hyperparameters are obtained by
// minimizing the NLML (eq. 3) with analytic gradients, multi-restarted from
// random initializations drawn with rng.
func Fit(X [][]float64, y []float64, cfg Config, rng *rand.Rand) (*Model, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	n := len(X)
	if n == 0 {
		return nil, errors.New("gp: empty training set")
	}
	if len(y) != n {
		return nil, fmt.Errorf("gp: %d inputs but %d observations", n, len(y))
	}
	d := len(X[0])
	if cfg.Kernel.Dim() != d {
		return nil, fmt.Errorf("gp: kernel dim %d != input dim %d", cfg.Kernel.Dim(), d)
	}
	span := cfg.Span.Child("gp.fit")
	defer span.End()
	span.Attr("n", float64(n))
	span.Attr("dim", float64(d))
	m := &Model{cfg: cfg, kern: cfg.Kernel}
	m.standardize(X, y)

	if cfg.Inducing > 0 && cfg.Inducing < n {
		span.Attr("inducing", float64(cfg.Inducing))
		if err := m.fitLowRank(rng); err != nil {
			span.Attr("failed", 1)
			return nil, err
		}
		span.Attr("evals", float64(m.info.Evals))
		span.Attr("nlml", m.nlml)
		return m, nil
	}

	nk := m.kern.NumHyper()
	nTotal := nk
	trainNoise := cfg.FixedNoise == nil
	if trainNoise {
		nTotal++
	} else {
		m.logNoise = math.Log(math.Max(*cfg.FixedNoise, 1e-10))
	}

	if cfg.SkipTraining {
		if trainNoise {
			m.logNoise = math.Log(1e-2)
		}
		if len(cfg.WarmStart) >= nk {
			m.kern.SetHyper(cfg.WarmStart[:nk])
			if trainNoise && len(cfg.WarmStart) > nk {
				m.logNoise = clamp(cfg.WarmStart[nk], cfg.NoiseBounds[0], cfg.NoiseBounds[1])
			}
		}
		if err := m.factorize(); err != nil {
			return nil, err
		}
		m.info = FitInfo{SkippedTraining: true}
		span.Attr("skipped", 1)
		span.Attr("nlml", m.nlml)
		return m, nil
	}

	loK, hiK := kernel.BoundsVectors(m.kern)
	// Pre-draw every starting point serially so the rng stream is consumed in
	// the same order regardless of the worker count. Start 0 is the default
	// initialization (zeros: unit amplitude/length scales, modest noise) or
	// the caller's warm start; the rest are random restarts.
	starts := make([][]float64, 1+cfg.Restarts)
	start := make([]float64, nTotal)
	if trainNoise {
		start[nk] = math.Log(1e-2)
	}
	if len(cfg.WarmStart) >= nk {
		copy(start[:nk], cfg.WarmStart[:nk])
		if trainNoise && len(cfg.WarmStart) > nk {
			start[nk] = clamp(cfg.WarmStart[nk], cfg.NoiseBounds[0], cfg.NoiseBounds[1])
		}
	}
	starts[0] = start
	for r := 0; r < cfg.Restarts; r++ {
		theta0 := make([]float64, nTotal)
		for j := 0; j < nk; j++ {
			theta0[j] = loK[j] + rng.Float64()*(hiK[j]-loK[j])*0.5 + 0.25*(hiK[j]-loK[j])
		}
		if trainNoise {
			lo, hi := cfg.NoiseBounds[0], cfg.NoiseBounds[1]
			theta0[nk] = lo + rng.Float64()*(hi-lo)
		}
		starts[1+r] = theta0
	}

	// Geometry cache: the pairwise difference tensor is computed once and
	// shared read-only by every restart and every L-BFGS iteration.
	geo := newPairGeo(m.xs)

	// Run every restart's L-BFGS concurrently on per-worker workspaces with
	// cloned kernels. Task i writes only results[i]; the argmin reduction
	// below runs in restart order, so the selected optimum is identical to
	// the serial schedule for any worker count.
	type fitResult struct {
		f     float64
		x     []float64
		evals int
	}
	results := make([]fitResult, len(starts))
	workers := parallel.Workers(cfg.Workers)
	if workers > len(starts) {
		workers = len(starts)
	}
	wss := make([]*fitWorkspace, workers)
	for w := range wss {
		wss[w] = newFitWorkspace(m.kern, geo, m.xs, m.ys)
	}
	fixedLogNoise := m.logNoise
	parallel.ForEachWorker(workers, len(starts), func(w, idx int) {
		ws := wss[w]
		// Objective over the packed hyper vector [kernel hypers..., logNoise?].
		obj := func(theta, grad []float64) float64 {
			ws.kern.SetHyper(theta[:nk])
			if trainNoise {
				ws.logNoise = clamp(theta[nk], cfg.NoiseBounds[0], cfg.NoiseBounds[1])
			} else {
				ws.logNoise = fixedLogNoise
			}
			v, g, err := ws.nlmlGrad()
			if err != nil {
				for i := range grad {
					grad[i] = 0
				}
				return math.Inf(1)
			}
			copy(grad, g[:len(grad)])
			return v
		}
		r := optimize.LBFGS(obj, starts[idx], optimize.LBFGSConfig{MaxIter: cfg.MaxIter})
		results[idx] = fitResult{f: r.F, x: r.X, evals: r.Evals}
	})
	bestTheta := make([]float64, nTotal)
	bestNLML := math.Inf(1)
	info := FitInfo{Restarts: len(starts)}
	for i, r := range results {
		info.Evals += r.evals
		if math.IsNaN(r.f) || math.IsInf(r.f, 1) {
			info.Diverged++
		}
		// Selection is exactly the pre-telemetry rule (strict <, NaN
		// excluded), so recording FitInfo cannot change which start wins.
		if r.f < bestNLML && !math.IsNaN(r.f) {
			bestNLML = r.f
			info.BestStart = i
			copy(bestTheta, r.x)
		}
	}
	if math.IsInf(bestNLML, 1) {
		span.Attr("failed", 1)
		return nil, errors.New("gp: training failed from every restart")
	}
	m.kern.SetHyper(bestTheta[:nk])
	if trainNoise {
		m.logNoise = clamp(bestTheta[nk], cfg.NoiseBounds[0], cfg.NoiseBounds[1])
	}
	if err := m.factorize(); err != nil {
		return nil, err
	}
	m.info = info
	span.Attr("restarts", float64(info.Restarts))
	span.Attr("diverged", float64(info.Diverged))
	span.Attr("evals", float64(info.Evals))
	span.Attr("nlml", m.nlml)
	return m, nil
}

// FitInfo summarizes the hyperparameter-training bookkeeping of one Fit:
// how many L-BFGS starts ran, how many NLML+gradient evaluations they made
// in total, how many diverged to a non-finite NLML, and which start won.
// SkippedTraining marks warm-hyperparameter refits that bypassed
// optimization entirely (Config.SkipTraining).
type FitInfo struct {
	Restarts        int // starting points run (default/warm start included)
	Evals           int // NLML+gradient evaluations over every start
	Diverged        int // starts whose NLML ended non-finite
	BestStart       int // winning start index (0 = default/warm start)
	SkippedTraining bool
	LowRank         bool // inducing-point approximation active
}

// FitInfo returns the training bookkeeping recorded by Fit.
func (m *Model) FitInfo() FitInfo { return m.info }

// standardize stores standardization parameters and the transformed data.
func (m *Model) standardize(X [][]float64, y []float64) {
	n, d := len(X), len(X[0])
	m.xMean = make([]float64, d)
	m.xStd = make([]float64, d)
	for j := 0; j < d; j++ {
		s := 0.0
		for i := 0; i < n; i++ {
			s += X[i][j]
		}
		mu := s / float64(n)
		ss := 0.0
		for i := 0; i < n; i++ {
			dv := X[i][j] - mu
			ss += dv * dv
		}
		sd := math.Sqrt(ss / float64(n))
		if sd < 1e-12 || m.cfg.NoStandardizeX {
			mu, sd = 0, 1
		}
		m.xMean[j], m.xStd[j] = mu, sd
	}
	sy := 0.0
	for _, v := range y {
		sy += v
	}
	m.yMean = sy / float64(n)
	ssy := 0.0
	for _, v := range y {
		dv := v - m.yMean
		ssy += dv * dv
	}
	m.yStd = math.Sqrt(ssy / float64(n))
	if m.yStd < 1e-12 {
		m.yStd = 1
	}
	m.xs = make([][]float64, n)
	for i := range X {
		m.xs[i] = m.toStdX(X[i])
	}
	m.ys = make([]float64, n)
	for i, v := range y {
		m.ys[i] = (v - m.yMean) / m.yStd
	}
}

func (m *Model) toStdX(x []float64) []float64 {
	out := make([]float64, len(x))
	m.toStdXInto(x, out)
	return out
}

func (m *Model) toStdXInto(x, out []float64) {
	for j := range x {
		out[j] = (x[j] - m.xMean[j]) / m.xStd[j]
	}
}

// factorize builds the Cholesky of K + σ_n²I and the alpha vector for the
// current hyperparameters, using the kernel's pair profile (hyperparameter
// transcendentals hoisted out of the O(n²) loop).
func (m *Model) factorize() error {
	n := len(m.xs)
	K := linalg.NewMatrix(n, n)
	noise2 := math.Exp(2 * m.logNoise)
	prof := m.kern.Profile()
	diff := make([]float64, m.kern.Dim())
	for i := 0; i < n; i++ {
		xi := m.xs[i]
		for j := i; j < n; j++ {
			xj := m.xs[j]
			for t := range diff {
				diff[t] = xi[t] - xj[t]
			}
			v := prof.Eval(diff)
			K.Set(i, j, v)
			K.Set(j, i, v)
		}
		K.Add(i, i, noise2)
	}
	chol, err := linalg.NewCholesky(K)
	if err != nil {
		return fmt.Errorf("gp: covariance factorization: %w", err)
	}
	m.chol = chol
	m.alpha = chol.SolveVec(m.ys)
	m.nlml = 0.5*linalg.Dot(m.ys, m.alpha) + 0.5*chol.LogDet() + 0.5*float64(n)*math.Log(2*math.Pi)
	return nil
}

// nlmlGrad evaluates the NLML and its gradient at the model's current kernel
// hyperparameters and noise. Fit uses per-restart workspaces directly; this
// entry point serves gradient-check tests and one-off evaluations.
func (m *Model) nlmlGrad() (float64, []float64, error) {
	ws := newFitWorkspace(m.kern, newPairGeo(m.xs), m.xs, m.ys)
	ws.kern = m.kern // evaluate the live kernel, not a clone
	ws.logNoise = m.logNoise
	return ws.nlmlGrad()
}

// Predict returns the posterior predictive mean and variance at x, including
// observation noise (first line of eq. 4 plus σ_n², matching the paper).
func (m *Model) Predict(x []float64) (mean, variance float64) {
	mean, variance = m.PredictLatent(x)
	variance += math.Exp(2*m.logNoise) * m.yStd * m.yStd
	return mean, variance
}

// PredictLatent returns the posterior mean and variance of the latent
// function value f(x), excluding observation noise. It is safe for
// concurrent use and allocates nothing in steady state: all buffers (and the
// kernel's pair profile) come from a per-model sync.Pool.
func (m *Model) PredictLatent(x []float64) (mean, variance float64) {
	return m.PredictLatentGrad(x, nil, nil)
}

// PredictLatentGrad is PredictLatent that also writes the gradients of the
// latent mean and variance with respect to x into dmean and dvar (len(x)
// each); nil dmean and dvar skip the gradient. The returned mean and
// variance are bit-identical to PredictLatent's. With the posterior weights
// α = K⁻¹y and u = K⁻¹k(x) (one extra triangular solve),
//
//	∂µ/∂x = ∂kᵀα,   ∂σ²/∂x = −2uᵀ∂k,
//
// and on the low-rank path u = K_mm⁻¹k_m − Σ⁻¹k_m. A variance clamped at
// zero has a zero gradient. Gradients need an SE-ARD kernel (the eq. (9)
// kernel is served by PredictLatentAugmentedGrad).
func (m *Model) PredictLatentGrad(x, dmean, dvar []float64) (mean, variance float64) {
	sc := m.getPredictScratch()
	mean, variance = m.predictLatentInto(x, sc, dmean, dvar)
	m.predPool.Put(sc)
	return mean, variance
}

func (m *Model) predictLatentInto(x []float64, sc *predictScratch, dmean, dvar []float64) (mean, variance float64) {
	m.toStdXInto(x, sc.x)
	rows := m.kernelRows()
	sc.grow(len(rows))
	ks := sc.ks[:len(rows)]
	diff := sc.diff
	for i, xi := range rows {
		for t := range diff {
			diff[t] = sc.x[t] - xi[t]
		}
		ks[i] = sc.prof.Eval(diff)
	}
	for t := range diff {
		diff[t] = 0
	}
	kss := sc.prof.Eval(diff)
	mean, variance = m.posterior(ks, kss, sc.v)
	if dmean != nil {
		m.seGrad(rows, ks, sc, variance == 0, dmean, dvar)
	}
	return mean, variance
}

// PredictLatentAugmented evaluates PredictLatent at the augmented points
// (x, fs[s]) for every s, writing means[s] and variances[s]; x holds every
// input coordinate but the last. This is eq. (10)'s propagation through the
// high-fidelity GP. When the kernel is the eq. (9) kernel (kernel.NARGP),
// the design-only factors k2 and k3 are evaluated once for x and only k1
// once per node, so each extra node costs n one-dimensional kernel
// evaluations plus the O(n²) solve instead of n full kernel evaluations.
// Results are bit-identical to per-node PredictLatent, which an SE-ARD
// kernel over the augmented input runs. Safe for concurrent use; allocates
// nothing in steady state.
func (m *Model) PredictLatentAugmented(x, fs, means, variances []float64) {
	m.PredictLatentAugmentedGrad(x, fs, nil, means, variances, nil, nil)
}

// PredictLatentAugmentedGrad is PredictLatentAugmented plus, per node s, the
// total gradients of means[s] and variances[s] with respect to the design
// point x when the node itself moves with x as ∂f_s/∂x = dfs[s·d:(s+1)·d]:
//
//	dmeans[s·d+t] = ∂µ/∂x_t + ∂µ/∂f · ∂f_s/∂x_t
//
// and likewise dvars. nil dfs, dmeans and dvars skip the gradients; the
// values are bit-identical either way. On the eq. (9) kernel the design-only
// rows k2, k3, the design differences and the mean's k3 term are computed
// once per point; each node adds its k1 row, one triangular solve and O(n·d)
// accumulations. Gradients need SE-ARD factors.
func (m *Model) PredictLatentAugmentedGrad(x, fs, dfs, means, variances, dmeans, dvars []float64) {
	d := len(x)
	if d+1 != len(m.xMean) {
		panic(fmt.Sprintf("gp: augmented prediction over %d+1 inputs on a %d-input model", d, len(m.xMean)))
	}
	sc := m.getPredictScratch()
	defer m.predPool.Put(sc)
	if sc.nargp == nil {
		var am, av []float64 // full-input gradients of one node
		if dmeans != nil {
			am, av = sc.am, sc.av
		}
		copy(sc.aug, x)
		for s, f := range fs {
			sc.aug[d] = f
			means[s], variances[s] = m.predictLatentInto(sc.aug, sc, am, av)
			if am != nil {
				chainNode(am, av, dfs[s*d:(s+1)*d], dmeans[s*d:(s+1)*d], dvars[s*d:(s+1)*d])
			}
		}
		return
	}
	for t := 0; t < d; t++ {
		sc.x[t] = (x[t] - m.xMean[t]) / m.xStd[t]
	}
	rows := m.kernelRows()
	n := len(rows)
	sc.grow(n)
	ks, k1, k2, k3 := sc.ks[:n], sc.k1[:n], sc.k2[:n], sc.k3[:n]
	sp := sc.nargp
	dx, df := sc.diff[:d], sc.diff[d:]
	for i, xi := range rows {
		for t := range dx {
			dx[t] = sc.x[t] - xi[t]
		}
		k2[i] = sp.K2.Eval(dx)
		k3[i] = sp.K3.Eval(dx)
		if dmeans != nil {
			copy(sc.dx[i*d:(i+1)*d], dx)
		}
	}
	for t := range sc.diff {
		sc.diff[t] = 0
	}
	// The conversions keep the products rounded exactly as the whole
	// profile's Eval rounds them (no fused multiply-add).
	kss := float64(sp.K1.Eval(df)*sp.K2.Eval(dx)) + sp.K3.Eval(dx)
	var g nargpGrad
	if dmeans != nil {
		g = m.nargpGradFor(sc, n, d)
	}
	for s, f := range fs {
		sf := (f - m.xMean[d]) / m.xStd[d]
		for i, xi := range rows {
			df[0] = sf - xi[d]
			k1[i] = sp.K1.Eval(df)
			ks[i] = float64(k1[i]*k2[i]) + k3[i]
		}
		means[s], variances[s] = m.posterior(ks, kss, sc.v)
		if dmeans != nil {
			g.node(m, sc, rows, sf, variances[s] == 0, dfs[s*d:(s+1)*d], dmeans[s*d:(s+1)*d], dvars[s*d:(s+1)*d])
		}
	}
}

// kernelRows returns the standardized inputs a posterior's cross-covariance
// row runs over: the training set, or the inducing set on the low-rank path.
func (m *Model) kernelRows() [][]float64 {
	if m.lowRank != nil {
		return m.lowRank.zs
	}
	return m.xs
}

// posterior turns the cross-covariance row ks over kernelRows and the prior
// variance kss into the latent posterior mean and variance in output units;
// v is forward-solve scratch at least as long as ks.
func (m *Model) posterior(ks []float64, kss float64, v []float64) (mean, variance float64) {
	if m.lowRank != nil {
		return m.lowRank.posterior(m, ks, kss, v)
	}
	mu := linalg.Dot(ks, m.alpha)
	v = v[:len(ks)]
	m.chol.ForwardSolveInto(ks, v)
	va := kss - linalg.Dot(v, v)
	if va < 0 {
		va = 0
	}
	return m.yMean + m.yStd*mu, va * m.yStd * m.yStd
}

// PredictBatch evaluates PredictLatent over many points, fanning the grid
// across the model's configured worker count. Each point's result depends
// only on that point and the immutable trained model, so the output is
// bit-identical to the serial loop for any worker count.
func (m *Model) PredictBatch(xs [][]float64) (means, variances []float64) {
	means = make([]float64, len(xs))
	variances = make([]float64, len(xs))
	parallel.ForEach(parallel.Workers(m.cfg.Workers), len(xs), func(i int) {
		means[i], variances[i] = m.PredictLatent(xs[i])
	})
	return means, variances
}

// NLML returns the trained model's negative log marginal likelihood.
func (m *Model) NLML() float64 { return m.nlml }

// OutputStd returns the output standardization scale. Dividing a predictive
// variance by OutputStd()² expresses it in standardized units — the scale on
// which the paper's fidelity-selection threshold γ = 0.01 is meaningful
// across problems.
func (m *Model) OutputStd() float64 { return m.yStd }

// Kernel exposes the trained kernel (owned by the model; treat as read-only).
func (m *Model) Kernel() kernel.Kernel { return m.kern }

// TrainingSize returns the number of training points.
func (m *Model) TrainingSize() int { return len(m.xs) }

// Hyper returns the packed trained hyperparameters (kernel log-hypers
// followed by log-noise) — useful for warm-starting refits.
func (m *Model) Hyper() []float64 {
	h := kernel.HyperVector(m.kern)
	return append(h, m.logNoise)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
