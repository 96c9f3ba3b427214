// Surrogate fitting and proposals over the fidelity ladder: the form of
// Algorithm 1 where the low/high fidelity pair becomes an ordered ladder of
// K ≥ 2 simulation accuracies. Per output the surrogate is the recursive
// NARGP chain (mfgp.MultiLevel) — for the paper's K = 2 the two-fidelity
// fusion model — and the §3.4 fidelity switch generalizes to a cost-weighted
// rung selector that evaluates at the cheapest rung still carrying useful
// information per unit cost, and falls through to the target rung when every
// cheaper posterior is already resolved. With K = 2 every step reduces to the
// paper's two-fidelity rule exactly.
package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/acq"
	"repro/internal/gp"
	"repro/internal/kernel"
	"repro/internal/mfgp"
	"repro/internal/optimize"
	"repro/internal/problem"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// rungDecision is the outcome of one generalized §3.4 rung selection.
type rungDecision struct {
	rung      int
	sigma2Max float64   // max standardized sub-target chain variance at x
	threshold float64   // (1+Nc)·γ
	vars      []float64 // standardized chain variance per sub-target rung
	hasSigma2 bool
	forced    bool
}

// chooseRung generalizes the §3.4 two-fidelity criterion to a K-rung ladder.
// vars[r] is the maximum (over outputs) standardized posterior variance of
// the chain at rung r < K-1; costs are the ladder's per-rung γ_k. The target
// rung is selected when every sub-target variance is below the paper's
// threshold (1+Nc)·γ — more cheap data would not sharpen any cheaper level.
// Otherwise the evaluation goes to the under-resolved rung with the best
// variance per unit cost (ties to the cheaper rung).
//
// With K = 2 this is exactly the paper's rule: vars = [σ²_l,max], and the
// decision degenerates to "HIGH iff σ²_l,max < (1+Nc)·γ"
// (TestChooseRungMatchesSelectFidelity pins the equivalence).
func chooseRung(vars, costs []float64, nc int, gamma float64) rungDecision {
	target := len(costs) - 1
	threshold := (1 + float64(nc)) * gamma
	maxVar := 0.0
	for _, v := range vars {
		if v > maxVar {
			maxVar = v
		}
	}
	dec := rungDecision{
		rung:      target,
		sigma2Max: maxVar,
		threshold: threshold,
		vars:      vars,
		hasSigma2: true,
	}
	if maxVar < threshold {
		return dec
	}
	bestScore := math.Inf(-1)
	for r, v := range vars {
		if v < threshold {
			continue
		}
		if score := v / costs[r]; score > bestScore {
			bestScore = score
			dec.rung = r
		}
	}
	return dec
}

// ladderCache holds the fitted per-output chains served between full
// refits (Config.Incremental), extended in place with per-level rank-1
// updates, together with the dataset coordinates they cover so extensions
// and retractions line up.
type ladderCache struct {
	chains []*mfgp.MultiLevel

	lowStart int   // window start of the rung-0 training view at fit time
	counts   []int // rows folded per rung (rung 0 window-relative)

	// Per-point NLML of the level-0 and target-level GPs at the last full
	// refit, for the early-refit degradation trigger.
	baseLow, baseTop []float64
}

var errCacheUnusable = errors.New("core: surrogate cache unusable")

func perPointNLML(m *gp.Model) float64 {
	if n := m.TrainingSize(); n > 0 {
		return m.NLML() / float64(n)
	}
	return 0
}

// fitLadder trains one recursive chain per output: level 0 with gp.Fit on
// the (windowed) rung-0 data, then one fused level per higher rung through
// mfgp's per-level step. Failures degrade level by level: (1) a failed level
// is refit with its previous hyperparameters frozen; (2) a fused level that
// still fails drops the output to the level-0 GP it already trained (a
// one-level chain) for this iteration; (3) a level-0 failure leaves no
// usable surrogate — the iteration explores randomly (ok=false).
func (st *state) fitLadder(iter int, fullRefit bool, span *telemetry.Span) (chains []*mfgp.MultiLevel, ok bool) {
	cfg := &st.cfg
	target := st.ladder.Target()
	lowX, lowView := st.low.window(cfg.MaxLowData)
	chains = make([]*mfgp.MultiLevel, st.nOut)
	for k := 0; k < st.nOut; k++ {
		if st.warm[k] == nil {
			st.warm[k] = make([][]float64, target+1)
		}
		warm := st.warm[k]
		levelCfg := func(r int, frozen bool) gp.Config {
			return gp.Config{
				Restarts:     cfg.GPRestarts,
				MaxIter:      cfg.GPMaxIter,
				FixedNoise:   cfg.FixedNoise,
				WarmStart:    warm[r],
				SkipTraining: frozen,
				Inducing:     cfg.LowRankAfter,
				Workers:      cfg.Workers,
				Span:         span,
			}
		}
		fitLow := func(frozen bool) (*gp.Model, error) {
			c := levelCfg(0, frozen)
			c.Kernel = kernel.NewSEARD(st.d)
			return gp.Fit(lowX, lowView.column(k), c, st.rng)
		}
		lm, err := fitLow(!fullRefit && warm[0] != nil)
		if err != nil && warm[0] != nil {
			if frozen, err2 := fitLow(true); err2 == nil {
				st.degrade(iter, DegradeWarmHypers, k, fmt.Errorf("low fit: %w", err))
				lm, err = frozen, nil
			}
		}
		if err != nil {
			st.degrade(iter, DegradeRandom, k, fmt.Errorf("low fit: %w", err))
			return nil, false
		}
		warm[0] = lm.Hyper()
		st.noteFit(iter, lm, false)

		chain := mfgp.NewMultiLevel(lm, cfg.Propagation, cfg.NumSamples)
		for r := 1; r <= target; r++ {
			ds := st.ds(r)
			fitLevel := func(frozen bool) error {
				return chain.FitLevel(ds.X, ds.column(k), levelCfg(r, frozen), st.rng)
			}
			// Between full refits only the sub-target levels freeze; the
			// small target-level GP always retrains.
			err := fitLevel(!fullRefit && warm[r] != nil && r < target)
			if err != nil && warm[r] != nil {
				if err2 := fitLevel(true); err2 == nil {
					st.degrade(iter, DegradeWarmHypers, k, fmt.Errorf("fusion fit: %w", err))
					err = nil
				}
			}
			if err != nil {
				st.degrade(iter, DegradeLowOnly, k, fmt.Errorf("fusion fit: %w", err))
				chain = mfgp.NewMultiLevel(lm, cfg.Propagation, cfg.NumSamples)
				break
			}
			warm[r] = chain.Level(r).Hyper()
		}
		if chain.Levels() > target {
			st.noteFit(iter, chain.Level(target), true)
		}
		chains[k] = chain
	}
	return chains, true
}

// incrementalLadder serves one proposal's chains: extend the cache with
// per-level rank-1 updates when the schedule allows, otherwise refit and
// rebuild the cache. skipped reports which path ran.
func (st *state) incrementalLadder(iter int, span *telemetry.Span) (chains []*mfgp.MultiLevel, ok, skipped bool) {
	cfg := &st.cfg
	lowX, _ := st.low.window(cfg.MaxLowData)
	start := len(st.low.X) - len(lowX)
	if c := st.lcache; c != nil && st.sinceRefit+1 < cfg.RefitEvery && c.lowStart == start && !st.ladderNLMLDegraded(c) {
		if err := st.extendLadderCache(c); err == nil {
			st.sinceRefit++
			if st.met != nil {
				st.met.fitSkipped.Add(1)
			}
			return c.chains, true, true
		}
		// A failed extension (e.g. an indefinite downdate residue) poisons
		// the cache; fall through to a full refit.
	}
	st.lcache = nil
	st.sinceRefit = 0
	chains, ok = st.fitLadder(iter, true, span)
	if !ok {
		return nil, false, false
	}
	target := st.ladder.Target()
	c := &ladderCache{
		chains:   chains,
		lowStart: start,
		counts:   make([]int, target+1),
		baseLow:  make([]float64, st.nOut),
		baseTop:  make([]float64, st.nOut),
	}
	c.counts[0] = len(lowX)
	for r := 1; r <= target; r++ {
		c.counts[r] = len(st.ds(r).X)
	}
	for k, chain := range chains {
		c.baseLow[k] = perPointNLML(chain.Level(0))
		if chain.Levels() > target {
			c.baseTop[k] = perPointNLML(chain.Level(target))
		}
	}
	st.lcache = c
	return chains, true, false
}

// ladderNLMLDegraded reports whether any cached chain's per-point NLML has
// drifted more than NLMLTrigger nats above its last-full-refit baseline at
// either end — the early warning that frozen hyperparameters no longer
// explain the data.
func (st *state) ladderNLMLDegraded(c *ladderCache) bool {
	trig := st.cfg.NLMLTrigger
	if trig < 0 {
		return false
	}
	target := st.ladder.Target()
	for k, chain := range c.chains {
		if perPointNLML(chain.Level(0)) > c.baseLow[k]+trig {
			return true
		}
		if chain.Levels() > target && perPointNLML(chain.Level(target)) > c.baseTop[k]+trig {
			return true
		}
	}
	return false
}

// extendLadderCache folds every rung's unseen rows — real observations and
// fantasy rows alike — into the cached chains with per-level rank-1 updates
// (O(n²) per row), cheapest rung first so lower-level updates inform the
// frozen augmentations of subsequent higher-level rows. Chains whose rungs
// received no new data are left untouched. A row at a rung some output's
// degraded chain lacks makes the cache unusable. On error the caller must
// discard the cache: some chains may already hold the new rows.
func (st *state) extendLadderCache(c *ladderCache) error {
	cfg := &st.cfg
	target := st.ladder.Target()
	lowX, lowView := st.low.window(cfg.MaxLowData)
	for r := 1; r <= target; r++ {
		if c.counts[r] == len(st.ds(r).X) {
			continue
		}
		for _, chain := range c.chains {
			if chain.Levels() <= r {
				return errCacheUnusable
			}
		}
	}
	updates := 0
	for i := c.counts[0]; i < len(lowX); i++ {
		for k, chain := range c.chains {
			if err := chain.AppendLevel(0, lowX[i], lowView.Y[i][k]); err != nil {
				return err
			}
			updates++
		}
		c.counts[0] = i + 1
	}
	for r := 1; r <= target; r++ {
		ds := st.ds(r)
		for i := c.counts[r]; i < len(ds.X); i++ {
			for k, chain := range c.chains {
				if err := chain.AppendLevel(r, ds.X[i], ds.Y[i][k]); err != nil {
					return err
				}
				updates++
			}
			c.counts[r] = i + 1
		}
	}
	if updates > 0 {
		if st.met != nil {
			st.met.rank1Updates.Add(uint64(updates))
		}
		if ev := st.ev; ev != nil {
			ev.Rank1Updates += updates
		}
	}
	return nil
}

// retractLadderCache truncates the cached chains back to the committed
// per-rung dataset sizes (datasetSizes) after a batch proposal retracted its
// fantasy rows. Any mismatch the truncation cannot reconcile poisons the
// cache so the next proposal refits.
func (st *state) retractLadderCache(sizes []int) {
	c := st.lcache
	if c == nil {
		return
	}
	target := st.ladder.Target()
	lowTarget := sizes[0] - c.lowStart
	if lowTarget < 1 || lowTarget > c.counts[0] {
		st.lcache = nil
		return
	}
	for r := 1; r <= target; r++ {
		if sizes[r] < 1 || sizes[r] > c.counts[r] {
			st.lcache = nil
			return
		}
	}
	truncate := func(r, n int) bool {
		if n >= c.counts[r] {
			return true
		}
		for _, chain := range c.chains {
			if chain.Levels() <= r {
				continue
			}
			if err := chain.TruncateLevel(r, n); err != nil {
				return false
			}
		}
		c.counts[r] = n
		return true
	}
	if !truncate(0, lowTarget) {
		st.lcache = nil
		return
	}
	for r := 1; r <= target; r++ {
		if !truncate(r, sizes[r]) {
			st.lcache = nil
			return
		}
	}
}

// topLevel clamps rung r to the highest level chain carries: a degraded
// (low-only) chain answers every rung with its level-0 posterior.
func topLevel(chain *mfgp.MultiLevel, r int) int {
	return min(r, chain.Levels()-1)
}

// chooseEvalRung computes the per-rung standardized chain variances at xt and
// applies the generalized §3.4 rule. Degraded (low-only) outputs contribute
// their rung-0 variance only — with no fused levels there is no evidence that
// a higher intermediate rung needs data for them.
func (st *state) chooseEvalRung(chains []*mfgp.MultiLevel, xt []float64) rungDecision {
	target := st.ladder.Target()
	if st.cfg.ForceHighFidelity {
		return rungDecision{rung: target, forced: true}
	}
	vars := make([]float64, target)
	for r := 0; r < target; r++ {
		for _, chain := range chains {
			if chain.Levels() <= r {
				continue
			}
			_, va := chain.PredictLevel(xt, r)
			std := chain.Level(r).OutputStd()
			if v := va / (std * std); v > vars[r] {
				vars[r] = v
			}
		}
	}
	return chooseRung(vars, st.ladder.Costs(), st.nc, st.cfg.Gamma)
}

// isDuplicateAtRung reports whether xt coincides (to numerical precision)
// with a point already evaluated at rung r.
func (st *state) isDuplicateAtRung(xt []float64, r int) bool {
	for _, x := range st.ds(r).X {
		d2 := 0.0
		for j := range x {
			dd := x[j] - xt[j]
			d2 += dd * dd
		}
		if d2 < 1e-16 {
			return true
		}
	}
	return false
}

// fantasizeLadder produces the synthetic per-output observation batch
// acquisition substitutes for a pending suggestion at rung r while its real
// outcome is outstanding (Config.Fantasy). Kriging-believer returns the chain
// posterior mean at that rung — the model the next slot will train against
// (a low-only output answers with its level-0 posterior). Constant-liar
// returns, per output, the worst (maximum) value observed so far at the rung
// — the pessimistic lie under minimization — falling back to the believer
// mean on an empty rung.
func (st *state) fantasizeLadder(chains []*mfgp.MultiLevel, xt []float64, r int) []float64 {
	out := make([]float64, st.nOut)
	believe := func(k int) float64 {
		mu, _ := chains[k].PredictLevel(xt, topLevel(chains[k], r))
		return mu
	}
	switch st.cfg.Fantasy {
	case FantasyConstantLiar:
		ds := st.ds(r)
		for k := 0; k < st.nOut; k++ {
			if len(ds.Y) == 0 {
				out[k] = believe(k)
				continue
			}
			lie := ds.Y[0][k]
			for _, row := range ds.Y[1:] {
				if row[k] > lie {
					lie = row[k]
				}
			}
			out[k] = lie
		}
	default: // FantasyKrigingBeliever
		for k := 0; k < st.nOut; k++ {
			out[k] = believe(k)
		}
	}
	return out
}

// propose computes the next adaptive query — the body of one Algorithm 1
// iteration up to (but excluding) the simulation itself: fit the per-output
// chains (walking the degradation ladder on failure), maximize the rung-0
// and target-rung acquisitions with the §4.1 multiple-starting-point
// strategy, and pick the evaluation rung by the §3.4 criterion.
//
// iter labels the slot being proposed (it may run ahead of st.iter while a
// batch is outstanding). When wantFantasy is set the third return value
// carries the synthetic outputs (per Config.Fantasy) that stand in for the
// point's observation while later batch slots are proposed; it is nil for a
// random-exploration fallback, where no surrogate exists to fantasize from.
func (st *state) propose(iter int, span *telemetry.Span, wantFantasy bool) ([]float64, problem.Fidelity, []float64) {
	cfg := &st.cfg
	target := st.ladder.Target()
	var ev *telemetry.IterationEvent
	if st.telem != nil {
		ev = &telemetry.IterationEvent{Iter: iter, Nc: st.nc, Gamma: cfg.Gamma}
		st.ev = ev
	}
	var tFit time.Time
	if ev != nil {
		tFit = time.Now()
	}
	var chains []*mfgp.MultiLevel
	var ok bool
	if cfg.Incremental {
		var skipped bool
		chains, ok, skipped = st.incrementalLadder(iter, span)
		if ev != nil {
			ev.FitSkipped = skipped
			ev.SinceRefit = st.sinceRefit
		}
	} else {
		fullRefit := iter%cfg.RefitEvery == 0
		chains, ok = st.fitLadder(iter, fullRefit, span)
	}
	if ev != nil {
		if ok && chains[0].Level(0).IsLowRank() {
			ev.LowRank = true
		}
		d := time.Since(tFit)
		ev.FitMs = float64(d.Nanoseconds()) / 1e6
		if st.met != nil {
			st.met.fitSeconds.Observe(d.Seconds())
		}
	}
	if !ok {
		// Random exploration keeps the budget moving while the training
		// sets recover (e.g. after a burst of failed evaluations).
		xt := stats.UniformInBox(st.rng, st.lo, st.hi, 1)[0]
		rung := 0
		if cfg.ForceHighFidelity {
			rung = target
		}
		if ev != nil {
			st.noteRung(ev, rung, nil)
			ev.ForcedHigh = cfg.ForceHighFidelity
		}
		return xt, problem.Fidelity(rung), nil
	}

	// Incumbents: the cheapest and the target rung seed the §4.1 starts.
	tauLowX, tauLowEval, hasLowFeasible := bestOf(st.low)
	tauHighX, tauHighEval, hasHighFeasible := bestOf(st.high)
	if ev != nil {
		if hasLowFeasible {
			ev.HasTauLow = true
			ev.TauLow = tauLowEval.Objective
		}
		if hasHighFeasible {
			ev.HasTauHigh = true
			ev.TauHigh = tauHighEval.Objective
		}
	}

	// Posterior adapters: rung-0 chain level for the cheap acquisition, the
	// fused target level for the expensive one. A low-only chain answers
	// both with its level-0 posterior.
	nc := st.nc
	levelPost := func(k, level int) acq.Posterior {
		m, l := chains[k], topLevel(chains[k], level)
		return func(x, dm, dv []float64) (float64, float64) { return m.PredictLevelGrad(x, l, dm, dv) }
	}
	lowObj := levelPost(0, 0)
	lowCons := make([]acq.Posterior, nc)
	for i := 0; i < nc; i++ {
		lowCons[i] = levelPost(1+i, 0)
	}
	fusedObj := levelPost(0, target)
	fusedCons := make([]acq.Posterior, nc)
	for i := 0; i < nc; i++ {
		fusedCons[i] = levelPost(1+i, target)
	}

	mspCfg := cfg.MSP
	var incHigh, incLow []float64
	if !cfg.DisableIncumbentSeeding {
		if hasHighFeasible {
			incHigh = tauHighX
		}
		if hasLowFeasible {
			incLow = tauLowX
		}
	}

	// Rung-0 acquisition → x*_l.
	var acqLow optimize.Objective
	bootstrapLow := false
	switch {
	case hasLowFeasible:
		acqLow = acq.WEI(lowObj, lowCons, tauLowEval.Objective)
	case nc > 0:
		acqLow = acq.Negated(acq.FeasibilityObjective(lowCons))
		bootstrapLow = true
	default:
		acqLow = acq.WEI(lowObj, nil, math.Inf(1))
	}
	var tAcq time.Time
	var mspLow, mspHigh optimize.MSPStats
	if ev != nil {
		tAcq = time.Now()
		mspCfg.Stats = &mspLow
		mspCfg.Span = span
	}
	xStarLow, acqLowVal := optimize.MaximizeMSP(st.rng, acqLow, st.box, incHigh, incLow, mspCfg)

	// Target-rung acquisition seeded with x*_l.
	var acqHigh optimize.Objective
	bootstrap := false
	switch {
	case hasHighFeasible:
		acqHigh = acq.WEI(fusedObj, fusedCons, tauHighEval.Objective)
	case nc > 0:
		// §4.2: no feasible target point yet — chase predicted feasibility.
		acqHigh = acq.Negated(acq.FeasibilityObjective(fusedCons))
		bootstrap = true
	default:
		acqHigh = acq.WEI(fusedObj, nil, math.Inf(1))
	}
	mspCfg.Extra = append(append([][]float64(nil), cfg.MSP.Extra...), xStarLow)
	if ev != nil {
		mspCfg.Stats = &mspHigh
	}
	xt, acqHighVal := optimize.MaximizeMSP(st.rng, acqHigh, st.box, incHigh, incLow, mspCfg)
	if ev != nil {
		d := time.Since(tAcq)
		ev.AcqMs = float64(d.Nanoseconds()) / 1e6
		if st.met != nil {
			st.met.acqSeconds.Observe(d.Seconds())
		}
		ev.AcqLow = acqLowVal
		ev.AcqHigh = acqHighVal
		ev.Bootstrap = bootstrap
		ev.BootstrapLow = bootstrapLow
		ev.MSPStartsLow = mspLow.Starts
		ev.MSPDivergedLow = mspLow.Diverged
		ev.MSPStartsHigh = mspHigh.Starts
		ev.MSPDivergedHigh = mspHigh.Diverged
	}

	// Degenerate-query guard: re-sampling an existing point adds no
	// information; fall back to a random exploration point.
	dec := st.chooseEvalRung(chains, xt)
	if st.isDuplicateAtRung(xt, dec.rung) {
		xt = stats.UniformInBox(st.rng, st.lo, st.hi, 1)[0]
		dec = st.chooseEvalRung(chains, xt)
		if ev != nil {
			ev.DuplicateFallback = true
		}
	}
	if ev != nil {
		// §3.4 decision record: the final comparison that chose the rung.
		st.noteRung(ev, dec.rung, dec.vars)
		ev.Sigma2Max = dec.sigma2Max
		ev.Threshold = dec.threshold
		ev.HasSigma2 = dec.hasSigma2
		ev.ForcedHigh = dec.forced
	}
	var fantasy []float64
	if wantFantasy {
		fantasy = st.fantasizeLadder(chains, xt, dec.rung)
	}
	return xt, problem.Fidelity(dec.rung), fantasy
}
