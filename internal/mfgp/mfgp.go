// Package mfgp implements the paper's nonlinear fusion model (§3.1–§3.2),
// following Perdikaris et al. (2017), as a recursive chain of fidelity
// levels (MultiLevel):
//
//   - a level-0 GP f_0(x) trained on the cheapest data,
//   - per higher level, a GP over the augmented input (x, f̂(x)) with the
//     structured kernel k1·k2 + k3 (eq. 9), where f̂ is the fused posterior
//     mean of the level below,
//   - posterior prediction by propagating each level's posterior through the
//     next (eq. 10), via Monte-Carlo with common random numbers,
//     deterministic Gauss–Hermite quadrature, or the plug-in mean.
//
// The paper's two-fidelity model is the two-level chain. AR1 is the linear
// co-kriging baseline it is ablated against.
package mfgp

import (
	"math"

	"repro/internal/gp"
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

// predictScratch is the reusable buffer set for one fused prediction: the
// augmented coordinates f_s of eq. (10)'s propagation nodes and the
// augmented-input GP's posterior at each. A scratch must not be used from two
// goroutines at once.
type predictScratch struct {
	fs, mus, vas []float64
}

// nodes returns the per-node buffers for n nodes, growing them if needed.
func (sc *predictScratch) nodes(n int) (fs, mus, vas []float64) {
	if len(sc.fs) < n {
		sc.fs = make([]float64, n)
		sc.mus = make([]float64, n)
		sc.vas = make([]float64, n)
	}
	return sc.fs[:n], sc.mus[:n], sc.vas[:n]
}

// propagate pushes the Gaussian posterior N(mu, va) of the level below
// through the augmented-input GP high at design point x (eq. 10): at the
// nodes f = mu + sd·z for z in zs, equally weighted unless weights are
// given, or at mu alone under PlugIn or when the lower level is certain. It
// returns the moment-matched mean and variance (law of total variance).
func propagate(high *gp.Model, x []float64, mu, va float64, prop Propagation,
	zs, weights []float64, sc *predictScratch) (mean, variance float64) {
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
