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
// augmented-input GP's posterior at each, plus, on the gradient path, the
// nodes' x-derivatives, the per-node posterior gradients (nodes × d) and the
// running level gradients. A scratch must not be used from two goroutines at
// once.
type predictScratch struct {
	fs, mus, vas  []float64
	dfs, dms, dvs []float64
	gm, gv        [2][]float64 // level gradients: [0] current, [1] next
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

// nodeGrads returns the per-node gradient buffers for n nodes over d inputs.
func (sc *predictScratch) nodeGrads(n, d int) (dfs, dms, dvs []float64) {
	if len(sc.dfs) < n*d {
		sc.dfs = make([]float64, n*d)
		sc.dms = make([]float64, n*d)
		sc.dvs = make([]float64, n*d)
	}
	return sc.dfs[:n*d], sc.dms[:n*d], sc.dvs[:n*d]
}

// levelGrads returns the current (gm, gv) and next (nm, nv) level-gradient
// buffers over d inputs.
func (sc *predictScratch) levelGrads(d int) (gm, gv, nm, nv []float64) {
	for i := range sc.gm {
		if len(sc.gm[i]) < d {
			sc.gm[i] = make([]float64, d)
			sc.gv[i] = make([]float64, d)
		}
	}
	return sc.gm[0][:d], sc.gv[0][:d], sc.gm[1][:d], sc.gv[1][:d]
}

// propagate pushes the Gaussian posterior N(mu, va) of the level below
// through the augmented-input GP high at design point x (eq. 10): at the
// nodes f = mu + sd·z for z in zs, equally weighted unless weights are
// given, or at mu alone under PlugIn or when the lower level is certain. It
// returns the moment-matched mean and variance (law of total variance).
//
// When dmean is non-nil, gmu and gva hold the lower level's gradients in x,
// and propagate writes the fused gradients into dmean and dvar by the chain
// rule through the reparameterized nodes, ∂f_s/∂x = ∂µ/∂x + z_s·∂σ²/∂x/(2σ)
// (∂µ/∂x alone on the single-node branch), and through the moments:
//
//	∂mean = Σw·∂m_s / Σw,   ∂var = Σw·(∂v_s + 2m_s·∂m_s) / Σw − 2·mean·∂mean,
//
// zero where the variance is clamped at zero. The values are bit-identical
// with and without gradients.
func propagate(high *gp.Model, x []float64, mu, va float64, gmu, gva []float64, prop Propagation,
	zs, weights []float64, sc *predictScratch, dmean, dvar []float64) (mean, variance float64) {
	sd := math.Sqrt(math.Max(va, 0))
	if prop == PlugIn || sd == 0 {
		fs, mus, vas := sc.nodes(1)
		fs[0] = mu
		high.PredictLatentAugmentedGrad(x, fs, gmu, mus, vas, dmean, dvar)
		return mus[0], vas[0]
	}
	n := len(zs)
	fs, mus, vas := sc.nodes(n)
	for i, z := range zs {
		fs[i] = mu + sd*z
	}
	d := len(x)
	var dfs, dms, dvs []float64
	if dmean != nil {
		dfs, dms, dvs = sc.nodeGrads(n, d)
		for i, z := range zs {
			row := dfs[i*d : (i+1)*d]
			for t := range row {
				row[t] = gmu[t] + float64(z*(gva[t]/(2*sd)))
			}
		}
	}
	high.PredictLatentAugmentedGrad(x, fs, dfs, mus, vas, dms, dvs)
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
	if dmean == nil {
		return mean, variance
	}
	for t := 0; t < d; t++ {
		var gm, g2 float64
		for i := 0; i < n; i++ {
			w := 1.0 / float64(n)
			if weights != nil {
				w = weights[i]
			}
			gm += float64(w * dms[i*d+t])
			g2 += float64(w * (dvs[i*d+t] + float64(2*mus[i]*dms[i*d+t])))
		}
		dmean[t] = gm / sumW
		if variance == 0 {
			dvar[t] = 0
		} else {
			dvar[t] = g2/sumW - float64(2*mean*dmean[t])
		}
	}
	return mean, variance
}
