// Package acq implements the acquisition functions of §2.4: expected
// improvement (eq. 5), probability of feasibility, the weighted expected
// improvement wEI = EI·ΠPF (eq. 6) used by both the proposed method and the
// WEIBO baseline, lower/upper confidence bounds (used by GASPAD), and the
// first-feasible bootstrap objective of §4.2 (eq. 13).
//
// All functions treat optimization as MINIMIZATION of the objective and
// constraints of the form c_i(x) < 0, matching eq. (1).
package acq

import (
	"math"
	"sync"

	"repro/internal/stats"
)

// Posterior returns the posterior mean and variance of a surrogate at x.
// When dmean is non-nil it also writes ∂mean/∂x and ∂variance/∂x into dmean
// and dvar (len(x) each); nil asks for the value only, which must not depend
// on whether gradients were requested. It is the only coupling between this
// package and the model packages, so single-fidelity GPs, fused
// multi-fidelity models and test doubles all plug in uniformly.
type Posterior func(x, dmean, dvar []float64) (mean, variance float64)

// EI returns the expected improvement of a Gaussian posterior N(mu, sigma2)
// over the incumbent tau, for minimization (eq. 5):
//
//	EI = σ·(λΦ(λ) + φ(λ)),  λ = (τ − µ)/σ.
//
// When sigma2 is (numerically) zero it degrades gracefully to the
// deterministic improvement max(0, τ−µ).
func EI(mu, sigma2, tau float64) float64 {
	ei, _, _ := EIGrad(mu, sigma2, tau)
	return ei
}

// EIGrad returns EI and its partial derivatives in µ and σ²,
//
//	∂EI/∂µ = −Φ(λ),   ∂EI/∂σ² = φ(λ)/(2σ),
//
// with the derivatives of whichever guarded branch EI takes: −1 and 0 where
// EI is the improvement τ−µ, zeros where it vanishes.
func EIGrad(mu, sigma2, tau float64) (ei, dmu, dsigma2 float64) {
	sigma := math.Sqrt(math.Max(sigma2, 0))
	if sigma < 1e-12 {
		if tau-mu > 0 {
			return tau - mu, -1, 0
		}
		return math.Max(0, tau-mu), 0, 0
	}
	lambda := (tau - mu) / sigma
	// Tail guards: for λ ≪ 0 both terms underflow (and λ·Φ(λ) would evaluate
	// as −Inf·0 = NaN at extreme magnitudes); for λ ≫ 0, EI → τ−µ.
	if lambda < -40 {
		return 0, 0, 0
	}
	if lambda > 40 {
		return tau - mu, -1, 0
	}
	cdf, pdf := stats.NormCDF(lambda), stats.NormPDF(lambda)
	return sigma * (lambda*cdf + pdf), -cdf, pdf / (2 * sigma)
}

// PF returns the probability of feasibility Φ(−µ/σ) of a constraint modelled
// as c(x) ~ N(mu, sigma2) with feasibility c(x) < 0. A deterministic
// posterior (σ≈0) returns a hard 0/1 indicator.
func PF(mu, sigma2 float64) float64 {
	pf, _, _ := PFGrad(mu, sigma2)
	return pf
}

// PFGrad returns PF and its partial derivatives in µ and σ², with r = −µ/σ:
//
//	∂PF/∂µ = −φ(r)/σ,   ∂PF/∂σ² = −φ(r)·r/(2σ²),
//
// and zeros on the deterministic 0/1 branch.
func PFGrad(mu, sigma2 float64) (pf, dmu, dsigma2 float64) {
	sigma := math.Sqrt(math.Max(sigma2, 0))
	if sigma < 1e-12 {
		if mu < 0 {
			return 1, 0, 0
		}
		return 0, 0, 0
	}
	r := -mu / sigma
	pdf := stats.NormPDF(r)
	return stats.NormCDF(r), -pdf / sigma, -pdf * r / (2 * sigma * sigma)
}

// gradPool recycles the per-call posterior gradient buffers of one
// acquisition closure; MSP calls it from several goroutines at once.
type gradPool struct{ p sync.Pool }

type gradBufs struct{ dm, dv []float64 }

func (g *gradPool) get(d int) *gradBufs {
	b, ok := g.p.Get().(*gradBufs)
	if !ok || len(b.dm) < d {
		b = &gradBufs{dm: make([]float64, d), dv: make([]float64, d)}
	}
	b.dm, b.dv = b.dm[:d], b.dv[:d]
	return b
}

func (g *gradPool) put(b *gradBufs) { g.p.Put(b) }

// weightByPF multiplies the acquisition value a (with gradient grad, unless
// nil) by Π_i PF_i(x) in constraint order, by the product rule.
func weightByPF(a float64, x, grad []float64, cons []Posterior, b *gradBufs) float64 {
	for _, c := range cons {
		if grad == nil {
			cm, cv := c(x, nil, nil)
			a *= PF(cm, cv)
			continue
		}
		cm, cv := c(x, b.dm, b.dv)
		p, pm, pv := PFGrad(cm, cv)
		for t := range grad {
			grad[t] = float64(p*grad[t]) + float64(a*(float64(pm*b.dm[t])+float64(pv*b.dv[t])))
		}
		a *= p
	}
	return a
}

// WEI builds the weighted expected improvement acquisition of eq. (6):
//
//	wEI(x) = EI_obj(x) · Π_i PF_i(x),
//
// with its closed-form gradient written into grad unless grad is nil; the
// value is the same either way. tau is the incumbent objective value among
// FEASIBLE observations. cons may be empty, in which case WEI reduces to
// plain EI. The result is safe for concurrent calls when the posteriors
// are.
func WEI(obj Posterior, cons []Posterior, tau float64) func(x, grad []float64) float64 {
	var pool gradPool
	return func(x, grad []float64) float64 {
		if grad == nil {
			mu, v := obj(x, nil, nil)
			return weightByPF(EI(mu, v, tau), x, nil, cons, nil)
		}
		b := pool.get(len(x))
		mu, v := obj(x, b.dm, b.dv)
		a, am, av := EIGrad(mu, v, tau)
		for t := range grad {
			grad[t] = float64(am*b.dm[t]) + float64(av*b.dv[t])
		}
		a = weightByPF(a, x, grad, cons, b)
		pool.put(b)
		return a
	}
}

// UCB returns the upper confidence bound µ + β·σ.
func UCB(mu, sigma2, beta float64) float64 {
	return mu + beta*math.Sqrt(math.Max(sigma2, 0))
}

// LCB returns the lower confidence bound µ − β·σ (for minimization); GASPAD
// uses it for prescreening evolutionary candidates.
func LCB(mu, sigma2, beta float64) float64 {
	return mu - beta*math.Sqrt(math.Max(sigma2, 0))
}

// FeasibilityObjective builds the §4.2 bootstrap objective (eq. 13)
//
//	minimize Σ_i max(0, µ_i(x)),
//
// the sum of predicted constraint violations, used to drive the search into a
// feasible region before any feasible point is known. Its gradient, written
// into grad unless nil, is the sum of ∂µ_i/∂x over the violated constraints.
// The returned function is to be MINIMIZED; Negated turns it into a
// maximization target.
func FeasibilityObjective(cons []Posterior) func(x, grad []float64) float64 {
	var pool gradPool
	return func(x, grad []float64) float64 {
		var b *gradBufs
		if grad != nil {
			for t := range grad {
				grad[t] = 0
			}
			b = pool.get(len(x))
			defer pool.put(b)
		}
		s := 0.0
		for _, c := range cons {
			if b == nil {
				if cm, _ := c(x, nil, nil); cm > 0 {
					s += cm
				}
				continue
			}
			if cm, _ := c(x, b.dm, b.dv); cm > 0 {
				s += cm
				for t := range grad {
					grad[t] += b.dm[t]
				}
			}
		}
		return s
	}
}

// Negated returns −f together with the negated gradient.
func Negated(f func(x, grad []float64) float64) func(x, grad []float64) float64 {
	return func(x, grad []float64) float64 {
		v := f(x, grad)
		for t := range grad {
			grad[t] = -grad[t]
		}
		return -v
	}
}
