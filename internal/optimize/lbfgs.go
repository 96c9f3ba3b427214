// Package optimize provides the numerical optimizers used throughout the
// library: L-BFGS with a strong-Wolfe line search (hyperparameter training,
// acquisition maximization), a differential-evolution engine (the DE
// baseline and GASPAD's proposal pool), and the paper's
// multiple-starting-point (MSP) driver with incumbent-local seeding (§4.1).
package optimize

import (
	"math"

	"repro/internal/linalg"
)

// Objective is a scalar function with gradient. The gradient slice is owned
// by the caller, never nil, and must be fully overwritten.
type Objective func(x []float64, grad []float64) float64

// LBFGSConfig tunes the quasi-Newton minimizer. Zero values select defaults.
type LBFGSConfig struct {
	Memory   int     // history pairs (default 10)
	MaxIter  int     // maximum iterations (default 200)
	GradTol  float64 // stop when ‖∇f‖∞ < GradTol (default 1e-6)
	FuncTol  float64 // stop on relative f decrease below FuncTol (default 1e-10)
	StepInit float64 // initial line-search step (default 1)
}

func (c *LBFGSConfig) defaults() {
	if c.Memory <= 0 {
		c.Memory = 10
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 200
	}
	if c.GradTol <= 0 {
		c.GradTol = 1e-6
	}
	if c.FuncTol <= 0 {
		c.FuncTol = 1e-10
	}
	if c.StepInit <= 0 {
		c.StepInit = 1
	}
}

// Result reports the outcome of a minimization.
type Result struct {
	X         []float64
	F         float64
	Gradient  []float64
	Iters     int
	Evals     int
	Converged bool
}

// LBFGS minimizes f starting from x0 using limited-memory BFGS with a
// strong-Wolfe cubic line search. x0 is not modified. Every buffer —
// iterate, trial point, gradients, search direction and the curvature
// history — is allocated once per call, so iterations allocate nothing.
func LBFGS(f Objective, x0 []float64, cfg LBFGSConfig) Result {
	cfg.defaults()
	n := len(x0)
	mem := cfg.Memory
	// One slab: the two-loop coefficients, x, g, d, the line search's trial
	// point and gradient, and mem+1 (s, y) pairs — a ring whose free slot takes each candidate pair
	// before the curvature test accepts it.
	slab := make([]float64, (5+2*(mem+1))*n+mem)
	alphas := slab[:mem:mem]
	slab = slab[mem:]
	next := func() []float64 {
		v := slab[:n:n]
		slab = slab[n:]
		return v
	}
	x, g, d := next(), next(), next()
	copy(x, x0)
	ls := lineSearch{f: f, p: next(), g: next()}
	fx := ls.eval(x, g)

	type pair struct {
		s, y []float64
		rho  float64
	}
	ring := make([]pair, mem+1)
	for i := range ring {
		ring[i].s, ring[i].y = next(), next()
	}
	start, count := 0, 0 // history: ring[start], … oldest first, count pairs
	at := func(i int) *pair { return &ring[(start+i)%len(ring)] }
	res := Result{}
	for iter := 0; iter < cfg.MaxIter; iter++ {
		if !finite(g) {
			// A non-finite gradient gives no direction: stop at the current point.
			res.Iters = iter
			break
		}
		if maxAbs(g) < cfg.GradTol {
			res.Converged = true
			res.Iters = iter
			break
		}
		// Two-loop recursion for d = −H·g.
		copy(d, g)
		for i := count - 1; i >= 0; i-- {
			h := at(i)
			alphas[i] = h.rho * linalg.Dot(h.s, d)
			linalg.AXPY(-alphas[i], h.y, d)
		}
		if count > 0 {
			last := at(count - 1)
			gamma := linalg.Dot(last.s, last.y) / linalg.Dot(last.y, last.y)
			for i := range d {
				d[i] *= gamma
			}
		}
		for i := 0; i < count; i++ {
			h := at(i)
			beta := h.rho * linalg.Dot(h.y, d)
			linalg.AXPY(alphas[i]-beta, h.s, d)
		}
		for i := range d {
			d[i] = -d[i]
		}
		// Ensure descent; fall back to steepest descent if not.
		dg := linalg.Dot(d, g)
		if dg >= 0 {
			for i := range d {
				d[i] = -g[i]
			}
			dg = -linalg.Dot(g, g)
			count = 0
		}
		step0 := cfg.StepInit
		if iter == 0 {
			// Conservative first step scaled by gradient magnitude.
			if gn := linalg.Norm2(g); gn > 1 {
				step0 = 1 / gn
			}
		}
		fNew, ok := ls.wolfe(x, fx, d, dg, step0)
		if !ok {
			res.Iters = iter
			break
		}
		// The accepted point and its gradient are in ls.p and ls.g.
		cand := at(count)
		for i := range x {
			cand.s[i] = ls.p[i] - x[i]
			cand.y[i] = ls.g[i] - g[i]
		}
		sy := linalg.Dot(cand.s, cand.y)
		if sy > 1e-12*linalg.Norm2(cand.s)*linalg.Norm2(cand.y) {
			cand.rho = 1 / sy
			if count == mem {
				start = (start + 1) % len(ring)
			} else {
				count++
			}
		}
		rel := math.Abs(fx-fNew) / math.Max(1, math.Abs(fx))
		x, ls.p = ls.p, x
		fx = fNew
		copy(g, ls.g)
		if rel < cfg.FuncTol {
			res.Converged = true
			res.Iters = iter + 1
			break
		}
		res.Iters = iter + 1
	}
	res.X = x
	res.F = fx
	res.Gradient = g
	res.Evals = ls.evals
	return res
}

// lineSearch evaluates trial points x + a·d of one L-BFGS run into its own
// buffers: p holds the most recent trial point and g its gradient, which is
// always the point a successful search accepts.
type lineSearch struct {
	f     Objective
	p, g  []float64
	evals int
}

func (ls *lineSearch) eval(p, grad []float64) float64 {
	ls.evals++
	return ls.f(p, grad)
}

// phi evaluates the trial point at step a and returns f and its directional
// derivative along d.
func (ls *lineSearch) phi(x, d []float64, a float64) (float64, float64) {
	for i := range ls.p {
		ls.p[i] = x[i] + a*d[i]
	}
	f := ls.eval(ls.p, ls.g)
	return f, linalg.Dot(ls.g, d)
}

// wolfe performs a strong-Wolfe line search along d from x. On success the
// accepted point and gradient are left in ls.p and ls.g and their value is
// returned; ok=false when no acceptable step was found.
func (ls *lineSearch) wolfe(x []float64, fx float64, d []float64, dg float64, step0 float64) (fn float64, ok bool) {
	const (
		c1      = 1e-4
		c2      = 0.9
		maxTry  = 30
		stepMax = 1e10
	)
	aPrev, fPrev := 0.0, fx
	a := step0
	for try := 0; try < maxTry; try++ {
		fA, dgA := ls.phi(x, d, a)
		if math.IsNaN(fA) || math.IsInf(fA, 0) {
			a = 0.5 * (aPrev + a)
			continue
		}
		if fA > fx+c1*a*dg || (try > 0 && fA >= fPrev) {
			return ls.zoom(x, fx, dg, d, aPrev, a, fPrev, c1, c2)
		}
		if math.Abs(dgA) <= -c2*dg {
			return fA, true
		}
		if dgA >= 0 {
			return ls.zoom(x, fx, dg, d, a, aPrev, fA, c1, c2)
		}
		aPrev, fPrev = a, fA
		a *= 2
		if a > stepMax {
			break
		}
	}
	return 0, false
}

// zoom brackets a Wolfe point in [aLo, aHi] by bisection/interpolation.
func (ls *lineSearch) zoom(x []float64, fx, dg0 float64, d []float64,
	aLo, aHi, fLo, c1, c2 float64) (fn float64, ok bool) {
	for try := 0; try < 30; try++ {
		a := 0.5 * (aLo + aHi)
		fA, dgA := ls.phi(x, d, a)
		if math.IsNaN(fA) || fA > fx+c1*a*dg0 || fA >= fLo {
			aHi = a
			continue
		}
		if math.Abs(dgA) <= -c2*dg0 {
			return fA, true
		}
		if dgA*(aHi-aLo) >= 0 {
			aHi = aLo
		}
		aLo, fLo = a, fA
		if math.Abs(aHi-aLo) < 1e-14*(1+math.Abs(aLo)) {
			return fA, true
		}
	}
	// Accept the best sufficient-decrease point found, if any.
	if aLo > 0 {
		if fA, _ := ls.phi(x, d, aLo); fA < fx {
			return fA, true
		}
	}
	return 0, false
}

func finite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

func maxAbs(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}
