package gp

import (
	"fmt"

	"repro/internal/kernel"
)

// Closed-form input gradients of the latent posterior for SE-ARD kernels and
// the eq. (9) kernel built from SE-ARD factors. Every product that is summed
// is rounded explicitly (float64(a*b)) so the gradients, and with them the
// acquisition maximizer's path, do not change when the compiler may fuse a
// multiply-add.

// meanWeights returns the weights of the posterior mean, µ_std = kᵀw: α = K⁻¹y
// on the exact path, the DTC weights on the low-rank path.
func (m *Model) meanWeights() []float64 {
	if m.lowRank != nil {
		return m.lowRank.w
	}
	return m.alpha
}

// varWeights returns u with ∂σ²_std = −2uᵀ∂k for the cross-covariance row ks
// the posterior just consumed: K⁻¹k on the exact path, one backward solve
// from the forward solve posterior left in sc.v; K_mm⁻¹k_m − Σ⁻¹k_m on the
// low-rank path.
func (m *Model) varWeights(ks []float64, sc *predictScratch) []float64 {
	n := len(ks)
	u := sc.u[:n]
	if lr := m.lowRank; lr != nil {
		v := sc.v[:n]
		lr.cholMM.SolveVecInto(ks, u)
		lr.cholSigma.SolveVecInto(ks, v)
		for i := range u {
			u[i] -= v[i]
		}
		return u
	}
	m.chol.BackwardSolveInto(sc.v[:n], u)
	return u
}

// invSq returns the SE-ARD inverse squared length scales of p or panics: the
// closed-form gradient exists only for squared-exponential factors.
func (m *Model) invSq(p kernel.PairProfile) []float64 {
	s2, ok := kernel.SEInvSq(p)
	if !ok {
		panic(fmt.Sprintf("gp: input gradients need SE-ARD kernel factors, have %T", m.kern))
	}
	return s2
}

// seGrad writes the raw-unit gradients of the posterior mean and variance at
// the standardized point sc.x for an SE-ARD kernel, where
// ∂k_i/∂x_t = −k_i·(x_t − x_it)/l_t².
func (m *Model) seGrad(rows [][]float64, ks []float64, sc *predictScratch, clamped bool, dmean, dvar []float64) {
	s2 := m.invSq(sc.prof)
	wm := m.meanWeights()
	u := m.varWeights(ks, sc)
	d := len(sc.x)
	gm, gv := sc.gm[:d], sc.gv[:d]
	for t := range gm {
		gm[t], gv[t] = 0, 0
	}
	for i, xi := range rows {
		c := float64(wm[i] * ks[i])
		e := float64(u[i] * ks[i])
		for t := range gm {
			dt := sc.x[t] - xi[t]
			gm[t] += float64(c * dt)
			gv[t] += float64(e * dt)
		}
	}
	ys := m.yStd
	for t := range gm {
		dmean[t] = -gm[t] * s2[t] * ys / m.xStd[t]
		if clamped {
			dvar[t] = 0
		} else {
			dvar[t] = 2 * gv[t] * s2[t] * ys * ys / m.xStd[t]
		}
	}
}

// chainNode turns the full-input gradients (am, av) of one augmented point
// (x, f) into gradients in x when the node moves as ∂f/∂x = dfs.
func chainNode(am, av, dfs, dmean, dvar []float64) {
	d := len(dfs)
	for t := 0; t < d; t++ {
		dmean[t] = am[t] + float64(am[d]*dfs[t])
		dvar[t] = av[t] + float64(av[d]*dfs[t])
	}
}

// nargpGrad is the per-point part of the eq. (9) gradient,
//
//	∂k_i/∂x_t = −(k1_i·k2_i/l2_t² + k3_i/l3_t²)·Δx_it,
//	∂k_i/∂f   = −k1_i·k2_i·Δf_i/l1²,
//
// with the factors' inverse squared length scales, the mean weights, and the
// mean's k3 term Σ_i w_i·k3_i·Δx_it (sc.a3), which no node changes.
type nargpGrad struct {
	s1, s2, s3 []float64
	wm         []float64
}

// nargpGradFor prepares the gradient of PredictLatentAugmentedGrad once the
// design rows k2, k3 and differences sc.dx are in place.
func (m *Model) nargpGradFor(sc *predictScratch, n, d int) nargpGrad {
	g := nargpGrad{
		s1: m.invSq(sc.nargp.K1), s2: m.invSq(sc.nargp.K2), s3: m.invSq(sc.nargp.K3),
		wm: m.meanWeights(),
	}
	a3 := sc.a3[:d]
	for t := range a3 {
		a3[t] = 0
	}
	for i := 0; i < n; i++ {
		c := float64(g.wm[i] * sc.k3[i])
		for t, dt := range sc.dx[i*d : (i+1)*d] {
			a3[t] += float64(c * dt)
		}
	}
	return g
}

// node writes one propagation node's gradients after posterior has run on
// its row sc.ks (built from sc.k1, sc.k2, sc.k3) at standardized node value
// sf.
func (g *nargpGrad) node(m *Model, sc *predictScratch, rows [][]float64, sf float64, clamped bool, dfs, dmean, dvar []float64) {
	n, d := len(rows), len(dfs)
	u := m.varWeights(sc.ks[:n], sc)
	gm, gv, av := sc.gm[:d], sc.gv[:d], sc.av[:d]
	for t := 0; t < d; t++ {
		gm[t], gv[t], av[t] = 0, 0, 0
	}
	var fm, fv float64
	for i, xi := range rows {
		p := float64(sc.k1[i] * sc.k2[i])
		cm := float64(g.wm[i] * p)
		cv := float64(u[i] * p)
		ev := float64(u[i] * sc.k3[i])
		for t, dt := range sc.dx[i*d : (i+1)*d] {
			gm[t] += float64(cm * dt)
			gv[t] += float64(cv * dt)
			av[t] += float64(ev * dt)
		}
		df := sf - xi[d]
		fm += float64(cm * df)
		fv += float64(cv * df)
	}
	ys := m.yStd
	yv := ys * ys
	// Node-value sensitivities in raw units (sf = (f − mean)/std).
	mf := -fm * g.s1[0] * ys / m.xStd[d]
	vf := 2 * fv * g.s1[0] * yv / m.xStd[d]
	a3 := sc.a3[:d]
	for t := 0; t < d; t++ {
		mx := -(float64(gm[t]*g.s2[t]) + float64(a3[t]*g.s3[t])) * ys / m.xStd[t]
		dmean[t] = mx + float64(mf*dfs[t])
		if clamped {
			dvar[t] = 0
			continue
		}
		vx := 2 * (float64(gv[t]*g.s2[t]) + float64(av[t]*g.s3[t])) * yv / m.xStd[t]
		dvar[t] = vx + float64(vf*dfs[t])
	}
}
