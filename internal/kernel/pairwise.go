package kernel

import "math"

// PairProfile is a hyperparameter-resolved snapshot of a kernel that
// evaluates on a cached coordinate-difference vector diff = x1 − x2 instead
// of the raw points. Profiles hoist every hyperparameter transcendental
// (exp of log-amplitudes and length scales) out of the per-pair loop: the GP
// training loop computes them once per objective evaluation instead of once
// per matrix entry, which is the dominant cost of the direct Eval path.
//
// # Bit-identity contract
//
// For both kernels, Profile().Eval(diff) and Profile().EvalGrad(diff, grad)
// are bit-identical to Eval(x1, x2) and EvalGrad(x1, x2, grad) when
// diff[i] == x1[i]−x2[i]: the per-dimension arithmetic runs in the same
// order with the same roundings, only the loop-invariant factors are
// precomputed. Tests enforce this, and the GP trainer relies on it so that
// enabling the geometry cache cannot move an NLML optimum by even one ulp.
//
// A profile captures the kernel's hyperparameters at Profile() time — it
// does NOT track later SetHyper calls. Profiles carry internal scratch and
// are not safe for concurrent use; build one per goroutine.
type PairProfile interface {
	// NumHyper returns the number of log-hyperparameters (gradient length).
	NumHyper() int
	// Eval returns k for the pair with coordinate differences diff.
	Eval(diff []float64) float64
	// EvalGrad returns k and writes ∂k/∂logθ_j into grad (length NumHyper).
	EvalGrad(diff, grad []float64) float64
}

// --- SEARD ---

type seProfile struct {
	logAmp float64
	s      []float64 // exp(−log l_i)
	s2     []float64 // s_i², the input-gradient factor (SEInvSq)
	scaled []float64 // scratch: (Δ_i/l_i)²
}

// Profile implements Kernel.
func (k *SEARD) Profile() PairProfile {
	p := &seProfile{logAmp: k.logAmp, s: make([]float64, k.dim),
		s2: make([]float64, k.dim), scaled: make([]float64, k.dim)}
	for i, ls := range k.logScale {
		p.s[i] = math.Exp(-ls)
		// Clamped so that a length scale trained towards zero, whose
		// kernel factor is 0 off the diagonal, contributes 0·s2 = 0 to the
		// gradient rather than 0·Inf = NaN.
		p.s2[i] = math.Min(p.s[i]*p.s[i], math.MaxFloat64)
	}
	return p
}

// SEInvSq returns the inverse squared length scales 1/l_i² of an SE-ARD
// profile, which give its input gradient in closed form:
//
//	∂k/∂diff_i = −k · diff_i / l_i².
//
// ok is false for every other profile. The slice is owned by the profile.
func SEInvSq(p PairProfile) (invSq []float64, ok bool) {
	if se, ok := p.(*seProfile); ok {
		return se.s2, true
	}
	return nil, false
}

func (p *seProfile) NumHyper() int { return 1 + len(p.s) }

func (p *seProfile) Eval(diff []float64) float64 {
	q := 0.0
	for i, s := range p.s {
		d := diff[i] * s
		q += d * d
	}
	return math.Exp(2*p.logAmp - 0.5*q)
}

func (p *seProfile) EvalGrad(diff, grad []float64) float64 {
	q := 0.0
	for i, s := range p.s {
		d := diff[i] * s
		p.scaled[i] = d * d
		q += p.scaled[i]
	}
	v := math.Exp(2*p.logAmp - 0.5*q)
	grad[0] = 2 * v
	for i, sc := range p.scaled {
		grad[1+i] = v * sc
	}
	return v
}

// NARGPProfile is the profile of the eq. (9) kernel over the augmented
// input z = (x, f), kept split into its three SE-ARD factors:
//
//	Eval(diff) == float64(K1.Eval(diff[d:]) * K2.Eval(diff[:d])) + K3.Eval(diff[:d])
//
// bit for bit with NARGP.Eval (the explicit conversion keeps a fused
// multiply-add from skipping the product's rounding). K1 reads the
// one-element difference of the last coordinate, K2 and K3 the d design
// differences, so a caller that varies only f — the propagation nodes of
// eq. (10) — evaluates K2 and K3 once per design point and K1 once per node.
type NARGPProfile struct {
	K1, K2, K3 PairProfile
	Dim        int // design dimension d; the profile's input has d+1 coordinates
}

// NumHyper implements PairProfile.
func (p *NARGPProfile) NumHyper() int { return p.K1.NumHyper() + p.K2.NumHyper() + p.K3.NumHyper() }

// Eval implements PairProfile.
func (p *NARGPProfile) Eval(diff []float64) float64 {
	dx := diff[:p.Dim]
	return float64(p.K1.Eval(diff[p.Dim:])*p.K2.Eval(dx)) + p.K3.Eval(dx)
}

// EvalGrad implements PairProfile with the product rule over the
// [k1, k2, k3] hyperparameter blocks.
func (p *NARGPProfile) EvalGrad(diff, grad []float64) float64 {
	dx := diff[:p.Dim]
	g1, g2, g3 := nargpBlocks(grad, p.Dim)
	v1 := p.K1.EvalGrad(diff[p.Dim:], g1)
	v2 := p.K2.EvalGrad(dx, g2)
	v3 := p.K3.EvalGrad(dx, g3)
	scaleProduct(g1, g2, v1, v2)
	return float64(v1*v2) + v3
}
