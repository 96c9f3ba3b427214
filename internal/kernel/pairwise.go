package kernel

import "math"

// PairProfile is a hyperparameter-resolved snapshot of a kernel that
// evaluates on a cached coordinate-difference vector diff = x1 − x2 instead
// of the raw points. Profiles hoist every hyperparameter transcendental
// (exp of log-amplitudes/length scales, Matérn constants, …) out of the
// per-pair loop: the GP training loop computes them once per objective
// evaluation instead of once per matrix entry, which is the dominant cost of
// the direct Eval path.
//
// # Bit-identity contract
//
// For every built-in kernel, Profile().Eval(diff) and
// Profile().EvalGrad(diff, grad) are bit-identical to Eval(x1, x2) and
// EvalGrad(x1, x2, grad) when diff[i] == x1[i]−x2[i]: the per-dimension
// arithmetic runs in the same order with the same roundings, only the
// loop-invariant factors are precomputed. Tests enforce this, and the GP
// trainer relies on it so that enabling the geometry cache cannot move an
// NLML optimum by even one ulp.
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

// Pairwise is implemented by kernels that can produce a PairProfile.
// Profile may return nil when a composite kernel contains a sub-kernel
// without pairwise support; callers must fall back to the direct Eval path.
type Pairwise interface {
	Kernel
	Profile() PairProfile
}

// ProfileOf returns a PairProfile for k, or nil when k (or any of its
// sub-kernels) does not support pairwise evaluation.
func ProfileOf(k Kernel) PairProfile {
	if p, ok := k.(Pairwise); ok {
		return p.Profile()
	}
	return nil
}

// --- SEARD ---

type seProfile struct {
	logAmp float64
	s      []float64 // exp(−log l_i)
	s2     []float64 // s_i², the input-gradient factor (SEInvSq)
	scaled []float64 // scratch: (Δ_i/l_i)²
}

// Profile implements Pairwise.
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

// --- Matern ---

type maternProfile struct {
	nu32   bool
	amp2   float64 // exp(2·log σ_f)
	s      []float64
	scaled []float64
}

// Profile implements Pairwise.
func (k *Matern) Profile() PairProfile {
	p := &maternProfile{nu32: k.nu32, amp2: math.Exp(2 * k.logAmp),
		s: make([]float64, k.dim), scaled: make([]float64, k.dim)}
	for i, ls := range k.logScale {
		p.s[i] = math.Exp(-ls)
	}
	return p
}

func (p *maternProfile) NumHyper() int { return 1 + len(p.s) }

func (p *maternProfile) q(diff, scaled []float64) float64 {
	q := 0.0
	for i, s := range p.s {
		d := diff[i] * s
		sq := d * d
		if scaled != nil {
			scaled[i] = sq
		}
		q += sq
	}
	return q
}

func (p *maternProfile) Eval(diff []float64) float64 {
	r := math.Sqrt(p.q(diff, nil))
	if p.nu32 {
		c := math.Sqrt(3) * r
		return p.amp2 * (1 + c) * math.Exp(-c)
	}
	c := math.Sqrt(5) * r
	return p.amp2 * (1 + c + c*c/3) * math.Exp(-c)
}

func (p *maternProfile) EvalGrad(diff, grad []float64) float64 {
	r := math.Sqrt(p.q(diff, p.scaled))
	var v, dFactor float64
	if p.nu32 {
		c := math.Sqrt(3) * r
		e := math.Exp(-c)
		v = p.amp2 * (1 + c) * e
		dFactor = 3 * p.amp2 * e
	} else {
		c := math.Sqrt(5) * r
		e := math.Exp(-c)
		v = p.amp2 * (1 + c + c*c/3) * e
		dFactor = (5.0 / 3.0) * p.amp2 * (1 + c) * e
	}
	grad[0] = 2 * v
	for i, sc := range p.scaled {
		grad[1+i] = dFactor * sc
	}
	return v
}

// --- Constant ---

type constProfile struct{ v float64 }

// Profile implements Pairwise.
func (k *Constant) Profile() PairProfile {
	return &constProfile{v: math.Exp(2 * k.logAmp)}
}

func (p *constProfile) NumHyper() int          { return 1 }
func (p *constProfile) Eval([]float64) float64 { return p.v }
func (p *constProfile) EvalGrad(_, g []float64) float64 {
	g[0] = 2 * p.v
	return p.v
}

// --- RationalQuadratic ---

type rqProfile struct {
	amp2   float64
	alpha  float64
	s      []float64
	scaled []float64
}

// Profile implements Pairwise.
func (k *RationalQuadratic) Profile() PairProfile {
	p := &rqProfile{amp2: math.Exp(2 * k.logAmp), alpha: math.Exp(k.logAlpha),
		s: make([]float64, k.dim), scaled: make([]float64, k.dim)}
	for i, ls := range k.logScale {
		p.s[i] = math.Exp(-ls)
	}
	return p
}

func (p *rqProfile) NumHyper() int { return 2 + len(p.s) }

func (p *rqProfile) q(diff, scaled []float64) float64 {
	q := 0.0
	for i, s := range p.s {
		d := diff[i] * s
		sq := d * d
		if scaled != nil {
			scaled[i] = sq
		}
		q += sq
	}
	return q
}

func (p *rqProfile) Eval(diff []float64) float64 {
	q := p.q(diff, nil)
	u := 1 + q/(2*p.alpha)
	return p.amp2 * math.Pow(u, -p.alpha)
}

func (p *rqProfile) EvalGrad(diff, grad []float64) float64 {
	q := p.q(diff, p.scaled)
	u := 1 + q/(2*p.alpha)
	v := p.amp2 * math.Pow(u, -p.alpha)
	grad[0] = 2 * v
	grad[1] = p.alpha * v * (-math.Log(u) + q/(2*p.alpha*u))
	base := p.amp2 * math.Pow(u, -p.alpha-1)
	for i, sc := range p.scaled {
		grad[2+i] = base * sc
	}
	return v
}

// --- Periodic ---

type periodicProfile struct {
	logAmp  float64
	period  []float64 // exp(log p_i)
	scale2  []float64 // exp(2·log l_i)
	terms   []float64 // scratch
	dPeriod []float64 // scratch
}

// Profile implements Pairwise.
func (k *Periodic) Profile() PairProfile {
	p := &periodicProfile{logAmp: k.logAmp,
		period: make([]float64, k.dim), scale2: make([]float64, k.dim),
		terms: make([]float64, k.dim), dPeriod: make([]float64, k.dim)}
	for i := 0; i < k.dim; i++ {
		p.period[i] = math.Exp(k.logPeriod[i])
		p.scale2[i] = math.Exp(2 * k.logScale[i])
	}
	return p
}

func (p *periodicProfile) NumHyper() int { return 1 + 2*len(p.period) }

func (p *periodicProfile) Eval(diff []float64) float64 {
	sum := 0.0
	for i, pe := range p.period {
		s := math.Sin(math.Pi * diff[i] / pe)
		sum += 2 * s * s / p.scale2[i]
	}
	return math.Exp(2*p.logAmp - sum)
}

func (p *periodicProfile) EvalGrad(diff, grad []float64) float64 {
	d := len(p.period)
	sum := 0.0
	for i, pe := range p.period {
		l2 := p.scale2[i]
		delta := diff[i]
		arg := math.Pi * delta / pe
		s := math.Sin(arg)
		p.terms[i] = 2 * s * s / l2
		sum += p.terms[i]
		p.dPeriod[i] = -(2 * math.Pi * delta / (pe * l2)) * math.Sin(2*arg)
	}
	v := math.Exp(2*p.logAmp - sum)
	grad[0] = 2 * v
	for i := 0; i < d; i++ {
		grad[1+i] = -v * p.dPeriod[i]
		grad[1+d+i] = 2 * v * p.terms[i]
	}
	return v
}

// --- Combinators ---

type sumProfile struct {
	a, b PairProfile
	na   int
}

// Profile implements Pairwise. Returns nil unless both summands support
// pairwise evaluation.
func (k *Sum) Profile() PairProfile {
	pa, pb := ProfileOf(k.A), ProfileOf(k.B)
	if pa == nil || pb == nil {
		return nil
	}
	return &sumProfile{a: pa, b: pb, na: k.A.NumHyper()}
}

func (p *sumProfile) NumHyper() int { return p.na + p.b.NumHyper() }

func (p *sumProfile) Eval(diff []float64) float64 {
	return p.a.Eval(diff) + p.b.Eval(diff)
}

func (p *sumProfile) EvalGrad(diff, grad []float64) float64 {
	va := p.a.EvalGrad(diff, grad[:p.na])
	vb := p.b.EvalGrad(diff, grad[p.na:])
	return va + vb
}

type productProfile struct {
	a, b PairProfile
	na   int
}

// Profile implements Pairwise. Returns nil unless both factors support
// pairwise evaluation.
func (k *Product) Profile() PairProfile {
	pa, pb := ProfileOf(k.A), ProfileOf(k.B)
	if pa == nil || pb == nil {
		return nil
	}
	return &productProfile{a: pa, b: pb, na: k.A.NumHyper()}
}

func (p *productProfile) NumHyper() int { return p.na + p.b.NumHyper() }

func (p *productProfile) Eval(diff []float64) float64 {
	return p.a.Eval(diff) * p.b.Eval(diff)
}

func (p *productProfile) EvalGrad(diff, grad []float64) float64 {
	va := p.a.EvalGrad(diff, grad[:p.na])
	vb := p.b.EvalGrad(diff, grad[p.na:])
	for i := 0; i < p.na; i++ {
		grad[i] *= vb
	}
	for i := p.na; i < len(grad); i++ {
		grad[i] *= va
	}
	return va * vb
}

type sliceProfile struct {
	inner      PairProfile
	start, end int
}

// Profile implements Pairwise: the inner profile sees diff[Start:End],
// which equals the difference vector of the sliced coordinates exactly.
func (k *Slice) Profile() PairProfile {
	pi := ProfileOf(k.Inner)
	if pi == nil {
		return nil
	}
	return &sliceProfile{inner: pi, start: k.Start, end: k.End}
}

func (p *sliceProfile) NumHyper() int { return p.inner.NumHyper() }

func (p *sliceProfile) Eval(diff []float64) float64 {
	return p.inner.Eval(diff[p.start:p.end])
}

func (p *sliceProfile) EvalGrad(diff, grad []float64) float64 {
	return p.inner.EvalGrad(diff[p.start:p.end], grad)
}

// NARGPProfile is the eq. (9) split of the profile of NewNARGP(d) over the
// augmented input z = (x, f):
//
//	Eval(diff) == float64(K1.Eval(diff[d:]) * K2.Eval(diff[:d])) + K3.Eval(diff[:d])
//
// bit for bit (the explicit conversion keeps a fused multiply-add from
// skipping the product's rounding, as the separate profile calls do). K1 reads
// the one-element difference of the last coordinate, K2 and K3 the d design
// differences, so a caller that varies only f — the propagation nodes of
// eq. (10) — evaluates K2 and K3 once per design point and K1 once per node.
type NARGPProfile struct {
	K1, K2, K3 PairProfile
	Dim        int // design dimension d; the profile's input has d+1 coordinates
}

// SplitNARGP recognizes the profile built by NewNARGP(width−1).Profile() and
// returns its factors. ok is false for every other structure, including sums
// and products of the same factors in another shape or over a wider input;
// such kernels have no design-only part to hoist.
func SplitNARGP(p PairProfile, width int) (s NARGPProfile, ok bool) {
	sum, ok := p.(*sumProfile)
	if !ok {
		return s, false
	}
	prod, ok := sum.a.(*productProfile)
	if !ok {
		return s, false
	}
	k1, ok1 := prod.a.(*sliceProfile)
	k2, ok2 := prod.b.(*sliceProfile)
	k3, ok3 := sum.b.(*sliceProfile)
	if !ok1 || !ok2 || !ok3 {
		return s, false
	}
	d := k2.end
	if d < 1 || d+1 != width || k2.start != 0 || k3.start != 0 || k3.end != d || k1.start != d || k1.end != d+1 {
		return s, false
	}
	return NARGPProfile{K1: k1.inner, K2: k2.inner, K3: k3.inner, Dim: d}, true
}
