package kernel

// NARGP is the structured multi-fidelity kernel of eq. (9) over the
// augmented input z = (x_1..x_d, f_l(x)):
//
//	k_h(z, z') = k1(f, f') · k2(x, x') + k3(x, x'),
//
// with squared-exponential factors. k1 acts on the low-fidelity posterior
// value (last coordinate), k2 and k3 on the original design variables.
//
// Hyperparameters (log-space) are laid out [k1 (2), k2 (1+d), k3 (1+d)],
// each block in SEARD order.
type NARGP struct {
	dim        int // design dimension d
	k1, k2, k3 *SEARD
}

// NewNARGP returns the eq. (9) kernel for d design variables (inputs have
// d+1 coordinates), every factor at unit amplitude and length scales.
func NewNARGP(d int) *NARGP {
	return &NARGP{dim: d, k1: NewSEARD(1), k2: NewSEARD(d), k3: NewSEARD(d)}
}

// Dim implements Kernel.
func (k *NARGP) Dim() int { return k.dim + 1 }

// NumHyper implements Kernel.
func (k *NARGP) NumHyper() int { return 4 + 2*k.dim }

// Hyper implements Kernel.
func (k *NARGP) Hyper(dst []float64) []float64 {
	return k.k3.Hyper(k.k2.Hyper(k.k1.Hyper(dst)))
}

// SetHyper implements Kernel.
func (k *NARGP) SetHyper(src []float64) int {
	n := k.k1.SetHyper(src)
	n += k.k2.SetHyper(src[n:])
	return n + k.k3.SetHyper(src[n:])
}

// Eval implements Kernel. The conversion rounds the product before the sum,
// as NARGPProfile.Eval does.
func (k *NARGP) Eval(x1, x2 []float64) float64 {
	d := k.dim
	return float64(k.k1.Eval(x1[d:d+1], x2[d:d+1])*k.k2.Eval(x1[:d], x2[:d])) + k.k3.Eval(x1[:d], x2[:d])
}

// EvalGrad implements Kernel with the product rule over the [k1, k2, k3]
// hyperparameter blocks.
func (k *NARGP) EvalGrad(x1, x2 []float64, grad []float64) float64 {
	d := k.dim
	g1, g2, g3 := nargpBlocks(grad, d)
	v1 := k.k1.EvalGrad(x1[d:d+1], x2[d:d+1], g1)
	v2 := k.k2.EvalGrad(x1[:d], x2[:d], g2)
	v3 := k.k3.EvalGrad(x1[:d], x2[:d], g3)
	scaleProduct(g1, g2, v1, v2)
	return float64(v1*v2) + v3
}

// Bounds implements Kernel: the factors' SE-ARD bounds in [k1, k2, k3] order.
func (k *NARGP) Bounds(lo, hi []float64) ([]float64, []float64) {
	lo, hi = k.k1.Bounds(lo, hi)
	lo, hi = k.k2.Bounds(lo, hi)
	return k.k3.Bounds(lo, hi)
}

// Clone implements Kernel.
func (k *NARGP) Clone() Kernel {
	return &NARGP{dim: k.dim, k1: k.k1.Clone().(*SEARD), k2: k.k2.Clone().(*SEARD), k3: k.k3.Clone().(*SEARD)}
}

// Profile implements Kernel; the result is a *NARGPProfile.
func (k *NARGP) Profile() PairProfile {
	return &NARGPProfile{K1: k.k1.Profile(), K2: k.k2.Profile(), K3: k.k3.Profile(), Dim: k.dim}
}

// nargpBlocks splits an eq. (9) gradient into its k1, k2 and k3 blocks.
func nargpBlocks(grad []float64, d int) (g1, g2, g3 []float64) {
	return grad[:2], grad[2 : 3+d], grad[3+d:]
}

// scaleProduct applies the product rule to the k1·k2 term: ∂(k1·k2) =
// ∂k1·k2 + k1·∂k2, with g1 and g2 holding ∂k1 and ∂k2.
func scaleProduct(g1, g2 []float64, v1, v2 float64) {
	for i := range g1 {
		g1[i] *= v2
	}
	for i := range g2 {
		g2[i] *= v1
	}
}
