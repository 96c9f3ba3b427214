package kernel

import (
	"math"
	"math/rand"
	"testing"
)

// nargpReference is eq. (9) assembled by hand from three SE-ARD kernels that
// carry the [k1, k2, k3] blocks of a NARGP hyperparameter vector.
type nargpReference struct {
	d          int
	k1, k2, k3 *SEARD
}

func newNARGPReference(d int, h []float64) nargpReference {
	r := nargpReference{d: d, k1: NewSEARD(1), k2: NewSEARD(d), k3: NewSEARD(d)}
	r.k1.SetHyper(h[:2])
	r.k2.SetHyper(h[2 : 3+d])
	r.k3.SetHyper(h[3+d:])
	return r
}

func (r nargpReference) eval(z1, z2 []float64) float64 {
	d := r.d
	return float64(r.k1.Eval(z1[d:], z2[d:])*r.k2.Eval(z1[:d], z2[:d])) + r.k3.Eval(z1[:d], z2[:d])
}

// evalGrad applies the product rule: ∂(k1·k2) = ∂k1·k2 + k1·∂k2, laid out
// [k1, k2, k3].
func (r nargpReference) evalGrad(z1, z2 []float64) (float64, []float64) {
	d := r.d
	g1 := make([]float64, 2)
	g2 := make([]float64, 1+d)
	g3 := make([]float64, 1+d)
	v1 := r.k1.EvalGrad(z1[d:], z2[d:], g1)
	v2 := r.k2.EvalGrad(z1[:d], z2[:d], g2)
	v3 := r.k3.EvalGrad(z1[:d], z2[:d], g3)
	for i := range g1 {
		g1[i] *= v2
	}
	for i := range g2 {
		g2[i] *= v1
	}
	return float64(v1*v2) + v3, append(append(g1, g2...), g3...)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameBitsVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestNARGPMatchesReference pins the concrete eq. (9) kernel bit for bit
// against the hand-assembled reference: values, gradients, the
// hyperparameter and bounds layout, clones, and the pair profile.
func TestNARGPMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, d := range []int{1, 5, 36} {
		k := NewNARGP(d)
		if k.Dim() != d+1 || k.NumHyper() != 4+2*d {
			t.Fatalf("d=%d: Dim %d, NumHyper %d", d, k.Dim(), k.NumHyper())
		}
		lo, hi := BoundsVectors(k)
		wantLo, wantHi := BoundsVectors(NewSEARD(1))
		for i := 0; i < 2; i++ {
			wantLo, wantHi = NewSEARD(d).Bounds(wantLo, wantHi)
		}
		if !sameBitsVec(lo, wantLo) || !sameBitsVec(hi, wantHi) {
			t.Fatalf("d=%d: Bounds %v/%v, want %v/%v", d, lo, hi, wantLo, wantHi)
		}
		for trial := 0; trial < 20; trial++ {
			h := make([]float64, k.NumHyper())
			for j := range h {
				h[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
			}
			if n := k.SetHyper(h); n != len(h) {
				t.Fatalf("d=%d: SetHyper consumed %d of %d", d, n, len(h))
			}
			if got := HyperVector(k); !sameBitsVec(got, h) {
				t.Fatalf("d=%d: Hyper %v after SetHyper %v", d, got, h)
			}
			ref := newNARGPReference(d, h)
			clone := k.Clone()
			p := k.Profile()
			np, ok := p.(*NARGPProfile)
			if !ok || np.Dim != d || p.NumHyper() != len(h) {
				t.Fatalf("d=%d: Profile %T (ok %v), NumHyper %d", d, p, ok, p.NumHyper())
			}
			z1, z2 := randVec(rng, d+1), randVec(rng, d+1)
			diff := make([]float64, d+1)
			for j := range diff {
				diff[j] = z1[j] - z2[j]
			}
			for _, pair := range [][2][]float64{{z1, z2}, {z1, z1}} {
				a, b := pair[0], pair[1]
				want := ref.eval(a, b)
				if got := k.Eval(a, b); !sameBits(got, want) {
					t.Fatalf("d=%d trial %d: Eval %v, reference %v", d, trial, got, want)
				}
				if got := clone.Eval(a, b); !sameBits(got, want) {
					t.Fatalf("d=%d trial %d: clone Eval %v, reference %v", d, trial, got, want)
				}
				wantV, wantG := ref.evalGrad(a, b)
				g := make([]float64, len(h))
				if v := k.EvalGrad(a, b, g); !sameBits(v, wantV) || !sameBitsVec(g, wantG) {
					t.Fatalf("d=%d trial %d: EvalGrad %v %v, reference %v %v", d, trial, v, g, wantV, wantG)
				}
				pd := diff
				if &a[0] == &b[0] {
					pd = make([]float64, d+1)
				}
				if got := p.Eval(pd); !sameBits(got, want) {
					t.Fatalf("d=%d trial %d: Profile Eval %v, reference %v", d, trial, got, want)
				}
				pg := make([]float64, len(h))
				if v := p.EvalGrad(pd, pg); !sameBits(v, wantV) || !sameBitsVec(pg, wantG) {
					t.Fatalf("d=%d trial %d: Profile EvalGrad %v %v, reference %v %v", d, trial, v, pg, wantV, wantG)
				}
			}
			// The clone owns its hyperparameters.
			bumped := append([]float64(nil), h...)
			for j := range bumped {
				bumped[j] = lo[j]
			}
			clone.SetHyper(bumped)
			if got := HyperVector(k); !sameBitsVec(got, h) {
				t.Fatalf("d=%d: SetHyper on a clone moved the original to %v", d, got)
			}
		}
	}
}
