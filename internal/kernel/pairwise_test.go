package kernel

import (
	"math"
	"math/rand"
	"testing"
)

// profileKernels enumerates every built-in kernel (including the NARGP
// composite) with a fresh instance per call.
func profileKernels(d int) map[string]Kernel {
	return map[string]Kernel{
		"seard":    NewSEARD(d),
		"matern32": NewMatern32(d),
		"matern52": NewMatern52(d),
		"constant": NewConstant(d),
		"rq":       NewRationalQuadratic(d),
		"periodic": NewPeriodic(d),
		"sum":      NewSum(NewSEARD(d), NewMatern52(d)),
		"product":  NewProduct(NewSEARD(d), NewConstant(d)),
		"slice":    NewSlice(NewSEARD(d-1), 1, d, d),
		"nargp":    NewNARGP(d - 1),
	}
}

func TestProfileBitIdenticalToDirect(t *testing.T) {
	const d = 4
	rng := rand.New(rand.NewSource(7))
	for name, k := range profileKernels(d) {
		t.Run(name, func(t *testing.T) {
			nh := k.NumHyper()
			for trial := 0; trial < 20; trial++ {
				h := make([]float64, nh)
				lo, hi := BoundsVectors(k)
				for j := range h {
					h[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
				}
				SetHyperVector(k, h)
				p := ProfileOf(k)
				if p == nil {
					t.Fatalf("%s: no profile", name)
				}
				if p.NumHyper() != nh {
					t.Fatalf("%s: profile NumHyper %d != %d", name, p.NumHyper(), nh)
				}
				x1 := make([]float64, d)
				x2 := make([]float64, d)
				diff := make([]float64, d)
				for j := 0; j < d; j++ {
					x1[j] = rng.NormFloat64()
					x2[j] = rng.NormFloat64()
					diff[j] = x1[j] - x2[j]
				}
				gDirect := make([]float64, nh)
				gProf := make([]float64, nh)
				if got, want := p.Eval(diff), k.Eval(x1, x2); got != want {
					t.Fatalf("%s trial %d: profile Eval %v != direct %v", name, trial, got, want)
				}
				vd := k.EvalGrad(x1, x2, gDirect)
				vp := p.EvalGrad(diff, gProf)
				if vp != vd {
					t.Fatalf("%s trial %d: profile EvalGrad %v != direct %v", name, trial, vp, vd)
				}
				for j := range gDirect {
					if gProf[j] != gDirect[j] {
						t.Fatalf("%s trial %d: grad[%d] profile %v != direct %v",
							name, trial, j, gProf[j], gDirect[j])
					}
				}
				// Zero-distance pair (diagonal of a covariance matrix).
				if got, want := p.Eval(make([]float64, d)), k.Eval(x1, x1); got != want {
					t.Fatalf("%s trial %d: diagonal profile %v != direct %v", name, trial, got, want)
				}
			}
		})
	}
}

// opaqueKernel wraps a kernel while hiding its Pairwise implementation.
type opaqueKernel struct{ Kernel }

func (o opaqueKernel) Clone() Kernel { return opaqueKernel{o.Kernel.Clone()} }

func TestProfileOfUnsupportedReturnsNil(t *testing.T) {
	plain := opaqueKernel{NewSEARD(2)}
	if p := ProfileOf(plain); p != nil {
		t.Fatal("opaque kernel unexpectedly produced a profile")
	}
	// Composites degrade to nil when any sub-kernel is unsupported.
	for name, k := range map[string]Kernel{
		"sum":     NewSum(NewSEARD(2), plain),
		"product": NewProduct(plain, NewSEARD(2)),
		"slice":   NewSlice(opaqueKernel{NewSEARD(1)}, 0, 1, 2),
	} {
		if p := ProfileOf(k); p != nil {
			t.Fatalf("%s with opaque sub-kernel unexpectedly produced a profile", name)
		}
	}
}

func TestProfileSnapshotsHyperparameters(t *testing.T) {
	k := NewSEARD(2)
	SetHyperVector(k, []float64{0.3, -0.2, 0.1})
	p := ProfileOf(k)
	x1 := []float64{0.5, -1.2}
	x2 := []float64{-0.3, 0.7}
	diff := []float64{x1[0] - x2[0], x1[1] - x2[1]}
	before := p.Eval(diff)
	SetHyperVector(k, []float64{1.1, 0.4, -0.9})
	if got := p.Eval(diff); got != before {
		t.Fatalf("profile tracked SetHyper: %v != snapshot %v", got, before)
	}
	if fresh := ProfileOf(k).Eval(diff); fresh != k.Eval(x1, x2) {
		t.Fatalf("fresh profile %v != direct %v", fresh, k.Eval(x1, x2))
	}
}

// TestSplitNARGPBitIdentical checks the eq. (9) split against the whole
// profile: recombined factors must reproduce Eval bit for bit, diagonal
// included.
func TestSplitNARGPBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, d := range []int{1, 5, 36} {
		k := NewNARGP(d)
		lo, hi := BoundsVectors(k)
		for trial := 0; trial < 20; trial++ {
			h := make([]float64, k.NumHyper())
			for j := range h {
				h[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
			}
			SetHyperVector(k, h)
			p := ProfileOf(k)
			s, ok := SplitNARGP(p, d+1)
			if !ok || s.Dim != d {
				t.Fatalf("d=%d: SplitNARGP = (dim %d, %v), want (dim %d, true)", d, s.Dim, ok, d)
			}
			diff := make([]float64, d+1)
			for pass := 0; pass < 2; pass++ {
				if pass == 1 {
					for j := range diff {
						diff[j] = rng.NormFloat64()
					}
				}
				got := float64(s.K1.Eval(diff[d:])*s.K2.Eval(diff[:d])) + s.K3.Eval(diff[:d])
				if want := p.Eval(diff); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("d=%d trial %d: split %v != profile %v", d, trial, got, want)
				}
			}
		}
	}
}

// TestSplitNARGPRejectsOtherShapes covers the fallback contract: only the
// NewNARGP structure splits.
func TestSplitNARGPRejectsOtherShapes(t *testing.T) {
	const d = 3
	se := func(n int) Kernel { return NewSEARD(n) }
	for name, k := range map[string]Kernel{
		"seard": se(d + 1),
		"sum":   NewSum(se(d+1), se(d+1)),
		"swapped-product": NewSum(NewProduct(NewSlice(se(d), 0, d, d+1), NewSlice(se(1), d, d+1, d+1)),
			NewSlice(se(d), 0, d, d+1)),
		"k1-not-last": NewSum(NewProduct(NewSlice(se(1), 0, 1, d+1), NewSlice(se(d), 1, d+1, d+1)),
			NewSlice(se(d), 1, d+1, d+1)),
		"k3-partial": NewSum(NewProduct(NewSlice(se(1), d, d+1, d+1), NewSlice(se(d), 0, d, d+1)),
			NewSlice(se(d-1), 0, d-1, d+1)),
		"extra-coordinate": NewSum(NewProduct(NewSlice(se(1), d, d+1, d+2), NewSlice(se(d), 0, d, d+2)),
			NewSlice(se(d), 0, d, d+2)),
	} {
		if _, ok := SplitNARGP(ProfileOf(k), k.Dim()); ok {
			t.Fatalf("%s: SplitNARGP accepted a non-eq. (9) profile", name)
		}
	}
	if _, ok := SplitNARGP(nil, d+1); ok {
		t.Fatal("SplitNARGP accepted a nil profile")
	}
}

// TestSEInvSq checks the input-gradient factors: 1/l_i² of an SE-ARD
// profile, ∂k/∂diff_i = −k·diff_i·SEInvSq_i against a central difference,
// finite (clamped) for a length scale trained towards zero, and absent for
// every other profile.
func TestSEInvSq(t *testing.T) {
	k := NewSEARD(3)
	k.SetHyper([]float64{0.3, -0.5, 0.2, -800})
	p := k.Profile()
	s2, ok := SEInvSq(p)
	if !ok || math.Abs(s2[0]-math.Exp(1)) > 1e-12 || math.Abs(s2[1]-math.Exp(-0.4)) > 1e-12 || s2[2] != math.MaxFloat64 {
		t.Fatalf("SEInvSq = %v, %v", s2, ok)
	}
	k.SetHyper([]float64{0.3, -0.5, 0.2, 0.1})
	p = k.Profile()
	s2, _ = SEInvSq(p)
	diff := []float64{0.4, -0.7, 0.2}
	v := p.Eval(diff)
	for i := range diff {
		const h = 1e-6
		up := append([]float64(nil), diff...)
		dn := append([]float64(nil), diff...)
		up[i] += h
		dn[i] -= h
		fd := (p.Eval(up) - p.Eval(dn)) / (2 * h)
		if got := -v * diff[i] * s2[i]; math.Abs(got-fd) > 1e-8 {
			t.Fatalf("∂k/∂diff_%d = %v, central difference %v", i, got, fd)
		}
	}
	for name, other := range profileKernels(4) {
		if _, ok := SEInvSq(ProfileOf(other)); ok != (name == "seard") {
			t.Fatalf("SEInvSq on %s: ok = %v", name, ok)
		}
	}
}
