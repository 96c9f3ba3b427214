package kernel

import (
	"math"
	"math/rand"
	"testing"
)

// profileKernels enumerates both kernels over d-dimensional inputs, with a
// fresh instance per call.
func profileKernels(d int) map[string]Kernel {
	return map[string]Kernel{
		"seard": NewSEARD(d),
		"nargp": NewNARGP(d - 1),
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
				k.SetHyper(h)
				p := k.Profile()
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

func TestProfileSnapshotsHyperparameters(t *testing.T) {
	k := NewSEARD(2)
	k.SetHyper([]float64{0.3, -0.2, 0.1})
	p := k.Profile()
	x1 := []float64{0.5, -1.2}
	x2 := []float64{-0.3, 0.7}
	diff := []float64{x1[0] - x2[0], x1[1] - x2[1]}
	before := p.Eval(diff)
	k.SetHyper([]float64{1.1, 0.4, -0.9})
	if got := p.Eval(diff); got != before {
		t.Fatalf("profile tracked SetHyper: %v != snapshot %v", got, before)
	}
	if fresh := k.Profile().Eval(diff); fresh != k.Eval(x1, x2) {
		t.Fatalf("fresh profile %v != direct %v", fresh, k.Eval(x1, x2))
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
		if _, ok := SEInvSq(other.Profile()); ok != (name == "seard") {
			t.Fatalf("SEInvSq on %s: ok = %v", name, ok)
		}
	}
}

// TestSplitNARGPBitIdentical checks the eq. (9) split that gp's augmented
// predictor consumes against the whole profile: the K1/K2/K3 factors,
// recombined as float64(k1·k2) + k3, must reproduce Eval bit for bit,
// diagonal included.
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
			k.SetHyper(h)
			p := k.Profile()
			s, ok := p.(*NARGPProfile)
			if !ok || s.Dim != d {
				t.Fatalf("d=%d: Profile %T, want *NARGPProfile with Dim %d", d, p, d)
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
