package linalg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLUSolveRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		a := randomMatrix(rng, n, n)
		// Diagonal dominance guarantees nonsingularity.
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n)+1)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := a.MulVec(x)
		got, err := SolveLinear(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if !almostEq(got[i], x[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLURequiresPivoting(t *testing.T) {
	// Zero on the leading diagonal forces a row swap.
	a := NewMatrixFrom(2, 2, []float64{
		0, 1,
		1, 0,
	})
	x, err := SolveLinear(a, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 7, 1e-14) || !almostEq(x[1], 3, 1e-14) {
		t.Fatalf("x = %v, want [7 3]", x)
	}
}

func TestLUSingular(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{
		1, 2,
		2, 4,
	})
	if _, err := NewLU(a); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := NewLU(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

func TestLUDoesNotModifyInput(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 3, 4})
	orig := a.Clone()
	if _, err := NewLU(a); err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != orig.Data[i] {
			t.Fatal("NewLU modified its input")
		}
	}
}

func TestSymEigenDiagonal(t *testing.T) {
	a := NewMatrixFrom(3, 3, []float64{
		5, 0, 0,
		0, 1, 0,
		0, 0, 3,
	})
	vals, _, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 3, 5}
	for i := range want {
		if !almostEq(vals[i], want[i], 1e-10) {
			t.Fatalf("eigenvalues = %v, want %v", vals, want)
		}
	}
}

func TestSymEigenReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomSPD(rng, 5)
	vals, V, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	// A ≈ V·diag(vals)·Vᵀ
	D := NewMatrix(5, 5)
	for i, v := range vals {
		D.Set(i, i, v)
	}
	recon := V.Mul(D).Mul(V.T())
	for i := range a.Data {
		if !almostEq(recon.Data[i], a.Data[i], 1e-8) {
			t.Fatal("eigendecomposition does not reconstruct A")
		}
	}
	// Eigenvalues of an SPD matrix must be positive.
	for _, v := range vals {
		if v <= 0 {
			t.Fatalf("non-positive eigenvalue %v for SPD matrix", v)
		}
	}
}
