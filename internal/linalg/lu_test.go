package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// luSolve factorizes a into a fresh LU and solves a·x = b.
func luSolve(a *Matrix, b []float64) ([]float64, error) {
	f := NewLU(a.Rows)
	if err := f.Factor(a); err != nil {
		return nil, err
	}
	x := make([]float64, len(b))
	f.SolveInto(b, x)
	return x, nil
}

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
		got, err := luSolve(a, b)
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
	x, err := luSolve(a, []float64{3, 7})
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
	if err := NewLU(2).Factor(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestLUNonSquare(t *testing.T) {
	if err := NewLU(2).Factor(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected error for non-square input")
	}
	if err := NewLU(3).Factor(NewMatrix(2, 2)); err == nil {
		t.Fatal("expected error for a matrix of the wrong size")
	}
}

func TestLUDoesNotModifyInput(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 3, 4})
	orig := a.Clone()
	if err := NewLU(2).Factor(a); err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != orig.Data[i] {
			t.Fatal("Factor modified its input")
		}
	}
}

// A reused factor refactorizes in its own storage without allocating, solves
// in place, and gives the same bits as a fresh factor of the same matrix.
func TestLUReuseMatchesFreshWithoutAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 7
	f := NewLU(n)
	mats := make([]*Matrix, 3)
	for k := range mats {
		mats[k] = randomMatrix(rng, n, n)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	for _, a := range mats {
		if err := f.Factor(a); err != nil {
			t.Fatal(err)
		}
		copy(x, b)
		f.SolveInto(x, x)
		want, err := luSolve(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
				t.Fatalf("reused factor x[%d] = %v, fresh factor %v", i, x[i], want[i])
			}
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := f.Factor(mats[0]); err != nil {
			t.Fatal(err)
		}
		f.SolveInto(b, x)
	})
	if allocs != 0 {
		t.Fatalf("Factor+SolveInto allocates %.1f times per call", allocs)
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
