package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when an LU factorization encounters a pivot that is
// exactly zero (the matrix is singular to working precision).
var ErrSingular = errors.New("linalg: matrix is singular")

// LU is a reusable row-pivoted LU factorization P·A = L·U of n×n matrices,
// packed into one row-major buffer (unit lower triangle implicit). It is the
// general-purpose solver of the circuit simulator, where matrices are square
// but not symmetric and one system size is refactorized on every Newton
// iteration: Factor and SolveInto reuse the factor's storage and never
// allocate.
type LU struct {
	n     int
	lu    []float64
	pivot []int
}

// NewLU returns an LU workspace for n×n systems.
func NewLU(n int) *LU {
	return &LU{n: n, lu: make([]float64, n*n), pivot: make([]int, n)}
}

// Factor copies a into the factor's storage and factorizes it with partial
// pivoting, replacing any previous factorization. a is not modified.
func (f *LU) Factor(a *Matrix) error {
	n := f.n
	if a.Rows != n || a.Cols != n {
		return fmt.Errorf("linalg: LU of %d×%d matrix with a %d×%d factor", a.Rows, a.Cols, n, n)
	}
	lu := f.lu
	copy(lu, a.Data)
	for k := 0; k < n; k++ {
		// Find pivot row.
		p := k
		mx := math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu[i*n+k]); v > mx {
				mx, p = v, i
			}
		}
		if mx == 0 {
			return ErrSingular
		}
		f.pivot[k] = p
		if p != k {
			rk := lu[k*n : (k+1)*n]
			rp := lu[p*n : (p+1)*n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
		}
		inv := 1 / lu[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu[i*n+k] * inv
			lu[i*n+k] = m
			if m == 0 {
				continue
			}
			ri := lu[i*n+k+1 : (i+1)*n]
			rk := lu[k*n+k+1 : (k+1)*n]
			for j := range ri {
				ri[j] -= m * rk[j]
			}
		}
	}
	return nil
}

// SolveInto solves A·x = b with the current factorization into x (len n).
// x may alias b.
func (f *LU) SolveInto(b, x []float64) {
	n := f.n
	if len(b) != n || len(x) != n {
		panic(fmt.Sprintf("linalg: LU solve lengths %d, %d != %d", len(b), len(x), n))
	}
	copy(x, b)
	// Apply permutation.
	for k := 0; k < n; k++ {
		if p := f.pivot[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		row := f.lu[i*n : i*n+i]
		s := x[i]
		for k, v := range row {
			s -= v * x[k]
		}
		x[i] = s
	}
	// Backward substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		row := f.lu[i*n : (i+1)*n]
		for k := i + 1; k < n; k++ {
			s -= row[k] * x[k]
		}
		x[i] = s / row[i]
	}
}
