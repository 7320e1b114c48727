package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters a
// (numerically) singular matrix.
var ErrSingular = errors.New("mat: matrix is singular")

// LU holds an LU factorization with partial pivoting: P*A = L*U.
type LU struct {
	lu  *Dense // combined L (unit lower) and U storage
	piv []int  // row permutation
}

// FactorLU computes the LU factorization of the square matrix a with
// partial pivoting. It returns ErrSingular when a pivot underflows.
func FactorLU(a *Dense) (*LU, error) {
	n := a.rows
	if a.cols != n {
		return nil, fmt.Errorf("mat: FactorLU requires square matrix, got %dx%d", a.rows, a.cols)
	}
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Pivot: largest |value| in column k at or below the diagonal.
		p := k
		mx := math.Abs(lu.data[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.data[i*n+k]); a > mx {
				mx, p = a, i
			}
		}
		if mx == 0 || math.IsNaN(mx) { //gridlint:ignore floatcmp LAPACK-style exact-zero pivot column means structurally singular
			return nil, ErrSingular
		}
		if p != k {
			rk := lu.data[k*n : (k+1)*n]
			rp := lu.data[p*n : (p+1)*n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		pivVal := lu.data[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu.data[i*n+k] / pivVal
			lu.data[i*n+k] = m
			if m == 0 { //gridlint:ignore floatcmp exact-zero multiplier skip; near-zero still eliminates correctly
				continue
			}
			ri := lu.data[i*n : (i+1)*n]
			rk := lu.data[k*n : (k+1)*n]
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	return &LU{lu: lu, piv: piv}, nil
}

// Solve solves A*x = b for a single right-hand side.
func (f *LU) Solve(b []float64) ([]float64, error) {
	n := f.lu.rows
	if len(b) != n {
		return nil, fmt.Errorf("mat: LU.Solve rhs length %d != %d", len(b), n)
	}
	x := make([]float64, n)
	// Apply permutation.
	for i, p := range f.piv {
		x[i] = b[p]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		row := f.lu.data[i*n : (i+1)*n]
		var s float64
		for j := 0; j < i; j++ {
			s += row[j] * x[j]
		}
		x[i] -= s
	}
	// Back substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.data[i*n : (i+1)*n]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		d := row[i]
		if d == 0 { //gridlint:ignore floatcmp LAPACK-style exact-zero diagonal means singular back-substitution
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
}

// SolveMat solves A*X = B column by column.
func (f *LU) SolveMat(b *Dense) (*Dense, error) {
	n := f.lu.rows
	if b.rows != n {
		return nil, fmt.Errorf("mat: LU.SolveMat rhs rows %d != %d", b.rows, n)
	}
	out := NewDense(n, b.cols)
	for j := 0; j < b.cols; j++ {
		x, err := f.Solve(b.Col(j))
		if err != nil {
			return nil, err
		}
		out.SetCol(j, x)
	}
	return out, nil
}

// Solve solves the square system a*x = b using LU with partial pivoting.
func Solve(a *Dense, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// Inverse returns the inverse of a square matrix, or ErrSingular.
func Inverse(a *Dense) (*Dense, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.SolveMat(Identity(a.rows))
}
