package mat

import (
	"fmt"
	"math"
)

// CGOptions configures the conjugate-gradient solver.
type CGOptions struct {
	// Tol is the relative residual target ‖r‖/‖b‖ (default 1e-10).
	Tol float64
	// MaxIter caps iterations (default 4n).
	MaxIter int
}

// SolveCG solves A x = b for symmetric positive definite sparse A by
// the conjugate-gradient method with Jacobi (diagonal) preconditioning.
// Reduced grid Laplacians and the fast-decoupled B′/B″ matrices — the
// systems sparse power flow solves — are SPD and sparse, where CG's
// O(nnz) iterations beat dense LU's O(n³) as systems grow. Returns
// ErrSingular (wrapped) when A is detectably not positive definite
// (a non-positive diagonal or a non-positive curvature) and a
// convergence error when MaxIter is exhausted.
func SolveCG(a *Sparse, b []float64, opts CGOptions) ([]float64, error) {
	rows, cols := a.Dims()
	n := rows
	if cols != n {
		return nil, fmt.Errorf("mat: SolveCG requires square matrix, got %dx%d", rows, cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("mat: SolveCG rhs length %d != %d", len(b), n)
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-10
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 4 * n
	}
	// Jacobi preconditioner from the diagonal.
	m := a.Diag()
	for i, d := range m {
		if d <= 0 {
			return nil, fmt.Errorf("mat: SolveCG diagonal %d = %g: %w", i, d, ErrSingular)
		}
		m[i] = 1 / d
	}
	bn := Norm2(b)
	if bn == 0 { //gridlint:ignore floatcmp exact-zero RHS has the exact solution x=0
		return make([]float64, n), nil
	}
	x := make([]float64, n)
	r := make([]float64, n)
	copy(r, b)
	z := make([]float64, n)
	for i := range z {
		z[i] = m[i] * r[i]
	}
	p := make([]float64, n)
	copy(p, z)
	rz := Dot(r, z)
	ap := make([]float64, n)
	for iter := 0; iter < opts.MaxIter; iter++ {
		a.MulVecTo(ap, p)
		pap := Dot(p, ap)
		if pap <= 0 || math.IsNaN(pap) {
			return nil, fmt.Errorf("mat: SolveCG curvature %g at iteration %d: %w", pap, iter, ErrSingular)
		}
		alpha := rz / pap
		for i := 0; i < n; i++ {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		if Norm2(r) <= opts.Tol*bn {
			return x, nil
		}
		for i := range z {
			z[i] = m[i] * r[i]
		}
		rzNew := Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := 0; i < n; i++ {
			p[i] = z[i] + beta*p[i]
		}
	}
	return nil, fmt.Errorf("mat: SolveCG did not converge in %d iterations (relative residual %.2e)",
		opts.MaxIter, Norm2(r)/bn)
}
