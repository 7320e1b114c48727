// Package recovery implements the missing-data recovery approaches the
// paper positions itself against (§II, [8]): exploiting the
// low-dimensionality of synchrophasor data to impute missing entries
// before running a complete-data application. Two tools are provided:
//
//   - SubspaceImpute: fill one sample's missing entries from the column
//     space of historical data (the online form used by recover-then-
//     classify pipelines);
//   - Complete: alternating-least-squares low-rank matrix completion of
//     a whole measurement window.
//
// The experiments use these to build the "recover, then classify"
// comparator whose latency and residual error motivate the paper's
// recovery-free design.
package recovery

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"pmuoutage/internal/mat"
)

// ErrNoObservations is returned when nothing is observed to recover from.
var ErrNoObservations = errors.New("recovery: no observed entries")

// Basis learns a rank-k orthonormal basis for the column space of the
// historical window X (features x time), the "low-dimensionality" prior
// of [8]. k is clamped to the numerical rank.
func Basis(x *mat.Dense, k int) (*mat.Dense, error) {
	d, t := x.Dims()
	if d == 0 || t == 0 {
		return nil, fmt.Errorf("recovery: empty history matrix")
	}
	if k <= 0 {
		k = 1
	}
	svd := mat.FactorSVD(x)
	if r := svd.Rank(0); k > r {
		k = r
	}
	if k == 0 {
		return nil, fmt.Errorf("recovery: history matrix is zero")
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	return svd.U.SelectCols(idx), nil
}

// SubspaceImpute fills the missing entries of sample x (missing[i] true)
// by least-squares fitting the observed entries to the basis and reading
// the fit at the missing rows. The observed entries are returned
// unchanged. Returns ErrNoObservations if everything is missing.
func SubspaceImpute(basis *mat.Dense, x []float64, missing []bool) ([]float64, error) {
	d, k := basis.Dims()
	if len(x) != d || len(missing) != d {
		return nil, fmt.Errorf("recovery: sample/mask length %d/%d != basis rows %d", len(x), len(missing), d)
	}
	var obs []int
	for i, m := range missing {
		if !m {
			obs = append(obs, i)
		}
	}
	if len(obs) == 0 {
		return nil, ErrNoObservations
	}
	out := make([]float64, d)
	copy(out, x)
	if len(obs) == d {
		return out, nil
	}
	ub := basis.SelectRows(obs)
	xo := make([]float64, len(obs))
	for i, j := range obs {
		xo[i] = x[j]
	}
	// alpha = U_obs⁺ x_obs; rank deficiency (fewer observations than k)
	// is handled by the pseudo-inverse's minimum-norm solution.
	alpha := mat.PseudoInverse(ub).MulVec(xo)
	fit := basis.MulVec(alpha)
	for i, m := range missing {
		if m {
			out[i] = fit[i]
		}
	}
	_ = k
	return out, nil
}

// CompleteOptions configures the ALS matrix completion.
type CompleteOptions struct {
	Rank   int     // target rank (default 3)
	Iters  int     // ALS sweeps (default 50)
	Lambda float64 // ridge regularisation (default 1e-6)
	Seed   int64   // factor initialisation
	Tol    float64 // relative observed-residual stop (default 1e-8)
}

func (o CompleteOptions) withDefaults() CompleteOptions {
	if o.Rank <= 0 {
		o.Rank = 3
	}
	if o.Iters <= 0 {
		o.Iters = 50
	}
	if o.Lambda <= 0 {
		o.Lambda = 1e-6
	}
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	return o
}

// Complete fills the missing entries of an observation matrix X
// (missing[i][j] true means X[i,j] was not observed) with a rank-r
// alternating-least-squares factorisation X ≈ U Vᵀ fitted to the
// observed entries. Observed entries are returned unchanged.
func Complete(x *mat.Dense, missing [][]bool, opts CompleteOptions) (*mat.Dense, error) {
	opts = opts.withDefaults()
	d, t := x.Dims()
	if len(missing) != d {
		return nil, fmt.Errorf("recovery: mask rows %d != %d", len(missing), d)
	}
	obsCount := 0
	for i := range missing {
		if len(missing[i]) != t {
			return nil, fmt.Errorf("recovery: mask row %d has %d cols, want %d", i, len(missing[i]), t)
		}
		for j := range missing[i] {
			if !missing[i][j] {
				obsCount++
			}
		}
	}
	if obsCount == 0 {
		return nil, ErrNoObservations
	}
	r := opts.Rank
	if r > d {
		r = d
	}
	if r > t {
		r = t
	}

	// Spectral initialisation: the SVD of the zero-filled matrix lands
	// the factors in the right basin — random initialisation makes ALS
	// stall in local minima on a sizeable fraction of instances. A dash
	// of seeded noise breaks exact ties in degenerate spectra.
	rng := rand.New(rand.NewSource(opts.Seed + 1))
	zf := x.Clone()
	for i := 0; i < d; i++ {
		for j := 0; j < t; j++ {
			if missing[i][j] {
				zf.Set(i, j, 0)
			}
		}
	}
	svd := mat.FactorSVD(zf)
	u := mat.NewDense(d, r)
	v := mat.NewDense(t, r)
	for k := 0; k < r; k++ {
		scale := math.Sqrt(svd.S[k])
		for i := 0; i < d; i++ {
			u.Set(i, k, svd.U.At(i, k)*scale+1e-6*rng.NormFloat64())
		}
		for j := 0; j < t; j++ {
			v.Set(j, k, svd.V.At(j, k)*scale+1e-6*rng.NormFloat64())
		}
	}

	// ALS is a biconvex method: each start can land on a different
	// stationary point. Run the spectral start plus a few random
	// restarts and keep the factors with the smallest observed
	// residual.
	bestU, bestV := u, v
	bestRes := math.Inf(1)
	for start := 0; start < 4; start++ {
		if start > 0 {
			for i := 0; i < d; i++ {
				for k := 0; k < r; k++ {
					u.Set(i, k, rng.NormFloat64())
				}
			}
			for j := 0; j < t; j++ {
				for k := 0; k < r; k++ {
					v.Set(j, k, rng.NormFloat64())
				}
			}
		}
		prev := math.Inf(1)
		for iter := 0; iter < opts.Iters; iter++ {
			// Fix V, solve each row of U on its observed columns, then
			// the transpose sweep.
			if err := alsSweepRows(x, missing, u, v, opts.Lambda); err != nil {
				return nil, err
			}
			if err := alsSweepCols(x, missing, u, v, opts.Lambda); err != nil {
				return nil, err
			}
			res := observedResidual(x, missing, u, v)
			if prev-res <= opts.Tol*(1+prev) {
				break
			}
			prev = res
		}
		res := observedResidual(x, missing, u, v)
		if res < bestRes {
			bestRes = res
			bestU = u.Clone()
			bestV = v.Clone()
		}
	}
	u, v = bestU, bestV

	out := x.Clone()
	for i := 0; i < d; i++ {
		for j := 0; j < t; j++ {
			if missing[i][j] {
				var s float64
				for k := 0; k < r; k++ {
					s += u.At(i, k) * v.At(j, k)
				}
				out.Set(i, j, s)
			}
		}
	}
	return out, nil
}

// alsSweepRows updates U row by row: u_i = argmin Σ_j∈obs (x_ij − u_i·v_j)².
func alsSweepRows(x *mat.Dense, missing [][]bool, u, v *mat.Dense, lambda float64) error {
	d, _ := x.Dims()
	_, r := u.Dims()
	for i := 0; i < d; i++ {
		a := mat.NewDense(r, r)
		b := make([]float64, r)
		cnt := 0
		for j := 0; j < x.Cols(); j++ {
			if missing[i][j] {
				continue
			}
			cnt++
			vj := v.RawRow(j)
			for p := 0; p < r; p++ {
				for q := 0; q < r; q++ {
					a.Add(p, q, vj[p]*vj[q])
				}
				b[p] += vj[p] * x.At(i, j)
			}
		}
		if cnt == 0 {
			continue // fully unobserved row: keep current factor
		}
		for p := 0; p < r; p++ {
			a.Add(p, p, lambda)
		}
		sol, err := mat.Solve(a, b)
		if err != nil {
			return fmt.Errorf("recovery: ALS row solve: %w", err)
		}
		u.SetRow(i, sol)
	}
	return nil
}

// alsSweepCols updates V row by row (one row per time column of X).
func alsSweepCols(x *mat.Dense, missing [][]bool, u, v *mat.Dense, lambda float64) error {
	_, t := x.Dims()
	_, r := u.Dims()
	for j := 0; j < t; j++ {
		a := mat.NewDense(r, r)
		b := make([]float64, r)
		cnt := 0
		for i := 0; i < x.Rows(); i++ {
			if missing[i][j] {
				continue
			}
			cnt++
			ui := u.RawRow(i)
			for p := 0; p < r; p++ {
				for q := 0; q < r; q++ {
					a.Add(p, q, ui[p]*ui[q])
				}
				b[p] += ui[p] * x.At(i, j)
			}
		}
		if cnt == 0 {
			continue
		}
		for p := 0; p < r; p++ {
			a.Add(p, p, lambda)
		}
		sol, err := mat.Solve(a, b)
		if err != nil {
			return fmt.Errorf("recovery: ALS column solve: %w", err)
		}
		v.SetRow(j, sol)
	}
	return nil
}

func observedResidual(x *mat.Dense, missing [][]bool, u, v *mat.Dense) float64 {
	var sum float64
	_, r := u.Dims()
	for i := 0; i < x.Rows(); i++ {
		for j := 0; j < x.Cols(); j++ {
			if missing[i][j] {
				continue
			}
			var s float64
			ui := u.RawRow(i)
			vj := v.RawRow(j)
			for k := 0; k < r; k++ {
				s += ui[k] * vj[k]
			}
			d := x.At(i, j) - s
			sum += d * d
		}
	}
	return sum
}
