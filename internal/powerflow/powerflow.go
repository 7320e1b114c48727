// Package powerflow solves the steady-state AC power-flow problem with a
// Newton–Raphson iteration in polar form (a fast-decoupled iteration on
// the sparse path, see sparse.go), plus a linear DC approximation.
// It substitutes for MATPOWER in the paper's data-generation pipeline:
// given a grid and a load/generation profile it produces the bus voltage
// phasors that play the role of PMU measurements.
package powerflow

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"pmuoutage/internal/grid"
	"pmuoutage/internal/mat"
)

// ErrNoConvergence is returned when the AC iteration fails to reach the
// mismatch tolerance within the iteration limit, or diverges.
var ErrNoConvergence = errors.New("powerflow: Newton-Raphson did not converge")

// Options configures the AC solver.
type Options struct {
	Tol     float64 //gridlint:unit pu // max power mismatch in p.u.; default 1e-8
	MaxIter int     // iteration cap; default 30
	// FlatStart forces the initial guess to Vm=1, Va=0 instead of the
	// voltages stored in the grid (which allow warm starts).
	FlatStart bool
	// Solver selects the linear-algebra backend: SolverAuto (default)
	// dispatches on grid size — dense below SparseBusThreshold buses,
	// CSR operators with iterative solves at or above it.
	Solver Solver
}

func (o Options) withDefaults() Options {
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 30
	}
	return o
}

// Solution holds a converged power-flow state.
type Solution struct {
	Vm         []float64 //gridlint:unit pu // voltage magnitude per bus (p.u.)
	Va         []float64 //gridlint:unit rad // voltage angle per bus (radians)
	Iterations int
	Mismatch   float64 //gridlint:unit pu // final max power mismatch
}

// Phasor returns the complex voltage at bus i.
func (s *Solution) Phasor(i int) complex128 {
	return cmplx.Rect(s.Vm[i], s.Va[i])
}

// SolveAC solves the grid's AC power-flow equations: Newton–Raphson on
// the dense path, the fast-decoupled iteration on the sparse path.
// Injections are taken from the grid's bus records: P_i = Pg_i - Pd_i,
// Q_i = Qg_i - Qd_i (per unit).
func SolveAC(g *grid.Grid, opts Options) (*Solution, error) {
	opts = opts.withDefaults()
	if opts.Solver.sparse(g.N()) {
		return solveACSparse(g, opts)
	}
	n := g.N()
	slack, err := g.SlackIndex()
	if err != nil {
		return nil, err
	}
	ybus := g.Ybus()
	gm := mat.NewDense(n, n) // conductance
	bm := mat.NewDense(n, n) // susceptance
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			y := ybus.At(i, j)
			gm.Set(i, j, real(y))
			bm.Set(i, j, imag(y))
		}
	}

	// State: angles for all non-slack buses, magnitudes for PQ buses.
	var pvpq, pq []int
	for i := 0; i < n; i++ {
		if i == slack {
			continue
		}
		if g.Buses[i].Type == PQint {
			pq = append(pq, i)
		}
		pvpq = append(pvpq, i)
	}

	vm := make([]float64, n)
	va := make([]float64, n)
	for i := 0; i < n; i++ {
		if opts.FlatStart {
			vm[i], va[i] = 1, 0
		} else {
			vm[i], va[i] = g.Buses[i].Vm, g.Buses[i].Va
			if vm[i] <= 0 {
				vm[i] = 1
			}
		}
		// PV and slack magnitudes are fixed at their set points.
		if g.Buses[i].Type != PQint {
			vm[i] = g.Buses[i].Vm
			if vm[i] <= 0 {
				vm[i] = 1
			}
		}
	}
	va[slack] = g.Buses[slack].Va

	pSched := make([]float64, n)
	qSched := make([]float64, n)
	for i := 0; i < n; i++ {
		pSched[i] = g.Buses[i].Pg - g.Buses[i].Pd
		qSched[i] = g.Buses[i].Qg - g.Buses[i].Qd
	}

	nb := len(pvpq)
	nq := len(pq)
	dim := nb + nq
	if dim == 0 {
		return &Solution{Vm: vm, Va: va}, nil
	}

	pcalc := make([]float64, n)
	qcalc := make([]float64, n)
	calc := func() {
		for i := 0; i < n; i++ {
			var pi, qi float64
			gr := gm.RawRow(i)
			br := bm.RawRow(i)
			for j := 0; j < n; j++ {
				if gr[j] == 0 && br[j] == 0 { //gridlint:ignore floatcmp structural sparsity skip: admittance entries are exactly zero off the graph
					continue
				}
				d := va[i] - va[j]
				c, s := math.Cos(d), math.Sin(d)
				pi += vm[j] * (gr[j]*c + br[j]*s)
				qi += vm[j] * (gr[j]*s - br[j]*c)
			}
			pcalc[i] = vm[i] * pi
			qcalc[i] = vm[i] * qi
		}
	}

	mismatch := func() ([]float64, float64) {
		f := make([]float64, dim)
		var mx float64
		for k, i := range pvpq {
			f[k] = pcalc[i] - pSched[i]
			if a := math.Abs(f[k]); a > mx {
				mx = a
			}
		}
		for k, i := range pq {
			f[nb+k] = qcalc[i] - qSched[i]
			if a := math.Abs(f[nb+k]); a > mx {
				mx = a
			}
		}
		return f, mx
	}

	var iter int
	for iter = 0; iter <= opts.MaxIter; iter++ {
		calc()
		f, mx := mismatch()
		if mx < opts.Tol {
			return &Solution{Vm: vm, Va: va, Iterations: iter, Mismatch: mx}, nil
		}
		if iter == opts.MaxIter {
			break
		}
		j := jacobian(n, gm, bm, vm, va, pcalc, qcalc, pvpq, pq)
		lu, err := mat.FactorLU(j)
		if err != nil {
			return nil, fmt.Errorf("powerflow: singular Jacobian at iteration %d: %w", iter, err)
		}
		dx, err := lu.Solve(f)
		if err != nil {
			return nil, fmt.Errorf("powerflow: Jacobian solve failed: %w", err)
		}
		for k, i := range pvpq {
			va[i] -= dx[k]
		}
		for k, i := range pq {
			vm[i] -= dx[nb+k]
			if vm[i] < 0.2 {
				vm[i] = 0.2 // keep the iteration away from voltage collapse
			}
		}
	}
	return nil, fmt.Errorf("%w after %d iterations", ErrNoConvergence, opts.MaxIter)
}

// PQint mirrors grid.PQ; aliased locally to keep call sites short.
const PQint = grid.PQ

// jacobian builds the polar Newton-Raphson Jacobian
//
//	[ dP/dVa  dP/dVm ]
//	[ dQ/dVa  dQ/dVm ]
//
// restricted to the free variables (angles of pvpq, magnitudes of pq).
//
//gridlint:unit vm pu
//gridlint:unit va rad
func jacobian(n int, gm, bm *mat.Dense, vm, va, pcalc, qcalc []float64, pvpq, pq []int) *mat.Dense {
	nb, nq := len(pvpq), len(pq)
	j := mat.NewDense(nb+nq, nb+nq)
	// Position lookups.
	posA := make([]int, n)
	posM := make([]int, n)
	for i := range posA {
		posA[i], posM[i] = -1, -1
	}
	for k, i := range pvpq {
		posA[i] = k
	}
	for k, i := range pq {
		posM[i] = nb + k
	}
	for _, i := range pvpq {
		ri := posA[i]
		gi := gm.RawRow(i)
		bi := bm.RawRow(i)
		for k := 0; k < n; k++ {
			if gi[k] == 0 && bi[k] == 0 && k != i { //gridlint:ignore floatcmp structural sparsity skip: admittance entries are exactly zero off the graph
				continue
			}
			d := va[i] - va[k]
			c, s := math.Cos(d), math.Sin(d)
			if k == i {
				// dP_i/dVa_i and dQ_i/dVa_i etc. use the standard
				// textbook identities in terms of P_calc and Q_calc.
				j.Set(ri, ri, -qcalc[i]-bi[i]*vm[i]*vm[i])
				if posM[i] >= 0 {
					j.Set(ri, posM[i], pcalc[i]/vm[i]+gi[i]*vm[i])
				}
				if qi := posM[i]; qi >= 0 {
					j.Set(qi, ri, pcalc[i]-gi[i]*vm[i]*vm[i])
					j.Set(qi, qi, qcalc[i]/vm[i]-bi[i]*vm[i])
				}
				continue
			}
			// Off-diagonal terms.
			vivk := vm[i] * vm[k]
			dpdva := vivk * (gi[k]*s - bi[k]*c)
			dqdva := -vivk * (gi[k]*c + bi[k]*s)
			dpdvm := vm[i] * (gi[k]*c + bi[k]*s)
			dqdvm := vm[i] * (gi[k]*s - bi[k]*c)
			if ck := posA[k]; ck >= 0 {
				j.Set(ri, ck, dpdva)
				if qi := posM[i]; qi >= 0 {
					j.Set(qi, ck, dqdva)
				}
			}
			if ck := posM[k]; ck >= 0 {
				j.Set(ri, ck, dpdvm)
				if qi := posM[i]; qi >= 0 {
					j.Set(qi, ck, dqdvm)
				}
			}
		}
	}
	return j
}

// SolveDC computes the linear DC power-flow angles: B' * theta = P,
// with the slack angle fixed at zero and magnitudes all 1. Used as the
// fast approximate fallback and by baseline studies. Grids at or above
// SparseBusThreshold buses solve on the sparse CG path; use
// SolveDCWith to force a backend.
func SolveDC(g *grid.Grid) (*Solution, error) {
	return SolveDCWith(g, SolverAuto)
}

// SolveDCWith is SolveDC with an explicit solver backend selection.
func SolveDCWith(g *grid.Grid, solver Solver) (*Solution, error) {
	if solver.sparse(g.N()) {
		return solveDCSparse(g)
	}
	n := g.N()
	slack, err := g.SlackIndex()
	if err != nil {
		return nil, err
	}
	lap := g.Laplacian()
	// Reduce out the slack row/column.
	idx := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if i != slack {
			idx = append(idx, i)
		}
	}
	b := lap.SelectRows(idx).SelectCols(idx)
	p := make([]float64, len(idx))
	for k, i := range idx {
		p[k] = g.Buses[i].Pg - g.Buses[i].Pd
	}
	th, err := mat.Solve(b, p)
	if err != nil {
		return nil, fmt.Errorf("powerflow: DC solve failed (islanded grid?): %w", err)
	}
	vm := make([]float64, n)
	va := make([]float64, n)
	for i := range vm {
		vm[i] = 1
	}
	for k, i := range idx {
		va[i] = th[k]
	}
	return &Solution{Vm: vm, Va: va, Iterations: 1}, nil
}

// Dispatch scales every generator's active output by the same factor so
// that total generation matches total load plus the given loss fraction.
// It returns a modified copy of the grid. The paper's data generator
// "adjusts power output accordingly" when loads vary; proportional
// re-dispatch is the standard way to do that.
func Dispatch(g *grid.Grid, lossFrac float64) *grid.Grid {
	ng := g.Clone()
	var totalLoad, totalGen float64
	for i := range ng.Buses {
		totalLoad += ng.Buses[i].Pd
		if ng.Buses[i].Type != grid.PQ {
			totalGen += ng.Buses[i].Pg
		}
	}
	if totalGen <= 0 {
		return ng
	}
	scale := totalLoad * (1 + lossFrac) / totalGen
	for i := range ng.Buses {
		if ng.Buses[i].Type != grid.PQ {
			ng.Buses[i].Pg *= scale
		}
	}
	return ng
}
