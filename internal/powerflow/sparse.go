// Sparse power-flow path: the AC mismatch and reduced B-matrix (DC)
// formulations of powerflow.go, restaged on CSR operators and
// Jacobi-preconditioned CG so cost scales with the number of branches
// instead of buses². AC runs one fast-decoupled iteration instead of
// the dense path's full Newton–Raphson. Grids at or above
// SparseBusThreshold buses dispatch here automatically; smaller grids
// keep the historical dense path bit for bit.

package powerflow

import (
	"fmt"
	"math"

	"pmuoutage/internal/grid"
	"pmuoutage/internal/mat"
)

// SparseBusThreshold is the bus count at which SolveAC and SolveDC
// switch from the dense kernels to the sparse operator path. Below it
// the dense path runs unchanged, so every grid the detector was tuned
// on (14–118 buses) produces byte-identical results to the pre-sparse
// code.
const SparseBusThreshold = 150

// Solver selects the linear-algebra backend for a solve.
type Solver int

const (
	// SolverAuto dispatches on grid size: dense below
	// SparseBusThreshold buses, sparse at or above it.
	SolverAuto Solver = iota
	// SolverDense forces the historical dense kernels (LU).
	SolverDense
	// SolverSparse forces the CSR + iterative path regardless of size.
	SolverSparse
)

func (s Solver) sparse(n int) bool {
	switch s {
	case SolverDense:
		return false
	case SolverSparse:
		return true
	default:
		return n >= SparseBusThreshold
	}
}

// ybusAdj is the CSR adjacency view of the bus admittance matrix:
// row i's neighbors are cols[rowPtr[i]:rowPtr[i+1]] with conductance
// gv and susceptance bv. It is scanned once from the grid's Ybus so
// the sparse path shares the dense path's single source of truth for
// taps, shifts, and shunts.
type ybusAdj struct {
	rowPtr []int
	cols   []int
	gv     []float64 //gridlint:unit pu // conductance entries (p.u.)
	bv     []float64 //gridlint:unit pu // susceptance entries (p.u.)
}

func newYbusAdj(g *grid.Grid) *ybusAdj {
	n := g.N()
	ybus := g.Ybus()
	a := &ybusAdj{rowPtr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			y := ybus.At(i, j)
			if y == 0 { //gridlint:ignore floatcmp admittance entries are exactly zero off the graph
				continue
			}
			a.cols = append(a.cols, j)
			a.gv = append(a.gv, real(y))
			a.bv = append(a.bv, imag(y))
		}
		a.rowPtr[i+1] = len(a.cols)
	}
	return a
}

// acState is the sparse AC iteration's state setup — identical to the
// dense solver's.
type acState struct {
	n        int
	adj      *ybusAdj
	pvpq, pq []int
	posA     []int     // bus -> index in pvpq, -1 for the slack
	vm       []float64 //gridlint:unit pu // iterate voltage magnitudes
	va       []float64 //gridlint:unit rad // iterate voltage angles
	pSched   []float64 //gridlint:unit pu // scheduled P injections
	qSched   []float64 //gridlint:unit pu // scheduled Q injections
	pcalc    []float64 //gridlint:unit pu // calculated P injections
	qcalc    []float64 //gridlint:unit pu // calculated Q injections
}

func newACState(g *grid.Grid, opts Options) (*acState, error) {
	n := g.N()
	slack, err := g.SlackIndex()
	if err != nil {
		return nil, err
	}
	st := &acState{n: n, adj: newYbusAdj(g)}
	for i := 0; i < n; i++ {
		if i == slack {
			continue
		}
		if g.Buses[i].Type == PQint {
			st.pq = append(st.pq, i)
		}
		st.pvpq = append(st.pvpq, i)
	}
	st.vm = make([]float64, n)
	st.va = make([]float64, n)
	for i := 0; i < n; i++ {
		if opts.FlatStart {
			st.vm[i], st.va[i] = 1, 0
		} else {
			st.vm[i], st.va[i] = g.Buses[i].Vm, g.Buses[i].Va
			if st.vm[i] <= 0 {
				st.vm[i] = 1
			}
		}
		if g.Buses[i].Type != PQint {
			st.vm[i] = g.Buses[i].Vm
			if st.vm[i] <= 0 {
				st.vm[i] = 1
			}
		}
	}
	st.va[slack] = g.Buses[slack].Va

	st.pSched = make([]float64, n)
	st.qSched = make([]float64, n)
	for i := 0; i < n; i++ {
		st.pSched[i] = g.Buses[i].Pg - g.Buses[i].Pd
		st.qSched[i] = g.Buses[i].Qg - g.Buses[i].Qd
	}
	st.posA = make([]int, n)
	for i := range st.posA {
		st.posA[i] = -1
	}
	for k, i := range st.pvpq {
		st.posA[i] = k
	}
	st.pcalc = make([]float64, n)
	st.qcalc = make([]float64, n)
	return st, nil
}

// calc computes the AC power injections at the current iterate —
// adjacency-driven, O(nnz).
func (st *acState) calc() {
	for i := 0; i < st.n; i++ {
		var pi, qi float64
		for k := st.adj.rowPtr[i]; k < st.adj.rowPtr[i+1]; k++ {
			j := st.adj.cols[k]
			gv, bv := st.adj.gv[k], st.adj.bv[k]
			d := st.va[i] - st.va[j]
			c, s := math.Cos(d), math.Sin(d)
			pi += st.vm[j] * (gv*c + bv*s)
			qi += st.vm[j] * (gv*s - bv*c)
		}
		st.pcalc[i] = st.vm[i] * pi
		st.qcalc[i] = st.vm[i] * qi
	}
}

// mismatch returns the max P (pvpq) and Q (pq) mismatch magnitude —
// the dense solver's convergence metric, unchanged.
func (st *acState) mismatch() float64 {
	var mx float64
	for _, i := range st.pvpq {
		if a := math.Abs(st.pcalc[i] - st.pSched[i]); a > mx {
			mx = a
		}
	}
	for _, i := range st.pq {
		if a := math.Abs(st.qcalc[i] - st.qSched[i]); a > mx {
			mx = a
		}
	}
	return mx
}

// solveACSparse is SolveAC on the CSR path: identical state setup and
// mismatch definition (max |ΔP|, |ΔQ| in p.u.), but the iteration is
// fast-decoupled (XB scheme): the P–θ half-step solves the constant
// series-reactance Laplacian B′ and the Q–V half-step the constant
// −Im(Ybus) matrix B″, both SPD for inductive transmission grids and
// both solved by Jacobi-preconditioned CG. The matrices never change
// across iterations, and every inner solve is O(nnz·iters) instead of
// the dense path's O(n³) LU. A capacitive B″ or a CG breakdown fails
// the solve; divergence, a stall, or an exhausted budget fail it with
// ErrNoConvergence, which callers treat as an infeasible operating
// point (the grid builder sheds load, dataset generation drops the
// scenario).
func solveACSparse(g *grid.Grid, opts Options) (*Solution, error) {
	st, err := newACState(g, opts)
	if err != nil {
		return nil, err
	}
	nb, nq := len(st.pvpq), len(st.pq)
	dim := nb + nq
	if dim == 0 {
		return &Solution{Vm: st.vm, Va: st.va}, nil
	}

	// B′: the 1/X series-reactance Laplacian over non-slack buses — a
	// grounded Laplacian (slack row/col dropped), hence SPD on any grid
	// connected through the slack.
	bpTrips := make([]mat.Triplet, 0, 4*len(g.Branches))
	for _, br := range g.Branches {
		if !br.Status || br.X == 0 { //gridlint:ignore floatcmp X==0 marks an unmodelled branch sentinel, never a computed reactance
			continue
		}
		w := 1 / br.X
		f, t := st.posA[br.From], st.posA[br.To]
		if f >= 0 {
			bpTrips = append(bpTrips, mat.Triplet{Row: f, Col: f, Val: w})
		}
		if t >= 0 {
			bpTrips = append(bpTrips, mat.Triplet{Row: t, Col: t, Val: w})
		}
		if f >= 0 && t >= 0 {
			bpTrips = append(bpTrips,
				mat.Triplet{Row: f, Col: t, Val: -w},
				mat.Triplet{Row: t, Col: f, Val: -w},
			)
		}
	}
	bp := mat.NewSparse(nb, nb, bpTrips)

	// B″: −Im(Ybus) restricted to PQ buses (shunts, charging, and taps
	// included). Inductive grids make it SPD; if shunt compensation
	// breaks that, CG's curvature check fails the solve.
	var bpp *mat.Sparse
	if nq > 0 {
		qpos := make([]int, st.n)
		for i := range qpos {
			qpos[i] = -1
		}
		for k, i := range st.pq {
			qpos[i] = k
		}
		bppTrips := make([]mat.Triplet, 0, len(st.adj.cols))
		for _, i := range st.pq {
			ri := qpos[i]
			for k := st.adj.rowPtr[i]; k < st.adj.rowPtr[i+1]; k++ {
				if cj := qpos[st.adj.cols[k]]; cj >= 0 {
					bppTrips = append(bppTrips, mat.Triplet{Row: ri, Col: cj, Val: -st.adj.bv[k]})
				}
			}
		}
		bpp = mat.NewSparse(nq, nq, bppTrips)
	}

	cgOpts := mat.CGOptions{Tol: 1e-10, MaxIter: 40 * dim}
	fp := make([]float64, nb)
	fq := make([]float64, nq)
	// The decoupled iteration converges linearly, so give it more outer
	// steps than Newton's default before declaring failure — but bail
	// out early on divergence or stall, so infeasible draws (the
	// builder's load-shedding loop probes many) fail cheaply instead of
	// burning the full budget.
	maxIter := 6 * opts.MaxIter
	best := math.Inf(1)
	stall := 0
	for iter := 0; iter <= maxIter; iter++ {
		st.calc()
		mx := st.mismatch()
		if mx < opts.Tol {
			return &Solution{Vm: st.vm, Va: st.va, Iterations: iter, Mismatch: mx}, nil
		}
		if math.IsNaN(mx) || mx > 1e6 {
			return nil, fmt.Errorf("%w: decoupled iteration diverged (mismatch %g)", ErrNoConvergence, mx)
		}
		if mx < 0.9*best {
			best = mx
			stall = 0
		} else if stall++; stall > 10 {
			return nil, fmt.Errorf("%w: decoupled iteration stalled at mismatch %g", ErrNoConvergence, mx)
		}
		if iter == maxIter {
			break
		}
		// P–θ half-step: B′ Δθ = ΔP / Vm.
		for k, i := range st.pvpq {
			fp[k] = (st.pcalc[i] - st.pSched[i]) / st.vm[i]
		}
		dva, err := mat.SolveCG(bp, fp, cgOpts)
		if err != nil {
			return nil, fmt.Errorf("powerflow: decoupled P-theta solve: %w", err)
		}
		for k, i := range st.pvpq {
			st.va[i] -= dva[k]
		}
		if nq > 0 {
			// Q–V half-step on refreshed injections: B″ ΔV = ΔQ / Vm.
			st.calc()
			for k, i := range st.pq {
				fq[k] = (st.qcalc[i] - st.qSched[i]) / st.vm[i]
			}
			dvm, err := mat.SolveCG(bpp, fq, cgOpts)
			if err != nil {
				return nil, fmt.Errorf("powerflow: decoupled Q-V solve: %w", err)
			}
			for k, i := range st.pq {
				st.vm[i] -= dvm[k]
				if st.vm[i] < 0.2 {
					st.vm[i] = 0.2 // keep the iteration away from voltage collapse
				}
			}
		}
	}
	return nil, fmt.Errorf("%w after %d decoupled iterations", ErrNoConvergence, maxIter)
}

// solveDCSparse solves the reduced DC system B' θ = P with CG on a CSR
// operator instead of dense LU. The reduced Laplacian of a connected
// grid is SPD, so plain preconditioned CG applies directly.
func solveDCSparse(g *grid.Grid) (*Solution, error) {
	n := g.N()
	slack, err := g.SlackIndex()
	if err != nil {
		return nil, err
	}
	// Reduced index map: bus i -> row red[i], slack dropped.
	red := make([]int, n)
	idx := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if i == slack {
			red[i] = -1
			continue
		}
		red[i] = len(idx)
		idx = append(idx, i)
	}
	// Stamp the reduced Laplacian directly from branches — the same 1/X
	// weights grid.Laplacian uses, without the n² dense detour.
	trips := make([]mat.Triplet, 0, 4*len(g.Branches))
	for _, br := range g.Branches {
		if !br.Status || br.X == 0 { //gridlint:ignore floatcmp X==0 marks an unmodelled branch sentinel, never a computed reactance
			continue
		}
		w := 1 / br.X
		f, t := red[br.From], red[br.To]
		if f >= 0 {
			trips = append(trips, mat.Triplet{Row: f, Col: f, Val: w})
		}
		if t >= 0 {
			trips = append(trips, mat.Triplet{Row: t, Col: t, Val: w})
		}
		if f >= 0 && t >= 0 {
			trips = append(trips,
				mat.Triplet{Row: f, Col: t, Val: -w},
				mat.Triplet{Row: t, Col: f, Val: -w},
			)
		}
	}
	b := mat.NewSparse(len(idx), len(idx), trips)
	p := make([]float64, len(idx))
	for k, i := range idx {
		p[k] = g.Buses[i].Pg - g.Buses[i].Pd
	}
	th, err := mat.SolveCG(b, p, mat.CGOptions{Tol: 1e-12, MaxIter: 20 * len(idx)})
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
