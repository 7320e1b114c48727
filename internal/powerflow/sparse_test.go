package powerflow

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"pmuoutage/internal/grid"
)

// randMeshedGrid builds a feasible n-bus meshed grid with a slack, a
// few PV buses, and lognormal-ish loads — enough structure to exercise
// every Jacobian block (P/Q × angle/magnitude) on both solver paths.
func randMeshedGrid(rng *rand.Rand, n int) *grid.Grid {
	g := &grid.Grid{Name: "randmesh", BaseMVA: 100}
	for i := 0; i < n; i++ {
		b := grid.Bus{ID: i + 1, Type: grid.PQ, Vm: 1}
		switch {
		case i == 0:
			b.Type = grid.Slack
			b.Vm = 1.03
		case i%7 == 3:
			b.Type = grid.PV
			b.Vm = 1.02
		}
		g.Buses = append(g.Buses, b)
	}
	for i := 1; i < n; i++ {
		parent := rng.Intn(i)
		g.Branches = append(g.Branches, grid.Branch{
			From: parent, To: i, R: 0.01 + 0.02*rng.Float64(),
			X: 0.05 + 0.1*rng.Float64(), Status: true,
		})
	}
	for k := 0; k < n; k++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		g.Branches = append(g.Branches, grid.Branch{
			From: a, To: b, R: 0.01, X: 0.05 + 0.2*rng.Float64(), Status: true,
		})
	}
	var load float64
	for i := 1; i < n; i++ {
		if g.Buses[i].Type != grid.PQ {
			continue
		}
		pd := 0.02 + 0.05*rng.Float64()
		g.Buses[i].Pd = pd
		g.Buses[i].Qd = pd * 0.3
		load += pd
	}
	var pv []int
	for i := range g.Buses {
		if g.Buses[i].Type == grid.PV {
			pv = append(pv, i)
		}
	}
	for _, i := range pv {
		g.Buses[i].Pg = 0.7 * load / float64(len(pv))
	}
	return g
}

// TestSolveACSparseDenseParity: forcing the sparse path on grids the
// dense path also solves must agree to tight tolerance — the two paths
// share formulas and differ only in the inner linear solver.
func TestSolveACSparseDenseParity(t *testing.T) {
	for _, n := range []int{12, 35, 60} {
		rng := rand.New(rand.NewSource(int64(n)))
		g := randMeshedGrid(rng, n)
		dense, err := SolveAC(g, Options{FlatStart: true, Solver: SolverDense})
		if err != nil {
			t.Fatalf("n=%d dense: %v", n, err)
		}
		sparse, err := SolveAC(g, Options{FlatStart: true, Solver: SolverSparse})
		if err != nil {
			t.Fatalf("n=%d sparse: %v", n, err)
		}
		for i := 0; i < n; i++ {
			if math.Abs(dense.Vm[i]-sparse.Vm[i]) > 1e-7 || math.Abs(dense.Va[i]-sparse.Va[i]) > 1e-7 {
				t.Fatalf("n=%d bus %d: dense (%.12f, %.12f) vs sparse (%.12f, %.12f)",
					n, i, dense.Vm[i], dense.Va[i], sparse.Vm[i], sparse.Va[i])
			}
		}
	}
}

func TestSolveDCSparseDenseParity(t *testing.T) {
	for _, n := range []int{12, 35, 60} {
		rng := rand.New(rand.NewSource(int64(n) + 100))
		g := randMeshedGrid(rng, n)
		dense, err := SolveDCWith(g, SolverDense)
		if err != nil {
			t.Fatalf("n=%d dense: %v", n, err)
		}
		sparse, err := SolveDCWith(g, SolverSparse)
		if err != nil {
			t.Fatalf("n=%d sparse: %v", n, err)
		}
		for i := 0; i < n; i++ {
			if math.Abs(dense.Va[i]-sparse.Va[i]) > 1e-9 {
				t.Fatalf("n=%d bus %d: dense angle %.15f vs sparse %.15f", n, i, dense.Va[i], sparse.Va[i])
			}
		}
	}
}

// TestSolverAutoDispatch pins the dispatch rule: below the threshold
// SolverAuto is the dense path bit for bit; at or above it, the sparse
// path bit for bit.
func TestSolverAutoDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	small := randMeshedGrid(rng, 30)
	auto, err := SolveAC(small, Options{FlatStart: true})
	if err != nil {
		t.Fatal(err)
	}
	dense, err := SolveAC(small, Options{FlatStart: true, Solver: SolverDense})
	if err != nil {
		t.Fatal(err)
	}
	for i := range auto.Vm {
		if auto.Vm[i] != dense.Vm[i] || auto.Va[i] != dense.Va[i] {
			t.Fatalf("small-grid auto dispatch deviated from dense at bus %d", i)
		}
	}

	big := randMeshedGrid(rng, SparseBusThreshold)
	autoBig, err := SolveAC(big, Options{FlatStart: true})
	if err != nil {
		t.Fatal(err)
	}
	sparseBig, err := SolveAC(big, Options{FlatStart: true, Solver: SolverSparse})
	if err != nil {
		t.Fatal(err)
	}
	for i := range autoBig.Vm {
		if autoBig.Vm[i] != sparseBig.Vm[i] || autoBig.Va[i] != sparseBig.Va[i] {
			t.Fatalf("large-grid auto dispatch deviated from sparse at bus %d", i)
		}
	}

	dcAuto, err := SolveDC(big)
	if err != nil {
		t.Fatal(err)
	}
	dcSparse, err := SolveDCWith(big, SolverSparse)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dcAuto.Va {
		if dcAuto.Va[i] != dcSparse.Va[i] {
			t.Fatalf("large-grid DC auto dispatch deviated from sparse at bus %d", i)
		}
	}
}

// TestSparseACPowerBalance: the sparse solution must satisfy the
// physics, not just match the dense solver — check scheduled
// injections at every bus of a threshold-sized grid.
func TestSparseACPowerBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randMeshedGrid(rng, SparseBusThreshold+10)
	sol, err := SolveAC(g, Options{FlatStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Mismatch >= 1e-8 {
		t.Fatalf("mismatch %v not below tolerance", sol.Mismatch)
	}
	ybus := g.Ybus()
	n := g.N()
	for i := 0; i < n; i++ {
		if g.Buses[i].Type != grid.PQ {
			continue
		}
		var sum complex128
		for j := 0; j < n; j++ {
			vj := complex(sol.Vm[j]*math.Cos(sol.Va[j]), sol.Vm[j]*math.Sin(sol.Va[j]))
			sum += ybus.At(i, j) * vj
		}
		vi := complex(sol.Vm[i]*math.Cos(sol.Va[i]), sol.Vm[i]*math.Sin(sol.Va[i]))
		s := vi * complex(real(sum), -imag(sum))
		wantP := g.Buses[i].Pg - g.Buses[i].Pd
		wantQ := g.Buses[i].Qg - g.Buses[i].Qd
		if math.Abs(real(s)-wantP) > 1e-7 || math.Abs(imag(s)-wantQ) > 1e-7 {
			t.Fatalf("bus %d injection (%v) != scheduled (%v, %v)", i, s, wantP, wantQ)
		}
	}
}

// TestSparseDenseVerdictParity pins the property that lets the sparse
// path run one fast-decoupled iteration with no fallback: across meshed
// grids pushed from light load to past the nose of the PV curve, with
// lossy branches, the sparse solver converges exactly when dense
// Newton–Raphson (the oracle) does, and every sparse failure is typed
// ErrNoConvergence.
func TestSparseDenseVerdictParity(t *testing.T) {
	converged, failed := 0, 0
	for _, n := range []int{40, 60} {
		for _, load := range []float64{1, 4, 8} {
			for _, rScale := range []float64{1, 6} {
				for seed := int64(1); seed <= 3; seed++ {
					g := randMeshedGrid(rand.New(rand.NewSource(seed*1000+int64(n))), n)
					for i := range g.Buses {
						g.Buses[i].Pd *= load
						g.Buses[i].Qd *= load
						g.Buses[i].Pg *= load
					}
					for i := range g.Branches {
						g.Branches[i].R *= rScale
					}
					_, dErr := SolveAC(g, Options{FlatStart: true, Solver: SolverDense})
					_, sErr := SolveAC(g, Options{FlatStart: true, Solver: SolverSparse})
					if (dErr == nil) != (sErr == nil) {
						t.Fatalf("n=%d load×%g R×%g seed %d: dense err %v, sparse err %v",
							n, load, rScale, seed, dErr, sErr)
					}
					if sErr != nil && !errors.Is(sErr, ErrNoConvergence) {
						t.Fatalf("n=%d load×%g R×%g seed %d: sparse failure not ErrNoConvergence: %v",
							n, load, rScale, seed, sErr)
					}
					if sErr == nil {
						converged++
					} else {
						failed++
					}
				}
			}
		}
	}
	t.Logf("%d grids converge on both paths, %d fail on both", converged, failed)
	if converged == 0 || failed == 0 {
		t.Fatalf("table no longer spans both verdicts (%d converge, %d fail)", converged, failed)
	}
}
