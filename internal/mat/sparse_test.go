package mat

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// randSparseTrips draws a random r-by-c pattern with about density*r*c
// entries, including some deliberate duplicates to exercise summing.
func randSparseTrips(rng *rand.Rand, r, c int, density float64) []Triplet {
	var trips []Triplet
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Float64() < density {
				trips = append(trips, Triplet{Row: i, Col: j, Val: rng.NormFloat64()})
				if rng.Float64() < 0.2 {
					trips = append(trips, Triplet{Row: i, Col: j, Val: rng.NormFloat64()})
				}
			}
		}
	}
	return trips
}

func TestNewSparseAssembly(t *testing.T) {
	// Unsorted input with duplicates: values sum, indices sort.
	s := NewSparse(3, 3, []Triplet{
		{2, 1, 4},
		{0, 2, 1},
		{0, 0, 2},
		{0, 2, 0.5},
		{2, 0, -1},
	})
	if s.NNZ() != 4 {
		t.Fatalf("nnz = %d, want 4", s.NNZ())
	}
	want := NewDenseData(3, 3, []float64{
		2, 0, 1.5,
		0, 0, 0,
		-1, 4, 0,
	})
	if !s.ToDense().Equalf(want, 0) {
		t.Fatalf("assembled %v, want %v", s.ToDense(), want)
	}
	if got := s.At(0, 2); got != 1.5 {
		t.Fatalf("At(0,2) = %v, want 1.5", got)
	}
	if got := s.At(1, 1); got != 0 {
		t.Fatalf("At(1,1) = %v, want 0", got)
	}
	// Entries summing to exactly zero keep their structural slot.
	z := NewSparse(1, 1, []Triplet{{0, 0, 1}, {0, 0, -1}})
	if z.NNZ() != 1 {
		t.Fatalf("zero-sum entry dropped: nnz = %d", z.NNZ())
	}
}

func TestSparseRoundTripsAndOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(12)
		c := 1 + rng.Intn(12)
		trips := randSparseTrips(rng, r, c, 0.3)
		s := NewSparse(r, c, trips)
		d := s.ToDense()
		// Dense round trip.
		if !csr(d).ToDense().Equalf(d, 0) {
			return false
		}
		x := make([]float64, c)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		// Mat-vec against dense.
		dx := d.MulVec(x)
		for i := range dx {
			if math.Abs(s.MulVec(x)[i]-dx[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSparseDiag(t *testing.T) {
	s := NewSparse(3, 3, []Triplet{{0, 0, 2}, {1, 1, -3}, {2, 0, 1}})
	want := []float64{2, -3, 0}
	for i, v := range s.Diag() {
		if v != want[i] {
			t.Fatalf("diag[%d] = %v, want %v", i, v, want[i])
		}
	}
}

// randSPDSparse builds an SPD matrix with a sparse pattern: a random
// weighted graph Laplacian plus a positive diagonal shift — the same
// structure reduced grid B-matrices have.
func randSPDSparse(rng *rand.Rand, n int) *Sparse {
	var trips []Triplet
	for i := 0; i < n; i++ {
		trips = append(trips, Triplet{Row: i, Col: i, Val: 1 + rng.Float64()})
	}
	edges := 2 * n
	for e := 0; e < edges; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		w := 0.5 + 2*rng.Float64()
		trips = append(trips,
			Triplet{Row: i, Col: j, Val: -w},
			Triplet{Row: j, Col: i, Val: -w},
			Triplet{Row: i, Col: i, Val: w},
			Triplet{Row: j, Col: j, Val: w},
		)
	}
	return NewSparse(n, n, trips)
}

// TestSolveCGSparseDenseParity is the sparse-vs-dense property test:
// over random sparse SPD systems, CG must agree with dense LU on the
// expanded matrix.
func TestSolveCGSparseDenseParity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		s := randSPDSparse(rng, n)
		d := s.ToDense()
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xs, err := SolveCG(s, b, CGOptions{})
		if err != nil {
			return false
		}
		xd, err := Solve(d, b)
		if err != nil {
			return false
		}
		for i := range xs {
			if math.Abs(xs[i]-xd[i]) > 1e-6*(1+math.Abs(xd[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSolveCGOpNonSPDSparse(t *testing.T) {
	// Negative diagonal assembled directly from triplets.
	s := NewSparse(2, 2, []Triplet{{0, 0, -1}, {1, 1, 1}})
	if _, err := SolveCG(s, []float64{1, 1}, CGOptions{}); !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular for negative diagonal, got %v", err)
	}
	// Indefinite with positive diagonal trips the curvature check.
	ind := NewSparse(2, 2, []Triplet{{0, 0, 1}, {0, 1, 2}, {1, 0, 2}, {1, 1, 1}})
	if _, err := SolveCG(ind, []float64{1, -1}, CGOptions{}); !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular for indefinite matrix, got %v", err)
	}
}

func TestSolveCGMaxIterExhaustion(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 30
	s := randSPDSparse(rng, n)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	_, err := SolveCG(s, b, CGOptions{MaxIter: 1, Tol: 1e-14})
	if err == nil {
		t.Fatal("want convergence failure at MaxIter 1")
	}
	if !strings.Contains(err.Error(), "did not converge in 1 iterations") {
		t.Fatalf("unexpected error: %v", err)
	}
	if errors.Is(err, ErrSingular) {
		t.Fatalf("exhaustion must not read as singularity: %v", err)
	}
}

func TestSolveCGIllConditioned(t *testing.T) {
	// Diagonal matrix with condition number 1e12: CG converges (diagonal
	// preconditioning makes it one effective iteration class) and the
	// solution must still be accurate in the relative sense.
	n := 8
	var trips []Triplet
	for i := 0; i < n; i++ {
		trips = append(trips, Triplet{Row: i, Col: i, Val: math.Pow(10, -float64(i)*12/float64(n-1))})
	}
	s := NewSparse(n, n, trips)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x, err := SolveCG(s, b, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := 1 / s.At(i, i)
		if math.Abs(x[i]-want) > 1e-6*want {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want)
		}
	}
	// A genuinely near-singular Hilbert matrix must either converge to a
	// small residual or report failure — never return silently wrong.
	h := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			h.Set(i, j, 1/float64(i+j+1))
		}
	}
	if x, err := SolveCG(csr(h), b, CGOptions{MaxIter: 10000}); err == nil {
		r := Sub(b, h.MulVec(x))
		if Norm2(r) > 1e-6*Norm2(b) {
			t.Fatalf("claimed convergence with residual %v", Norm2(r)/Norm2(b))
		}
	}
}

// TestSparseMulVecAllocs pins the //gridlint:zeroalloc annotation on
// Sparse.MulVecTo: the hot sparse product must not allocate.
func TestSparseMulVecAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 60
	s := randSPDSparse(rng, n)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	dst := make([]float64, n)
	allocs := testing.AllocsPerRun(200, func() {
		s.MulVecTo(dst, x)
	})
	if allocs != 0 {
		t.Fatalf("sparse mat-vec allocated %v times per run", allocs)
	}
}

func BenchmarkSparseMulVec1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 1000
	s := randSPDSparse(rng, n)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	dst := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MulVecTo(dst, x)
	}
}
