package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// csr converts a dense fixture to CSR, keeping only the exactly
// nonzero entries, so CG tests can state their systems densely.
// randSPD builds a dense symmetric positive-definite matrix: A*Aᵀ
// shifted by n on the diagonal.
func randSPD(rng *rand.Rand, n int) *Dense {
	a := randDense(rng, n, n)
	spd := a.Mul(a.T())
	for i := 0; i < n; i++ {
		spd.Add(i, i, float64(n))
	}
	return spd
}

func csr(d *Dense) *Sparse {
	r, c := d.Dims()
	var trips []Triplet
	for i := 0; i < r; i++ {
		for j, v := range d.RawRow(i) {
			if v != 0 { //gridlint:ignore floatcmp CSR keeps exactly-nonzero structure only
				trips = append(trips, Triplet{Row: i, Col: j, Val: v})
			}
		}
	}
	return NewSparse(r, c, trips)
}

func TestSolveCGMatchesLU(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		a := randSPD(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		cg, err := SolveCG(csr(a), b, CGOptions{})
		if err != nil {
			return false
		}
		lu, err := Solve(a, b)
		if err != nil {
			return false
		}
		for i := range cg {
			if math.Abs(cg[i]-lu[i]) > 1e-6*(1+math.Abs(lu[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSolveCGLaplacianLike(t *testing.T) {
	// A reduced grid Laplacian: ring plus chords, one node grounded.
	rng := rand.New(rand.NewSource(3))
	n := 40
	a := NewDense(n, n)
	add := func(i, j int, w float64) {
		if i >= 0 && j >= 0 {
			a.Add(i, j, -w)
			a.Add(j, i, -w)
		}
		if i >= 0 {
			a.Add(i, i, w)
		}
		if j >= 0 {
			a.Add(j, j, w)
		}
	}
	for i := 0; i < n; i++ {
		j := i + 1
		if j == n {
			j = -1 // grounded node closes the ring
		}
		add(i, j, 5+10*rng.Float64())
	}
	for k := 0; k < n; k++ {
		add(rng.Intn(n), rng.Intn(n), 1+rng.Float64())
	}
	// Self-loop artifacts from i==j chords inflate the diagonal only,
	// which keeps the matrix SPD.
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, err := SolveCG(csr(a), b, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := Sub(b, a.MulVec(x))
	if Norm2(r) > 1e-8*Norm2(b) {
		t.Fatalf("relative residual %v", Norm2(r)/Norm2(b))
	}
}

func TestSolveCGValidation(t *testing.T) {
	if _, err := SolveCG(csr(NewDense(2, 3)), []float64{1, 2}, CGOptions{}); err == nil {
		t.Fatal("expected square error")
	}
	if _, err := SolveCG(csr(Identity(2)), []float64{1}, CGOptions{}); err == nil {
		t.Fatal("expected rhs length error")
	}
	// Non-positive diagonal rejected.
	bad := NewDenseData(2, 2, []float64{-1, 0, 0, 1})
	if _, err := SolveCG(csr(bad), []float64{1, 1}, CGOptions{}); !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular for negative diagonal, got %v", err)
	}
	// Indefinite matrix with positive diagonal fails on curvature when
	// the rhs excites the negative eigendirection ([1,-1] here).
	indef := NewDenseData(2, 2, []float64{1, 2, 2, 1})
	if _, err := SolveCG(csr(indef), []float64{1, -1}, CGOptions{}); !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular for indefinite matrix, got %v", err)
	}
}

func TestSolveCGZeroRHS(t *testing.T) {
	x, err := SolveCG(csr(Identity(3)), []float64{0, 0, 0}, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("zero rhs must give zero solution")
		}
	}
}

func BenchmarkSolveCGLaplacian117(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 117
	a := NewDense(n, n)
	for i := 0; i < n-1; i++ {
		w := 5 + 10*rng.Float64()
		a.Add(i, i, w)
		a.Add(i+1, i+1, w)
		a.Add(i, i+1, -w)
		a.Add(i+1, i, -w)
	}
	for i := 0; i < n; i++ {
		a.Add(i, i, 1)
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	s := csr(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveCG(s, rhs, CGOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
