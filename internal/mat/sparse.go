package mat

import (
	"fmt"
	"sort"
)

// Op is a matrix-free linear operator: anything that can multiply a
// vector. Dense and Sparse both satisfy it, as do the powerflow
// Jacobian wrappers, so iterative solvers (SolveCGOp) never need the
// explicit matrix. MulVecTo writes A*x into dst; dst and x must not
// alias and len(dst), len(x) must match Dims.
type Op interface {
	Dims() (rows, cols int)
	MulVecTo(dst, x []float64)
}

// Diagonal is implemented by operators that can expose their diagonal
// cheaply; SolveCGOp uses it to build the Jacobi preconditioner. The
// returned slice must not be mutated by the caller.
type Diagonal interface {
	Diag() []float64
}

// Triplet is one coordinate-format entry used to assemble sparse
// matrices. Duplicate (Row, Col) entries are summed on assembly, which
// matches how powerflow stamps branch contributions into Y-bus-like
// matrices.
type Triplet struct {
	Row, Col int
	Val      float64
}

// Sparse is a compressed sparse row (CSR) matrix. Row i's entries are
// cols[rowPtr[i]:rowPtr[i+1]] / vals[rowPtr[i]:rowPtr[i+1]], with
// column indices strictly increasing within each row. The layout keeps
// each row contiguous, so mat-vec streams memory linearly — the shape
// powerflow Jacobian products want.
type Sparse struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	vals       []float64
}

// NewSparse assembles an r-by-c CSR matrix from triplets. The input
// order is irrelevant: entries are sorted by (row, col) and duplicates
// are summed. Entries that sum to exactly zero are kept — structure is
// decided by the triplets, not their values — so the pattern of an
// assembled Jacobian is stable across Newton iterations.
func NewSparse(r, c int, trips []Triplet) *Sparse {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	for _, t := range trips {
		if t.Row < 0 || t.Row >= r || t.Col < 0 || t.Col >= c {
			panic(fmt.Sprintf("mat: triplet (%d,%d) out of range %dx%d", t.Row, t.Col, r, c))
		}
	}
	ts := make([]Triplet, len(trips))
	copy(ts, trips)
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Row != ts[j].Row {
			return ts[i].Row < ts[j].Row
		}
		return ts[i].Col < ts[j].Col
	})
	s := &Sparse{
		rows:   r,
		cols:   c,
		rowPtr: make([]int, r+1),
		colIdx: make([]int, 0, len(ts)),
		vals:   make([]float64, 0, len(ts)),
	}
	for i := 0; i < len(ts); {
		j := i + 1
		v := ts[i].Val
		for j < len(ts) && ts[j].Row == ts[i].Row && ts[j].Col == ts[i].Col {
			v += ts[j].Val
			j++
		}
		s.colIdx = append(s.colIdx, ts[i].Col)
		s.vals = append(s.vals, v)
		s.rowPtr[ts[i].Row+1]++
		i = j
	}
	for i := 0; i < r; i++ {
		s.rowPtr[i+1] += s.rowPtr[i]
	}
	return s
}

// SparseFromDense converts a dense matrix to CSR, keeping only the
// exactly nonzero entries.
func SparseFromDense(a *Dense) *Sparse {
	s := &Sparse{
		rows:   a.rows,
		cols:   a.cols,
		rowPtr: make([]int, a.rows+1),
	}
	for i := 0; i < a.rows; i++ {
		row := a.RawRow(i)
		for j, v := range row {
			if v != 0 { //gridlint:ignore floatcmp CSR keeps exactly-nonzero structure only
				s.colIdx = append(s.colIdx, j)
				s.vals = append(s.vals, v)
			}
		}
		s.rowPtr[i+1] = len(s.colIdx)
	}
	return s
}

// Rows returns the number of rows.
func (s *Sparse) Rows() int { return s.rows }

// Cols returns the number of columns.
func (s *Sparse) Cols() int { return s.cols }

// Dims returns (rows, cols).
func (s *Sparse) Dims() (int, int) { return s.rows, s.cols }

// NNZ returns the number of stored entries.
func (s *Sparse) NNZ() int { return len(s.vals) }

// At returns the element at row i, column j (zero when not stored).
func (s *Sparse) At(i, j int) float64 {
	if i < 0 || i >= s.rows || j < 0 || j >= s.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, s.rows, s.cols))
	}
	lo, hi := s.rowPtr[i], s.rowPtr[i+1]
	k := lo + sort.SearchInts(s.colIdx[lo:hi], j)
	if k < hi && s.colIdx[k] == j {
		return s.vals[k]
	}
	return 0
}

// MulVecTo writes s*x into dst. This is the powerflow inner-solve hot
// path: one contiguous pass over the CSR arrays, no allocation.
//
//gridlint:zeroalloc
func (s *Sparse) MulVecTo(dst, x []float64) {
	if len(x) != s.cols || len(dst) != s.rows {
		panic("mat: Sparse MulVecTo dimension mismatch")
	}
	for i := 0; i < s.rows; i++ {
		var sum float64
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			sum += s.vals[k] * x[s.colIdx[k]]
		}
		dst[i] = sum
	}
}

// MulVec returns s*x as a new vector.
func (s *Sparse) MulVec(x []float64) []float64 {
	dst := make([]float64, s.rows)
	s.MulVecTo(dst, x)
	return dst
}

// MulVecTTo writes sᵀ*x into dst without materializing the transpose:
// a scatter pass over the same CSR arrays. Used by the CGNR normal
// equations (JᵀJ) in sparse powerflow.
//
//gridlint:zeroalloc
func (s *Sparse) MulVecTTo(dst, x []float64) {
	if len(x) != s.rows || len(dst) != s.cols {
		panic("mat: Sparse MulVecTTo dimension mismatch")
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < s.rows; i++ {
		xi := x[i]
		if xi == 0 { //gridlint:ignore floatcmp scatter skips exact-zero multipliers only
			continue
		}
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			dst[s.colIdx[k]] += s.vals[k] * xi
		}
	}
}

// MulVecT returns sᵀ*x as a new vector.
func (s *Sparse) MulVecT(x []float64) []float64 {
	dst := make([]float64, s.cols)
	s.MulVecTTo(dst, x)
	return dst
}

// Diag returns the main diagonal as a fresh slice (zeros where no
// entry is stored), so *Sparse satisfies Diagonal for Jacobi
// preconditioning.
func (s *Sparse) Diag() []float64 {
	n := s.rows
	if s.cols < n {
		n = s.cols
	}
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = s.At(i, i)
	}
	return d
}

// VisitNonzero calls fn for every stored entry in row-major order.
// Assembly-time helper (preconditioner diagonals, pattern audits) —
// not for hot loops.
func (s *Sparse) VisitNonzero(fn func(i, j int, v float64)) {
	for i := 0; i < s.rows; i++ {
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			fn(i, s.colIdx[k], s.vals[k])
		}
	}
}

// T returns the transpose as a new CSR matrix. Column indices stay
// sorted because rows are visited in order.
func (s *Sparse) T() *Sparse {
	t := &Sparse{
		rows:   s.cols,
		cols:   s.rows,
		rowPtr: make([]int, s.cols+1),
		colIdx: make([]int, len(s.colIdx)),
		vals:   make([]float64, len(s.vals)),
	}
	for _, j := range s.colIdx {
		t.rowPtr[j+1]++
	}
	for i := 0; i < t.rows; i++ {
		t.rowPtr[i+1] += t.rowPtr[i]
	}
	next := make([]int, t.rows)
	copy(next, t.rowPtr[:t.rows])
	for i := 0; i < s.rows; i++ {
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			j := s.colIdx[k]
			p := next[j]
			t.colIdx[p] = i
			t.vals[p] = s.vals[k]
			next[j]++
		}
	}
	return t
}

// PermuteSym returns P A Pᵀ for the permutation that maps old index i
// to new index perm[i]: out[perm[i], perm[j]] = s[i, j]. perm must be
// a permutation of 0..n-1 on a square matrix. Symmetric permutations
// reorder buses without touching values — the hook for bandwidth- or
// locality-improving orderings.
func (s *Sparse) PermuteSym(perm []int) *Sparse {
	if s.rows != s.cols {
		panic(fmt.Sprintf("mat: PermuteSym requires square matrix, got %dx%d", s.rows, s.cols))
	}
	if len(perm) != s.rows {
		panic(fmt.Sprintf("mat: PermuteSym permutation length %d != %d", len(perm), s.rows))
	}
	seen := make([]bool, s.rows)
	for _, p := range perm {
		if p < 0 || p >= s.rows || seen[p] {
			panic(fmt.Sprintf("mat: PermuteSym invalid permutation entry %d", p))
		}
		seen[p] = true
	}
	trips := make([]Triplet, 0, len(s.vals))
	for i := 0; i < s.rows; i++ {
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			trips = append(trips, Triplet{Row: perm[i], Col: perm[s.colIdx[k]], Val: s.vals[k]})
		}
	}
	return NewSparse(s.rows, s.cols, trips)
}

// ToDense expands the matrix to dense form.
func (s *Sparse) ToDense() *Dense {
	d := NewDense(s.rows, s.cols)
	for i := 0; i < s.rows; i++ {
		row := d.RawRow(i)
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			row[s.colIdx[k]] = s.vals[k]
		}
	}
	return d
}

// MulVecTo writes m*x into dst, skipping exactly-zero entries the same
// way SolveCG's historical in-loop mat-vec did, so dense CG results
// stay bit-identical through the Op interface.
func (m *Dense) MulVecTo(dst, x []float64) {
	if len(x) != m.cols || len(dst) != m.rows {
		panic(fmt.Sprintf("mat: MulVecTo dimension mismatch %dx%d * %d -> %d", m.rows, m.cols, len(x), len(dst)))
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			if v != 0 { //gridlint:ignore floatcmp sparse accumulate skips exact structural zeros only
				s += v * x[j]
			}
		}
		dst[i] = s
	}
}

// Diag returns the main diagonal of m as a fresh slice, satisfying
// Diagonal.
func (m *Dense) Diag() []float64 {
	n := m.rows
	if m.cols < n {
		n = m.cols
	}
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = m.data[i*m.cols+i]
	}
	return d
}
