package mat

import (
	"fmt"
	"sort"
)

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
// each row contiguous, so mat-vec — the inner loop of every CG
// iteration — streams memory linearly.
type Sparse struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	vals       []float64
}

// NewSparse assembles an r-by-c CSR matrix from triplets. The input
// order is irrelevant: entries are sorted by (row, col) and duplicates
// are summed. Entries that sum to exactly zero are kept — structure is
// decided by the triplets, not their values — so an assembled pattern
// never depends on numerical cancellation.
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

// Diag returns the main diagonal as a fresh slice (zeros where no
// entry is stored): SolveCG's Jacobi preconditioner.
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
