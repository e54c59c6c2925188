package mat

import "math"

// InverseTo writes src⁻¹ into dst, which must share src's (square) shape
// and must not alias it. Arities 2 and 3 — the dominant response arities —
// dispatch to unrolled adjugate kernels; larger matrices refactor the
// caller-owned LU scratch f (from NewLU or Workspace.LU) and solve the n
// unit systems, so repeated inversions allocate nothing. f may be nil when
// src is at most 3×3. It returns ErrSingular (without allocating) when src
// is singular to working precision.
// (Williams' algorithm, which the paper's complexity remark mentions, pays
// off only far above the k ≤ 8 response classes seen here.)
func InverseTo(dst, src *Matrix, f *LU) error {
	n := src.rows
	if src.cols != n || dst.rows != n || dst.cols != n {
		return ErrShape
	}
	switch n {
	case 1:
		v := src.data[0]
		if !(math.Abs(v) > 1e-13) {
			return ErrSingular
		}
		dst.data[0] = 1 / v
		return nil
	case 2:
		return inv2(dst.data, src.data)
	case 3:
		return inv3(dst.data, src.data)
	}
	if err := f.Refactor(src); err != nil {
		return err
	}
	f.InverseTo(dst)
	return nil
}

// LU is a reusable LU factorization with partial pivoting: Refactor once,
// then SolveInto any number of right-hand sides in O(n²) each.
type LU struct {
	lu   *Matrix
	perm []int
	y    []float64 // forward-substitution scratch
	e, x []float64 // unit-vector and solution scratch for InverseTo
}

// NewLU returns LU scratch for n×n systems, ready for Refactor. A
// workspace keeps one, resized to each request (Workspace.LU), so
// steady-state callers never allocate one.
func NewLU(n int) *LU {
	return &LU{
		lu:   New(n, n),
		perm: make([]int, n),
		y:    make([]float64, n),
		e:    make([]float64, n),
		x:    make([]float64, n),
	}
}

// resize makes f scratch for n×n systems, ready for Refactor. It reslices
// the existing storage when that holds n×n and allocates only to grow, so
// f stays sized to the largest n it has served.
func (f *LU) resize(n int) {
	if f.lu == nil || cap(f.lu.data) < n*n {
		*f = *NewLU(n)
		return
	}
	f.lu.rows, f.lu.cols, f.lu.data = n, n, f.lu.data[:n*n]
	f.perm, f.y, f.e, f.x = f.perm[:n], f.y[:n], f.e[:n], f.x[:n]
}

// Refactor recomputes the factorization from src in place, reusing the
// existing storage. Shapes must match the original factorization.
func (f *LU) Refactor(src *Matrix) error {
	f.lu.CopyFrom(src)
	return f.refactor(eliminate)
}

// refactor factors f.lu in place with partial pivoting. Each pivot column
// whose tail is shorter than kernelTail runs eliminateGo directly; longer
// ones run through elim: eliminate in production, and eliminateGo where a
// test or benchmark pins the Go loop.
func (f *LU) refactor(elim func(a []float64, n, col int)) error {
	a, n := f.lu.data, f.lu.rows
	for i := range f.perm {
		f.perm[i] = i
	}
	for col := 0; col < n; col++ {
		pivot := col
		best := math.Abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r*n+col]); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-13 {
			return ErrSingular
		}
		if pivot != col {
			rowC, rowP := a[col*n:][:n], a[pivot*n:][:n]
			for k := range rowC {
				rowC[k], rowP[k] = rowP[k], rowC[k]
			}
		}
		f.perm[col], f.perm[pivot] = f.perm[pivot], f.perm[col]
		if n-col-1 < kernelTail {
			eliminateGo(a, n, col)
		} else {
			elim(a, n, col)
		}
	}
	return nil
}

// eliminateGo runs pivot column col of the elimination on the row-major
// n×n matrix a: for every row r below the pivot row it stores the
// multiplier fr = a[r][col]/a[col][col] at a[r][col] and subtracts fr
// times the pivot row's tail from row r's. It is eliminate's portable
// form and the reference its assembly kernel is tested against.
func eliminateGo(a []float64, n, col int) {
	rowCol := a[col*n:][:n]
	p := rowCol[col]
	tail := rowCol[col+1:]
	for r := col + 1; r < n; r++ {
		rowR := a[r*n:][:n]
		fr := rowR[col] / p
		rowR[col] = fr
		// Resliced to tail's length, so the loop runs without bounds
		// checks; each element is still one x -= fr·y.
		dst := rowR[col+1:][:len(tail)]
		for j, y := range tail {
			dst[j] -= fr * y
		}
	}
}

// SolveInto writes the solution of (LU)·x = b into x, which must not alias
// b. Both must have the factored dimension.
func (f *LU) SolveInto(b, x []float64) {
	a, n := f.lu.data, f.lu.rows
	if len(b) != n || len(x) != n {
		panic(ErrShape)
	}
	// Forward substitution on the permuted right-hand side.
	y := f.y
	for i := 0; i < n; i++ {
		row := a[i*n:][:i]
		s := b[f.perm[i]]
		for j, l := range row {
			s -= l * y[j]
		}
		y[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		row := a[i*n:][:n]
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
}

// InverseTo writes the inverse of the factored matrix into dst by solving
// the n unit systems — O(n³) total, allocation-free (the unit vector and
// column scratch live in the factorization).
func (f *LU) InverseTo(dst *Matrix) {
	n := f.lu.rows
	if dst.rows != n || dst.cols != n {
		panic(ErrShape)
	}
	for j := 0; j < n; j++ {
		f.e[j] = 1
		f.SolveInto(f.e, f.x)
		f.e[j] = 0
		for i := 0; i < n; i++ {
			dst.data[i*n+j] = f.x[i]
		}
	}
}
