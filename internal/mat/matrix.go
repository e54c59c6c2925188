// Package mat implements the dense linear-algebra substrate used by the
// crowd-assessment algorithms: destination-passing matrix arithmetic,
// inversion (adjugate kernels for k ≤ 3, LU above that), reusable LU solves,
// and real eigendecompositions (symmetric Jacobi and shifted-QR for the
// mildly non-symmetric matrices produced by Algorithm A3's spectral step).
// Every kernel has one form, which writes into caller-owned storage.
//
// The package is self-contained (stdlib only) because the reproduction runs
// offline. Matrices are small in this domain (k ≤ 8 response classes, l ≤ a
// few hundred triples), so the implementations favour robustness and clarity
// over blocking or vectorization.
package mat

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	rows, cols int
	data       []float64
}

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("mat: incompatible matrix shapes")

// ErrSingular is returned when a matrix is singular to working precision.
var ErrSingular = errors.New("mat: singular matrix")

// New returns a zero-initialized rows×cols matrix.
// It panics if either dimension is not positive.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %d×%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Carve points each of ms at the next r×c span of buf, in order, and
// returns what is left of buf. The matrices alias buf, so a computation
// can take one workspace span and carve every matrix it builds from it.
// It panics if a dimension is not positive or buf is too short.
func Carve(buf []float64, r, c int, ms ...*Matrix) []float64 {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %d×%d", r, c))
	}
	n := r * c
	for _, m := range ms {
		*m = Matrix{rows: r, cols: c, data: buf[:n:n]}
		buf = buf[n:]
	}
	return buf
}

// FromRows builds a matrix from a slice of equal-length rows.
// It panics on ragged or empty input.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("mat: FromRows requires non-empty input")
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic("mat: FromRows requires equal-length rows")
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range for %d×%d matrix", i, j, m.rows, m.cols))
	}
}

// CopyFrom overwrites m's elements with o's, reusing m's storage. It panics
// unless the shapes match.
func (m *Matrix) CopyFrom(o *Matrix) {
	if m.rows != o.rows || m.cols != o.cols {
		panic(ErrShape)
	}
	copy(m.data, o.data)
}

// RowView returns row i as a slice aliasing m's storage: writes through the
// returned slice mutate the matrix, and the slice is invalidated by nothing
// (matrix storage never moves).
func (m *Matrix) RowView(i int) []float64 {
	return m.data[i*m.cols : (i+1)*m.cols]
}

// SwapRows exchanges rows i and j in place.
func (m *Matrix) SwapRows(i, j int) {
	if i == j {
		return
	}
	ri := m.data[i*m.cols : (i+1)*m.cols]
	rj := m.data[j*m.cols : (j+1)*m.cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// MaxAbs returns the largest absolute element value.
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// OffDiagNorm returns the Frobenius norm of the off-diagonal part.
// It panics unless m is square.
func (m *Matrix) OffDiagNorm() float64 {
	if m.rows != m.cols {
		panic(ErrShape)
	}
	var s float64
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if i != j {
				v := m.data[i*m.cols+j]
				s += v * v
			}
		}
	}
	return math.Sqrt(s)
}

// EqualApprox reports whether m and o agree element-wise within tol.
func (m *Matrix) EqualApprox(o *Matrix, tol float64) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-o.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix with aligned columns, for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		b.WriteString("[")
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%10.6f", m.At(i, j))
		}
		b.WriteString("]\n")
	}
	return b.String()
}
