package mat

import (
	"errors"
	"math"
	"sort"
)

// ErrComplexEigen is returned when a real eigendecomposition is requested
// but the matrix has a complex-conjugate eigenvalue pair. Algorithm A3's
// second-moment matrices are similar to diagonal matrices with real spectra
// in exact arithmetic; sampling noise can occasionally push a pair complex,
// and callers treat that as a degenerate sample.
var ErrComplexEigen = errors.New("mat: matrix has complex eigenvalues")

// ErrNoConverge is returned when an iterative eigenvalue method exceeds its
// iteration budget.
var ErrNoConverge = errors.New("mat: eigenvalue iteration did not converge")

// Eigen holds a real eigendecomposition A = V · diag(Values) · V⁻¹.
// Column j of Vectors is the (unit-norm) eigenvector for Values[j].
type Eigen struct {
	Values  []float64
	Vectors *Matrix
}

// EigenScratch returns how many floats of scratch EigenDecomposeTo and
// EigenSymTo need for an n×n matrix.
func EigenScratch(n int) int { return n*n + 5*n }

// hessenbergInPlace reduces the row-major n×n matrix h to upper Hessenberg
// form Qᵀ·h·Q by Householder similarity transforms, without accumulating
// Q. v is caller-owned scratch of length n; each iteration rewrites the
// window v[col+1:] it reads.
func hessenbergInPlace(h []float64, n int, v []float64) {
	for col := 0; col < n-2; col++ {
		var norm float64
		for i := col + 1; i < n; i++ {
			norm += h[i*n+col] * h[i*n+col]
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			continue
		}
		alpha := -norm
		if h[(col+1)*n+col] < 0 {
			alpha = norm
		}
		v[col+1] = h[(col+1)*n+col] - alpha
		for i := col + 2; i < n; i++ {
			v[i] = h[i*n+col]
		}
		var vv float64
		for _, x := range v[col+1 : n] {
			vv += x * x
		}
		if vv == 0 {
			continue
		}
		// H ← P·H·P with P = I − 2vvᵀ/(vᵀv): left then right application.
		for j := 0; j < n; j++ {
			var dot float64
			for i := col + 1; i < n; i++ {
				dot += v[i] * h[i*n+j]
			}
			f := 2 * dot / vv
			for i := col + 1; i < n; i++ {
				h[i*n+j] -= f * v[i]
			}
		}
		for i := 0; i < n; i++ {
			hi := h[i*n:][:n]
			var dot float64
			for j := col + 1; j < n; j++ {
				dot += hi[j] * v[j]
			}
			f := 2 * dot / vv
			for j := col + 1; j < n; j++ {
				hi[j] -= f * v[j]
			}
		}
	}
}

// eigenvaluesTo writes the eigenvalues of m, which must all be real, into
// evs (length m.Rows()) in ascending order: shifted QR on the Hessenberg
// form with deflation. It returns ErrComplexEigen when a deflated 2×2
// block has a complex pair and ErrNoConverge when the iteration budget
// runs out. scratch holds at least EigenScratch(n) floats; errors are bare
// sentinels, so no path allocates.
func eigenvaluesTo(evs []float64, m *Matrix, scratch []float64) error {
	n := m.rows
	if n == 1 {
		evs[0] = m.data[0]
		return nil
	}
	// The Hessenberg form, the reflector, and the Givens cosines and sines
	// of a QR step (an active block is at most n×n).
	h := scratch[:n*n]
	v := scratch[n*n:][:n]
	rotc := scratch[n*n+n:][:n]
	rots := scratch[n*n+2*n:][:n]
	copy(h, m.data)
	hessenbergInPlace(h, n, v)
	cnt := 0
	hi := n - 1
	const maxIter = 500
	iter := 0
	for hi >= 0 {
		if hi == 0 {
			evs[cnt] = h[0]
			cnt++
			break
		}
		// Locate the start of the active unreduced block.
		lo := hi
		for lo > 0 && !negligible(h, n, lo) {
			lo--
		}
		if lo == hi {
			// 1×1 block deflated.
			evs[cnt] = h[hi*n+hi]
			cnt++
			hi--
			iter = 0
			continue
		}
		if lo == hi-1 {
			// 2×2 block: solve its characteristic polynomial directly.
			l1, l2, realPair := eig2x2(h[lo*n+lo], h[lo*n+hi], h[hi*n+lo], h[hi*n+hi])
			if !realPair {
				return ErrComplexEigen
			}
			evs[cnt] = l1
			evs[cnt+1] = l2
			cnt += 2
			hi -= 2
			iter = 0
			continue
		}
		if iter++; iter > maxIter {
			return ErrNoConverge
		}
		// Shifted QR step on the active block [lo..hi].
		sigma := wilkinsonShift(h, n, hi)
		if iter%20 == 0 {
			// Exceptional shift to escape rare symmetric-cycling stalls.
			sigma = h[hi*n+hi] + math.Abs(h[hi*n+hi-1])
		}
		qrShiftStep(h, n, lo, hi, sigma, rotc, rots)
	}
	sort.Float64s(evs[:cnt])
	return nil
}

// negligible reports whether the subdiagonal entry h[i][i-1] of the
// row-major n×n h is small enough to deflate, using the standard relative
// criterion.
func negligible(h []float64, n, i int) bool {
	s := math.Abs(h[(i-1)*n+i-1]) + math.Abs(h[i*n+i])
	if s == 0 {
		s = 1
	}
	return math.Abs(h[i*n+i-1]) <= 1e-14*s
}

// eig2x2 returns the eigenvalues of [[a b],[c d]] and whether they are real.
func eig2x2(a, b, c, d float64) (l1, l2 float64, realPair bool) {
	tr := a + d
	det := a*d - b*c
	disc := tr*tr/4 - det
	if disc < 0 {
		// Tolerate a whisker of negativity from roundoff.
		if disc > -1e-12*(1+tr*tr) {
			disc = 0
		} else {
			return 0, 0, false
		}
	}
	s := math.Sqrt(disc)
	return tr/2 + s, tr/2 - s, true
}

// wilkinsonShift picks the eigenvalue of the trailing 2×2 block ending at
// row hi of the row-major n×n h closest to the last diagonal entry — the
// standard shift for rapid QR convergence.
func wilkinsonShift(h []float64, n, hi int) float64 {
	a, b := h[(hi-1)*n+hi-1], h[(hi-1)*n+hi]
	c, d := h[hi*n+hi-1], h[hi*n+hi]
	l1, l2, realPair := eig2x2(a, b, c, d)
	if !realPair {
		return d
	}
	if math.Abs(l1-d) < math.Abs(l2-d) {
		return l1
	}
	return l2
}

// givensNorm is math.Hypot(a, b) inlined: max·√(1+(min/max)²) of the
// magnitudes, the formula both math.Hypot implementations (the amd64
// assembly and the portable Go) evaluate, so it returns their bits on
// every finite pair. On an infinite operand it may return NaN where
// math.Hypot returns +Inf; a Givens step then gets NaN for c and s either
// way (a/r and b/r of an infinite a or b are NaN), so the QR iteration
// takes the same course.
func givensNorm(a, b float64) float64 {
	p, q := math.Abs(a), math.Abs(b)
	if p < q {
		p, q = q, p
	}
	if p == 0 {
		return q // 0, or NaN when b is NaN
	}
	q /= p
	return p * math.Sqrt(1+q*q)
}

// qrShiftStep performs one explicit shifted QR step, h ← RQ + σI, in place
// on the active block [lo..hi] of the row-major n×n Hessenberg matrix h,
// using Givens rotations that exploit the Hessenberg structure: it
// subtracts σ from the block's diagonal, factors the block into R by
// rotations from the left, applies them again from the right, and adds σ
// back. rotc and rots (≥ hi−lo long) are caller-owned scratch.
func qrShiftStep(h []float64, n, lo, hi int, sigma float64, rotc, rots []float64) {
	for i := lo; i <= hi; i++ {
		h[i*n+i] -= sigma
	}
	// Givens QR of a Hessenberg block: zero the single subdiagonal entry of
	// each column, recording rotations.
	for k := lo; k < hi; k++ {
		rowK, rowK1 := h[k*n:][:hi+1], h[(k+1)*n:][:hi+1]
		a, b := rowK[k], rowK1[k]
		r := givensNorm(a, b)
		if r == 0 {
			rotc[k-lo], rots[k-lo] = 1, 0
			continue
		}
		c, s := a/r, b/r
		rotc[k-lo], rots[k-lo] = c, s
		for j := k; j <= hi; j++ {
			x, y := rowK[j], rowK1[j]
			rowK[j] = c*x + s*y
			rowK1[j] = -s*x + c*y
		}
	}
	// The block is now R; form RQ by applying the rotations on the right.
	for k := lo; k < hi; k++ {
		c, s := rotc[k-lo], rots[k-lo]
		for i := lo; i <= min(k+1, hi); i++ {
			row := h[i*n:][:hi+1]
			x, y := row[k], row[k+1]
			row[k] = c*x + s*y
			row[k+1] = -s*x + c*y
		}
	}
	for i := lo; i <= hi; i++ {
		h[i*n+i] += sigma
	}
}

// checkEigen validates EigenDecomposeTo's and EigenSymTo's operands.
func checkEigen(dst Eigen, src *Matrix, scratch []float64) error {
	n := src.rows
	if src.cols != n || len(dst.Values) != n || dst.Vectors.rows != n || dst.Vectors.cols != n ||
		len(scratch) < EigenScratch(n) {
		return ErrShape
	}
	return nil
}

// EigenDecomposeTo writes the real eigendecomposition of src into dst,
// eigenvalues in descending order: shifted QR finds the values, inverse
// iteration around each slightly perturbed value its unit eigenvector.
// dst.Values (length n) and dst.Vectors (n×n) are caller-owned and must
// not alias src; f is LU scratch for n×n systems (NewLU or Workspace.LU)
// and scratch holds at least EigenScratch(n) floats, so no call allocates,
// failing ones included. It fails with ErrComplexEigen, ErrNoConverge or
// ErrSingular on degenerate inputs, and with ErrShape on mismatched
// operands.
func EigenDecomposeTo(dst Eigen, src *Matrix, f *LU, scratch []float64) error {
	if err := checkEigen(dst, src, scratch); err != nil {
		return err
	}
	n := src.rows
	if f.lu.rows != n {
		return ErrShape
	}
	vals := dst.Values
	if err := eigenvaluesTo(vals, src, scratch); err != nil {
		return err
	}
	// Descending order: Algorithm A3 aligns factors by dominant eigenvalue.
	// eigenvaluesTo sorts ascending, so reversing the slice is exactly the
	// descending sort.
	for i, j := 0, len(vals)-1; i < j; i, j = i+1, j-1 {
		vals[i], vals[j] = vals[j], vals[i]
	}
	scale := src.MaxAbs()
	if scale == 0 {
		scale = 1
	}
	// The two iterate vectors, shared across all n inverse iterations.
	x := scratch[n*n+3*n:][:n]
	y := scratch[n*n+4*n:][:n]
	vecs := dst.Vectors.data
	for j, lambda := range vals {
		v, err := inverseIteration(src, f, x, y, lambda, scale)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			vecs[i*n+j] = v[i]
		}
	}
	return nil
}

// startVecs[n] holds inverseIteration's start vector for n ≤ 8, the sizes
// of Algorithm A3's systems, computed once by fillStart.
var startVecs = func() (t [9][8]float64) {
	for n := 1; n < len(t); n++ {
		fillStart(t[n][:n])
	}
	return t
}()

// fillStart writes inverseIteration's deterministic start vector, with
// every component populated, into x.
func fillStart(x []float64) {
	n := len(x)
	for i := range x {
		x[i] = 1 / math.Sqrt(float64(n)) * (1 + 0.01*float64(i))
	}
	normalize(x)
}

// inverseIteration finds a unit eigenvector for the eigenvalue lambda of m by
// repeatedly solving (m − (λ+ε)I)x = b. The perturbation ε keeps the system
// nonsingular; a handful of iterations suffices for well-separated spectra.
// The shifted system is built straight into f's storage, factored once and
// the factorization reused for every iterate (the matrix never changes
// between solves). f, x and y are caller-owned scratch of m's dimension;
// the returned slice is one of x or y.
func inverseIteration(m *Matrix, f *LU, x, y []float64, lambda, scale float64) ([]float64, error) {
	n := m.rows
	eps := 1e-9 * scale
	for tries := 0; ; tries++ {
		a := f.lu.data
		copy(a, m.data)
		for i := 0; i < n; i++ {
			a[i*n+i] -= lambda + eps
		}
		if err := f.refactor(eliminate); err == nil {
			break
		} else if tries >= 12 {
			// The shift cannot be made nonsingular within a sane range.
			return nil, err
		}
		// Exactly singular: nudge the perturbation and retry.
		eps *= 10
	}
	if n < len(startVecs) {
		copy(x, startVecs[n][:n])
	} else {
		fillStart(x)
	}
	for iter := 0; iter < 50; iter++ {
		f.SolveInto(x, y)
		normalize(y)
		// Converged when the direction stabilizes (up to sign).
		var dot float64
		for i := range y {
			dot += y[i] * x[i]
		}
		x, y = y, x
		if math.Abs(math.Abs(dot)-1) < 1e-12 {
			return x, nil
		}
	}
	return x, nil
}

func normalize(v []float64) {
	var s float64
	for _, x := range v {
		s += x * x
	}
	s = math.Sqrt(s)
	if s == 0 {
		return
	}
	for i := range v {
		v[i] /= s
	}
}

// EigenSymTo writes the eigendecomposition of the symmetric matrix src
// into dst, values in descending order, by cyclic Jacobi rotations:
// numerically robust and exactly orthogonal eigenvectors, which the A3
// spectral step relies on after symmetrizing its second-moment matrix. src
// is symmetrized internally, not checked. dst.Values (length n) and
// dst.Vectors (n×n) are caller-owned and must not alias src; scratch holds
// at least EigenScratch(n) floats, so no call allocates. It returns
// ErrShape on mismatched operands.
func EigenSymTo(dst Eigen, src *Matrix, scratch []float64) error {
	if err := checkEigen(dst, src, scratch); err != nil {
		return err
	}
	n := src.rows
	a := Matrix{rows: n, cols: n, data: scratch[:n*n]}
	SymmetrizeTo(&a, src)
	v := dst.Vectors
	IdentityTo(v)
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := a.OffDiagNorm()
		if off < 1e-13*(1+a.MaxAbs()) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a.data[p*n+q]
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := a.data[p*n+p], a.data[q*n+q]
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				// Apply the rotation to rows/columns p and q of A.
				for k := 0; k < n; k++ {
					akp, akq := a.data[k*n+p], a.data[k*n+q]
					a.data[k*n+p] = c*akp - s*akq
					a.data[k*n+q] = s*akp + c*akq
				}
				rowP, rowQ := a.RowView(p), a.RowView(q)
				for k := 0; k < n; k++ {
					apk, aqk := rowP[k], rowQ[k]
					rowP[k] = c*apk - s*aqk
					rowQ[k] = s*apk + c*aqk
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v.data[k*n+p], v.data[k*n+q]
					v.data[k*n+p] = c*vkp - s*vkq
					v.data[k*n+q] = s*vkp + c*vkq
				}
			}
		}
	}
	vals := dst.Values
	for i := range vals {
		vals[i] = a.data[i*n+i]
	}
	// Sort descending, swapping eigenvector columns alongside. Insertion
	// sort: no allocation, and n ≤ 8 in this domain.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && vals[j] > vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
			for r := 0; r < n; r++ {
				row := v.data[r*n:][:n]
				row[j], row[j-1] = row[j-1], row[j]
			}
		}
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
