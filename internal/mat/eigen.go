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

// hessenbergInPlace reduces h to upper Hessenberg form Qᵀ·h·Q by Householder
// similarity transforms, without accumulating Q. v is caller-owned scratch of
// length h.Rows(); each iteration rewrites the window v[col+1:] it reads.
func hessenbergInPlace(h *Matrix, v []float64) {
	n := h.rows
	for col := 0; col < n-2; col++ {
		var norm float64
		for i := col + 1; i < n; i++ {
			norm += h.At(i, col) * h.At(i, col)
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			continue
		}
		alpha := -norm
		if h.At(col+1, col) < 0 {
			alpha = norm
		}
		v[col+1] = h.At(col+1, col) - alpha
		for i := col + 2; i < n; i++ {
			v[i] = h.At(i, col)
		}
		var vv float64
		for _, x := range v[col+1:] {
			vv += x * x
		}
		if vv == 0 {
			continue
		}
		// H ← P·H·P with P = I − 2vvᵀ/(vᵀv): left then right application.
		for j := 0; j < n; j++ {
			var dot float64
			for i := col + 1; i < n; i++ {
				dot += v[i] * h.data[i*n+j]
			}
			f := 2 * dot / vv
			for i := col + 1; i < n; i++ {
				h.data[i*n+j] -= f * v[i]
			}
		}
		for i := 0; i < n; i++ {
			hi := h.RowView(i)
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

// eigenvaluesWS returns the eigenvalues of m, which must all be real, in
// ascending order: shifted QR on the Hessenberg form with deflation. It
// returns ErrComplexEigen when a deflated 2×2 block has a complex pair and
// ErrNoConverge when the iteration budget runs out. The slice is owned by ws
// until its next Reset; errors are bare sentinels, so no path allocates.
func eigenvaluesWS(m *Matrix, ws *Workspace) ([]float64, error) {
	n := m.rows
	if n == 1 {
		evs := ws.GetVec(1)
		evs[0] = m.At(0, 0)
		return evs, nil
	}
	h := ws.Get(n, n)
	h.CopyFrom(m)
	hessenbergInPlace(h, ws.GetVec(n))
	evs := ws.GetVec(n)
	cnt := 0
	// qrShiftStep scratch: an active block is at most n×n.
	blk := ws.GetVec(n * n)
	rotc := ws.GetVec(n)
	rots := ws.GetVec(n)
	hi := n - 1
	const maxIter = 500
	iter := 0
	for hi >= 0 {
		if hi == 0 {
			evs[cnt] = h.At(0, 0)
			cnt++
			break
		}
		// Locate the start of the active unreduced block.
		lo := hi
		for lo > 0 && !negligible(h, lo) {
			lo--
		}
		if lo == hi {
			// 1×1 block deflated.
			evs[cnt] = h.At(hi, hi)
			cnt++
			hi--
			iter = 0
			continue
		}
		if lo == hi-1 {
			// 2×2 block: solve its characteristic polynomial directly.
			l1, l2, realPair := eig2x2(h.At(lo, lo), h.At(lo, hi), h.At(hi, lo), h.At(hi, hi))
			if !realPair {
				return nil, ErrComplexEigen
			}
			evs[cnt] = l1
			evs[cnt+1] = l2
			cnt += 2
			hi -= 2
			iter = 0
			continue
		}
		if iter++; iter > maxIter {
			return nil, ErrNoConverge
		}
		// Shifted QR step on the active block [lo..hi].
		sigma := wilkinsonShift(h, hi)
		if iter%20 == 0 {
			// Exceptional shift to escape rare symmetric-cycling stalls.
			sigma = h.At(hi, hi) + math.Abs(h.At(hi, hi-1))
		}
		qrShiftStep(h, lo, hi, sigma, blk, rotc, rots)
	}
	sort.Float64s(evs[:cnt])
	return evs[:cnt], nil
}

// negligible reports whether the subdiagonal entry h[i][i-1] is small enough
// to deflate, using the standard relative criterion.
func negligible(h *Matrix, i int) bool {
	s := math.Abs(h.At(i-1, i-1)) + math.Abs(h.At(i, i))
	if s == 0 {
		s = 1
	}
	return math.Abs(h.At(i, i-1)) <= 1e-14*s
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

// wilkinsonShift picks the eigenvalue of the trailing 2×2 block closest to
// the last diagonal entry — the standard shift for rapid QR convergence.
func wilkinsonShift(h *Matrix, hi int) float64 {
	a, b := h.At(hi-1, hi-1), h.At(hi-1, hi)
	c, d := h.At(hi, hi-1), h.At(hi, hi)
	l1, l2, realPair := eig2x2(a, b, c, d)
	if !realPair {
		return d
	}
	if math.Abs(l1-d) < math.Abs(l2-d) {
		return l1
	}
	return l2
}

// qrShiftStep performs one explicit shifted QR step, h ← RQ + σI, restricted
// to the active block [lo..hi], using Givens rotations that exploit the
// Hessenberg structure. blkbuf (≥ block² long), rotc and rots (≥ block−1)
// are caller-owned scratch.
func qrShiftStep(h *Matrix, lo, hi int, sigma float64, blkbuf, rotc, rots []float64) {
	n := hi - lo + 1
	// Copy active block into blkbuf (row-major, stride n) minus the shift.
	blk := blkbuf[:n*n]
	for i := 0; i < n; i++ {
		hrow := h.RowView(lo + i)
		for j := 0; j < n; j++ {
			blk[i*n+j] = hrow[lo+j]
		}
		blk[i*n+i] -= sigma
	}
	// Givens QR of a Hessenberg block: zero the single subdiagonal entry of
	// each column, recording rotations.
	for k := 0; k < n-1; k++ {
		a, b := blk[k*n+k], blk[(k+1)*n+k]
		r := math.Hypot(a, b)
		if r == 0 {
			rotc[k], rots[k] = 1, 0
			continue
		}
		c, s := a/r, b/r
		rotc[k], rots[k] = c, s
		for j := k; j < n; j++ {
			x, y := blk[k*n+j], blk[(k+1)*n+j]
			blk[k*n+j] = c*x + s*y
			blk[(k+1)*n+j] = -s*x + c*y
		}
	}
	// blk is now R; form RQ by applying the rotations on the right.
	for k := 0; k < n-1; k++ {
		c, s := rotc[k], rots[k]
		for i := 0; i <= min(k+1, n-1); i++ {
			x, y := blk[i*n+k], blk[i*n+k+1]
			blk[i*n+k] = c*x + s*y
			blk[i*n+k+1] = -s*x + c*y
		}
	}
	// Write back with the shift restored.
	for i := 0; i < n; i++ {
		hrow := h.RowView(lo + i)
		for j := 0; j < n; j++ {
			v := blk[i*n+j]
			if i == j {
				v += sigma
			}
			hrow[lo+j] = v
		}
	}
}

// EigenDecomposeWS returns the real eigendecomposition of m, eigenvalues in
// descending order: shifted QR finds the values, inverse iteration around
// each slightly perturbed value its unit eigenvector. It fails with
// ErrComplexEigen, ErrNoConverge or ErrSingular on degenerate inputs. All
// scratch and the result come from ws (valid until its next Reset), so no
// call allocates in steady state, failing ones included.
func (m *Matrix) EigenDecomposeWS(ws *Workspace) (Eigen, error) {
	if m.rows != m.cols {
		return Eigen{}, ErrShape
	}
	vals, err := eigenvaluesWS(m, ws)
	if err != nil {
		return Eigen{}, err
	}
	// Descending order: Algorithm A3 aligns factors by dominant eigenvalue.
	// eigenvaluesWS sorts ascending, so reversing the slice is exactly the
	// descending sort the previous implementation produced.
	for i, j := 0, len(vals)-1; i < j; i, j = i+1, j-1 {
		vals[i], vals[j] = vals[j], vals[i]
	}
	n := m.rows
	vecs := ws.Get(n, n)
	scale := m.MaxAbs()
	if scale == 0 {
		scale = 1
	}
	// Scratch shared across all n inverse iterations: the shifted matrix,
	// its reusable factorization, and the two iterate vectors.
	shifted := ws.Get(n, n)
	f := ws.LU(n)
	x := ws.GetVec(n)
	y := ws.GetVec(n)
	for j, lambda := range vals {
		v, err := inverseIteration(m, shifted, f, x, y, lambda, scale)
		if err != nil {
			return Eigen{}, err
		}
		for i := 0; i < n; i++ {
			vecs.data[i*n+j] = v[i]
		}
	}
	return Eigen{Values: vals, Vectors: vecs}, nil
}

// inverseIteration finds a unit eigenvector for the eigenvalue lambda of m by
// repeatedly solving (m − (λ+ε)I)x = b. The perturbation ε keeps the system
// nonsingular; a handful of iterations suffices for well-separated spectra.
// The shifted system is factored once into f and the factorization reused
// for every iterate (the matrix never changes between solves). shifted, f,
// x and y are caller-owned scratch of m's dimension; the returned slice is
// one of x or y.
func inverseIteration(m, shifted *Matrix, f *LU, x, y []float64, lambda, scale float64) ([]float64, error) {
	n := m.rows
	eps := 1e-9 * scale
	for tries := 0; ; tries++ {
		shifted.CopyFrom(m)
		for i := 0; i < n; i++ {
			shifted.data[i*n+i] -= lambda + eps
		}
		if err := f.Refactor(shifted); err == nil {
			break
		} else if tries >= 12 {
			// The shift cannot be made nonsingular within a sane range.
			return nil, err
		}
		// Exactly singular: nudge the perturbation and retry.
		eps *= 10
	}
	// Deterministic start vector with all components populated.
	for i := range x {
		x[i] = 1 / math.Sqrt(float64(n)) * (1 + 0.01*float64(i))
	}
	normalize(x)
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

// EigenSymWS returns the eigendecomposition of a symmetric matrix, values in
// descending order, by cyclic Jacobi rotations: numerically robust and
// exactly orthogonal eigenvectors, which the A3 spectral step relies on after
// symmetrizing its second-moment matrix. m is symmetrized internally, not
// checked. All scratch and the result come from ws (valid until its next
// Reset): no heap allocation in steady state.
func (m *Matrix) EigenSymWS(ws *Workspace) (Eigen, error) {
	if m.rows != m.cols {
		return Eigen{}, ErrShape
	}
	n := m.rows
	a := ws.Get(n, n)
	SymmetrizeTo(a, m)
	v := ws.Get(n, n)
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
	vals := ws.GetVec(n)
	for i := range vals {
		vals[i] = a.data[i*n+i]
	}
	// Sort descending, permuting eigenvector columns alongside. Insertion
	// sort: no allocation, and n ≤ 8 in this domain.
	idx := ws.GetInts(n)
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && vals[idx[j]] > vals[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	sortedVals := ws.GetVec(n)
	sortedVecs := ws.Get(n, n)
	for newCol, oldCol := range idx {
		sortedVals[newCol] = vals[oldCol]
		for i := 0; i < n; i++ {
			sortedVecs.data[i*n+newCol] = v.data[i*n+oldCol]
		}
	}
	return Eigen{Values: sortedVals, Vectors: sortedVecs}, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
