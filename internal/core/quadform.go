package core

import (
	"fmt"

	"crowdassess/internal/mat"
)

// CovQuadForm abstracts the covariance Σ of an estimate vector to exactly
// the two queries the delta method (Theorem 1) needs: the quadratic form
// dᵀΣd and a diagonal magnitude Σ dᵢ²·|Σᵢᵢ| used to calibrate the roundoff
// tolerance when the plug-in quadratic form dips negative.
//
// Three implementations exist. DenseCov wraps an explicit matrix and is
// what Algorithm A1 uses (its Σ is the 3×3 Lemma 3 matrix). MultinomialCov
// exploits the structure Σ = n·(diag(p) − p·pᵀ) of the k³-dimensional
// multinomial count covariance in Algorithm A3 (Lemma 9), evaluating the
// quadratic form in O(k³) time and O(1) extra memory instead of
// materializing the O(k⁶) dense matrix. Lemma4Cov generates Algorithm A2's
// l×l cross-triple covariance entry-by-entry from O(l + m) inputs (per-
// triple gradients plus the pooled agreement cache), so the dense matrix is
// never built on the A2 estimation path.
type CovQuadForm interface {
	// Dim is the dimension of Σ (the required gradient length).
	Dim() int
	// Quad returns dᵀΣd.
	Quad(d []float64) float64
	// DiagAbsQuad returns Σ dᵢ²·|Σᵢᵢ|, the scale of the diagonal
	// contribution, used as a roundoff yardstick by DeltaMethodCov.
	DiagAbsQuad(d []float64) float64
}

// DenseCov adapts an explicit covariance matrix to CovQuadForm. This is the
// fallback path; it matches the structured implementations bit-for-bit in
// the regimes where both apply only up to floating-point summation order,
// so agreement is asserted to 1e-12 in tests rather than exactly.
type DenseCov struct{ M *mat.Matrix }

// Dim implements CovQuadForm.
func (c DenseCov) Dim() int { return c.M.Rows() }

// Quad implements CovQuadForm: the full O(n²) double loop.
func (c DenseCov) Quad(d []float64) float64 {
	n := len(d)
	var v float64
	for i := 0; i < n; i++ {
		di := d[i]
		if di == 0 {
			continue
		}
		row := c.M.RowView(i)[:n]
		for j, dj := range d {
			v += di * dj * row[j]
		}
	}
	return v
}

// DiagAbsQuad implements CovQuadForm.
func (c DenseCov) DiagAbsQuad(d []float64) float64 {
	var s float64
	for i, di := range d {
		s += di * di * abs(c.M.At(i, i))
	}
	return s
}

// MultinomialCov is the covariance of a multinomial count vector with
// observed counts c over n trials: Σᵢᵢ = cᵢ(n−cᵢ)/n and Σᵢⱼ = −cᵢcⱼ/n
// (the plug-in form of Σ = n·(diag(p) − p·pᵀ) with p̂ = c/n). The quadratic
// form collapses to
//
//	dᵀΣd = Σᵢ dᵢ²cᵢ − (Σᵢ dᵢcᵢ)²/n,
//
// one pass over the counts — O(k³) for Algorithm A3's k³ count entries,
// versus O(k⁶) time and memory for the dense matrix it replaces.
type MultinomialCov struct {
	counts []float64
	n      float64
}

// NewMultinomialCov builds the structured covariance for the given observed
// counts and trial total n > 0.
func NewMultinomialCov(counts []float64, n float64) (MultinomialCov, error) {
	if n <= 0 {
		return MultinomialCov{}, fmt.Errorf("core: multinomial total %v not positive: %w", n, ErrInsufficientData)
	}
	return MultinomialCov{counts: counts, n: n}, nil
}

// Dim implements CovQuadForm.
func (c MultinomialCov) Dim() int { return len(c.counts) }

// Quad implements CovQuadForm in a single pass.
func (c MultinomialCov) Quad(d []float64) float64 {
	var sq, lin float64
	for i, di := range d {
		ci := c.counts[i]
		sq += di * di * ci
		lin += di * ci
	}
	return sq - lin*lin/c.n
}

// DiagAbsQuad implements CovQuadForm.
func (c MultinomialCov) DiagAbsQuad(d []float64) float64 {
	var s float64
	for i, di := range d {
		ci := c.counts[i]
		s += di * di * abs(ci*(c.n-ci)/c.n)
	}
	return s
}

// Dense materializes the full covariance matrix. Only tests and the
// structured-vs-dense benchmarks use it; the estimators never do.
func (c MultinomialCov) Dense() *mat.Matrix {
	n := len(c.counts)
	m := mat.New(n, n)
	for i := 0; i < n; i++ {
		ci := c.counts[i]
		m.Set(i, i, ci*(c.n-ci)/c.n)
		for j := i + 1; j < n; j++ {
			v := -ci * c.counts[j] / c.n
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
