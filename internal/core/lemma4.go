package core

import (
	"fmt"

	"crowdassess/internal/mat"
)

// Lemma4Cov is the structured form of Algorithm A2's l×l covariance matrix
// of per-triple error-rate estimates (Lemma 4). Its entries are fully
// determined by O(l + m) inputs — each triple's delta-method variance and
// own-pair gradients, the evaluated worker's pooled error rate, and the
// pairwise agreement statistics already cached for the whole dataset — so
// the quadratic form dᵀΣd of the delta method (Theorem 1) is evaluated
// directly from those inputs and the dense matrix is never materialized on
// the estimation path. (The Lemma 5 weight solve still needs an explicit
// matrix; MaterializeInto writes it into caller-owned workspace scratch.)
//
// Entry values are computed by exactly the arithmetic the dense
// construction used, in the same order, so the structured and dense paths
// agree bit-for-bit entry-wise and to summation-order roundoff (≤ 1e-12
// relative, tested) in the quadratic form.
type Lemma4Cov struct {
	counts tripleCounts // the evaluated worker i's statistics
	pPool  float64      // pooled error-rate estimate p̂_i used inside C(i,·,·)

	diag   []float64 // per-triple delta-method variance (Lemma 4 diagonal)
	d1, d2 []float64 // ∂p_i/∂q_{i,j1}, ∂p_i/∂q_{i,j2} per triple
	j1, j2 []int     // the triple's partner workers

	// dense caches the materialized matrix once Materialize has run: each
	// entry costs four C(i,·,·) terms, each a triple count and two
	// divisions, so after the Lemma 5 solve has forced materialization
	// anyway, Quad reads the cache instead of regenerating entries. Entries
	// are identical either way.
	dense *mat.Matrix
}

// newLemma4Cov returns an empty covariance for the worker counts
// evaluates, its per-triple slices drawn from ws (capacity for up to
// `capacity` triples); triples are appended with add in the order they
// were formed, and pPool must be set before any entry is read. It returns
// a value so a solve can keep it on its stack; counts is copied in for the
// same reason (escape analysis would move a pointed-to one to the heap).
func newLemma4Cov(counts tripleCounts, capacity int, ws *mat.Workspace) Lemma4Cov {
	ints := ws.GetInts(2 * capacity)
	return Lemma4Cov{
		counts: counts,
		diag:   ws.GetVec(capacity)[:0],
		d1:     ws.GetVec(capacity)[:0],
		d2:     ws.GetVec(capacity)[:0],
		j1:     ints[:0:capacity],
		j2:     ints[capacity:capacity],
	}
}

// add appends one triple's contribution: its delta-method variance and the
// derivatives with respect to the two agreement rates involving worker i,
// tagged with the partner workers j1 and j2.
func (c *Lemma4Cov) add(variance, d1 float64, j1 int, d2 float64, j2 int) {
	c.diag = append(c.diag, variance)
	c.d1 = append(c.d1, d1)
	c.d2 = append(c.d2, d2)
	c.j1 = append(c.j1, j1)
	c.j2 = append(c.j2, j2)
}

// Dim implements CovQuadForm.
func (c *Lemma4Cov) Dim() int { return len(c.diag) }

// entry returns Σ[k1][k2] for k1 ≠ k2: the cross-triple covariance of
// Lemma 4, summed over the four (own-pair of k1) × (own-pair of k2)
// derivative products. Arguments are normalized to k1 < k2 so both
// triangle entries are the identical float MaterializeInto stores.
func (c *Lemma4Cov) entry(k1, k2 int) float64 {
	if k1 > k2 {
		k1, k2 = k2, k1
	}
	var v float64
	v += c.d1[k1] * c.d1[k2] * lemma4C(&c.counts, c.j1[k1], c.j1[k2], c.pPool)
	v += c.d1[k1] * c.d2[k2] * lemma4C(&c.counts, c.j1[k1], c.j2[k2], c.pPool)
	v += c.d2[k1] * c.d1[k2] * lemma4C(&c.counts, c.j2[k1], c.j1[k2], c.pPool)
	v += c.d2[k1] * c.d2[k2] * lemma4C(&c.counts, c.j2[k1], c.j2[k2], c.pPool)
	return v
}

// Quad implements CovQuadForm without materializing the matrix: entries
// are generated on the fly (or read from the Materialize cache when the
// weight solve already paid for them). The generate path walks only the
// upper triangle, folding each symmetric pair in as 2·dᵢ·dⱼ·Σᵢⱼ, so every
// entry — four C(i,·,·) terms — is computed exactly once,
// matching the cost of the dense build it replaces. O(l²) time, zero
// allocations; agrees with the dense accumulation order to roundoff
// (≤ 1e-12 relative, tested).
func (c *Lemma4Cov) Quad(d []float64) float64 {
	if c.dense != nil {
		return DenseCov{c.dense}.Quad(d)
	}
	n := len(d)
	var v float64
	for i := 0; i < n; i++ {
		di := d[i]
		if di == 0 {
			continue
		}
		v += di * di * c.diag[i]
		for j := i + 1; j < n; j++ {
			if d[j] == 0 {
				continue
			}
			v += 2 * di * d[j] * c.entry(i, j)
		}
	}
	return v
}

// DiagAbsQuad implements CovQuadForm.
func (c *Lemma4Cov) DiagAbsQuad(d []float64) float64 {
	var s float64
	for i, di := range d {
		s += di * di * abs(c.diag[i])
	}
	return s
}

// deltaMethod is Theorem 1 for the combined estimate Σ aₖ pₖ,ᵢ with the
// Dim() weights a: DeltaMethodCov through the concrete type, so the
// covariance never escapes to the heap.
func (c *Lemma4Cov) deltaMethod(mean float64, weights []float64) (DeltaEstimate, error) {
	return deltaFromVariance(mean, c.Quad(weights), c.DiagAbsQuad(weights))
}

// Materialize builds the dense matrix into ws scratch once, caches it for
// subsequent Quad calls, and returns it (the Lemma 5 solve needs the
// explicit matrix).
func (c *Lemma4Cov) Materialize(ws *mat.Workspace) *mat.Matrix {
	if c.dense == nil {
		d := ws.Get(c.Dim(), c.Dim())
		c.MaterializeInto(d)
		c.dense = d
	}
	return c.dense
}

// MaterializeInto writes the dense l×l matrix into dst (typically workspace
// scratch): needed by the Lemma 5 weight solve and by the dense-agreement
// tests. It does not touch the Materialize cache. It panics unless dst is
// l×l.
//
// Every entry is entry's sum of four lemma4Term values, in entry's order,
// so the two paths agree bit for bit; only the lookups are shared. Row k1
// reads its two partners' agreement and triple-count rows once, and each
// entry counts its four c_{i,j,j′} in one pass of common3Block.
func (c *Lemma4Cov) MaterializeInto(dst *mat.Matrix) {
	l := len(c.diag)
	if dst.Rows() != l || dst.Cols() != l {
		panic(mat.ErrShape)
	}
	src, pI := c.counts.src, c.pPool
	_, own := src.counters(c.counts.i)
	for k1 := 0; k1 < l; k1++ {
		row := dst.RowView(k1)
		row[k1] = c.diag[k1]
		a, b := c.j1[k1], c.j2[k1]
		agreeA, commonA := src.counters(a)
		agreeB, commonB := src.counters(b)
		rowA, rowB := c.counts.pairRows(a, b)
		da, db, cia, cib := c.d1[k1], c.d2[k1], own[a], own[b]
		for k2 := k1 + 1; k2 < l; k2++ {
			x, y := c.j1[k2], c.j2[k2]
			ax, ay, bx, by := common3Block(rowA, rowB, c.counts.row(x), c.counts.row(y))
			cix, ciy := own[x], own[y]
			var v float64
			v += da * c.d1[k2] * lemma4Term(ax, pI, agreeA[x], commonA[x], cia, cix)
			v += da * c.d2[k2] * lemma4Term(ay, pI, agreeA[y], commonA[y], cia, ciy)
			v += db * c.d1[k2] * lemma4Term(bx, pI, agreeB[x], commonB[x], cib, cix)
			v += db * c.d2[k2] * lemma4Term(by, pI, agreeB[y], commonB[y], cib, ciy)
			row[k2] = v
			dst.RowView(k2)[k1] = v
		}
	}
}

// optimalWeightsCov implements Lemma 5 against the structured covariance:
// with B = C⁻¹𝟙, the variance-minimizing weights summing to 1 are
// A = B/ΣB (see solveWeights). The dense matrix is materialized only here
// — into reusable workspace scratch, not a fresh allocation — because the
// solve genuinely needs it; the returned slice is workspace-owned.
func optimalWeightsCov(c *Lemma4Cov, ws *mat.Workspace) ([]float64, error) {
	return solveWeights(c.Materialize(ws), ws)
}

// solveWeights solves C·b = 𝟙 with workspace scratch and normalizes b by
// its sum. The paper writes the normalization as B/‖B‖₁, but the entries
// of B need not share a sign even for positive definite C: C = [[1, 1.5],
// [1.5, 4]] gives B ∝ [2.5, −0.5], and B/‖B‖₁ would not sum to 1. B/ΣB is
// the exact minimizer of aᵀCa subject to Σa = 1 (a Lagrange multiplier
// gives a ∝ C⁻¹𝟙), with minimum 1/ΣB. The returned slice is
// workspace-owned.
func solveWeights(cov *mat.Matrix, ws *mat.Workspace) ([]float64, error) {
	l := cov.Rows()
	f := ws.LU(l)
	if err := f.Refactor(cov); err != nil {
		return nil, err
	}
	ones := ws.GetVec(l)
	for i := range ones {
		ones[i] = 1
	}
	b := ws.GetVec(l)
	f.SolveInto(ones, b)
	var sum float64
	for _, v := range b {
		sum += v
	}
	if sum == 0 {
		return nil, fmt.Errorf("core: weight normalization is zero: %w", ErrDegenerate)
	}
	for i := range b {
		b[i] /= sum
	}
	return b, nil
}
