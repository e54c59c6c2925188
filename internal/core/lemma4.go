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

	// ws serves the row tables MaterializeInto builds on its first call
	// (see lemma4row.go), when every triple has been added; tab holds them.
	ws  *mat.Workspace
	tab lemma4Tables
}

// lemma4Tables are the per-solve tables countRow and entryRow read, laid
// out as lemma4row.go describes, and their per-row scratch. The block
// holds at most lemma4Chunk of the words, so its size does not grow with
// the task horizon: more words than that are counted one chunk at a time
// into sums, which then holds every row's counts. Only countBlocks uses
// words, block and sums, and only countRows masks.
type lemma4Tables struct {
	half   int
	tri    []int     // j1 | j2 | c_{i,j1} | c_{i,j2}
	grad   []float64 // ∂p_i/∂q_{i,j1} | ∂p_i/∂q_{i,j2}
	counts []int     // one row's counts, 4·half
	out    []float64 // entryRow's result for the current row
	words  []int     // the word of each block row (tripleCounts.blockWords)
	block  []uint64  // min(len(words), lemma4Chunk) × 2·half, word-major
	sums   []int     // every row's counts, (l−1) × 4·half, when chunked
	masks  []uint64  // pairRows' two rows on the full horizon
}

// lemma4Chunk is the most words a covariance's block holds: 128 words of
// 2·half lanes are 64 KiB at 32 triples. A block of every word would grow
// with partners × horizon: 864 KiB per solve on a dense 64-worker crowd
// over 108 000 tasks, and 16 MiB for 128 workers over a million tasks.
const lemma4Chunk = 128

// newLemma4Cov returns an empty covariance for the worker counts
// evaluates, its per-triple slices drawn from ws (capacity for up to
// `capacity` triples), which also serves MaterializeInto's tables;
// triples are appended with add in the order they were formed, and pPool
// must be set before any entry is read. It returns a value so a solve can
// keep it on its stack; counts is copied in for the same reason (escape
// analysis would move a pointed-to one to the heap).
func newLemma4Cov(counts tripleCounts, capacity int, ws *mat.Workspace) Lemma4Cov {
	ints := ws.GetInts(2 * capacity)
	return Lemma4Cov{
		ws:     ws,
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
// of the upper triangle takes its four c_{i,j,j′} per later entry, then
// one entryRow call, which turns them into entries (a vector kernel on
// amd64, lemma4row.go); the lower triangle is the mirror. Where the CPU
// has AVX-512 VPOPCNTDQ (blockCounts), countRow counts a whole row over
// word-major partner rows, one call per block of words; elsewhere
// common3Block counts entry by entry over row-major rows. The first call
// builds the row tables from every triple added so far and later calls
// reuse them, so every add must come before it; a repeat call writes the
// same matrix.
func (c *Lemma4Cov) MaterializeInto(dst *mat.Matrix) {
	c.materialize(dst, blockCounts)
}

// materialize is MaterializeInto with the counts taken from the
// word-major block (block) or from the row-major rows.
func (c *Lemma4Cov) materialize(dst *mat.Matrix, block bool) {
	l := len(c.diag)
	if dst.Rows() != l || dst.Cols() != l {
		panic(mat.ErrShape)
	}
	for k := range l {
		dst.RowView(k)[k] = c.diag[k]
	}
	if l < 2 {
		return
	}
	t := c.tables()
	if !block {
		c.countRows(dst, t)
		return
	}
	c.countBlocks(dst, t)
}

// countRows writes the upper triangle and its mirror with each entry's
// counts from one common3Block pass over row k1's two rows (pairRows)
// and the entry's (row). Each pass streams four rows in order, which a
// scalar POPCNT does at full rate; the word-major block's strided lanes
// do not suit it.
func (c *Lemma4Cov) countRows(dst *mat.Matrix, t *lemma4Tables) {
	if t.masks == nil && !c.counts.packed {
		t.masks = c.ws.GetWords(2 * len(c.counts.own))
	}
	h := t.half
	for k1 := 0; k1+1 < len(c.diag); k1++ {
		ra, rb := c.counts.pairRows(c.j1[k1], c.j2[k1], t.masks)
		for k2 := k1 + 1; k2 < len(c.diag); k2++ {
			ax, ay, bx, by := common3Block(ra, rb, c.counts.row(c.j1[k2]), c.counts.row(c.j2[k2]))
			t.counts[k2], t.counts[h+k2], t.counts[2*h+k2], t.counts[3*h+k2] = ax, ay, bx, by
		}
		c.entries(dst, t, k1, t.counts)
	}
}

// countBlocks writes the upper triangle and its mirror with every row's
// counts from countRow over the word-major block, one chunk of at most
// lemma4Chunk words at a time.
func (c *Lemma4Cov) countBlocks(dst *mat.Matrix, t *lemma4Tables) {
	l, h := len(c.diag), t.half
	if t.block == nil {
		t.words = c.counts.blockWords(c.ws.GetInts(len(c.counts.own)))
		t.block = c.ws.GetWords(min(len(t.words), lemma4Chunk) * 2 * h)
		if len(t.words) > lemma4Chunk {
			t.sums = c.ws.GetInts((l - 1) * 4 * h)
		}
	}
	if len(t.words) <= lemma4Chunk {
		c.fillBlock(t, t.words)
		for k1 := 0; k1+1 < l; k1++ {
			clear(t.counts)
			countRow(t.block, len(t.words), h, k1, (k1+1)&^7, t.counts)
			c.entries(dst, t, k1, t.counts)
		}
		return
	}
	clear(t.sums)
	for w0 := 0; w0 < len(t.words); w0 += lemma4Chunk {
		words := t.words[w0:min(w0+lemma4Chunk, len(t.words))]
		c.fillBlock(t, words)
		for k1 := 0; k1+1 < l; k1++ {
			countRow(t.block, len(words), h, k1, (k1+1)&^7, t.sums[k1*4*h:][:4*h])
		}
	}
	for k1 := 0; k1+1 < l; k1++ {
		c.entries(dst, t, k1, t.sums[k1*4*h:][:4*h])
	}
}

// fillBlock writes every partner's row at words into the block.
func (c *Lemma4Cov) fillBlock(t *lemma4Tables, words []int) {
	for k := range c.diag {
		c.counts.putLane(t.block, 2*t.half, k, c.j1[k], words)
		c.counts.putLane(t.block, 2*t.half, t.half+k, c.j2[k], words)
	}
}

// entries writes row k1 of the upper triangle and its mirror from the
// row's counts.
func (c *Lemma4Cov) entries(dst *mat.Matrix, t *lemma4Tables, k1 int, counts []int) {
	src := c.counts.src
	_, own := src.counters(c.counts.i)
	a, b := c.j1[k1], c.j2[k1]
	agreeA, commonA := src.counters(a)
	agreeB, commonB := src.counters(b)
	entryRow(t.out, counts, t.tri, t.grad, agreeA, commonA, agreeB, commonB, t.half, (k1+1)&^3, own[a], own[b], c.d1[k1], c.d2[k1], c.pPool)
	row := dst.RowView(k1)
	for k2 := k1 + 1; k2 < len(c.diag); k2++ {
		v := t.out[k2]
		row[k2] = v
		dst.RowView(k2)[k1] = v
	}
}

// tables returns the row tables both count paths share, building them
// from ws on the first call; each path adds its own scratch on its first
// use.
func (c *Lemma4Cov) tables() *lemma4Tables {
	t := &c.tab
	if t.tri != nil {
		return t
	}
	l := len(c.diag)
	h := (l + 7) &^ 7
	t.half = h
	t.tri, t.counts = c.ws.GetInts(4*h), c.ws.GetInts(4*h)
	t.grad, t.out = c.ws.GetVec(2*h), c.ws.GetVec(h)
	_, own := c.counts.src.counters(c.counts.i)
	for k := range l {
		x, y := c.j1[k], c.j2[k]
		t.tri[k], t.tri[h+k], t.tri[2*h+k], t.tri[3*h+k] = x, y, own[x], own[y]
		t.grad[k], t.grad[h+k] = c.d1[k], c.d2[k]
	}
	return t
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
