package core

import (
	"fmt"
	"math"

	"crowdassess/internal/crowd"
	"crowdassess/internal/mat"
	"crowdassess/internal/stat"
)

// karyEpsilon is the paper's step of the central-difference derivatives
// over the counts tensor (Algorithm A3, steps 5–6).
const karyEpsilon = 0.01

// KAryEstimate is the result of Algorithm A3 for an ordered worker triple.
type KAryEstimate struct {
	// Prob[i] is worker i's estimated k×k response-probability matrix
	// (rows normalized to sum 1).
	Prob [3]*mat.Matrix
	// Intervals[i][j1][j2] is the confidence interval for Prob[i][j1][j2]
	// (0-based indices for classes j1+1, j2+1).
	Intervals [3][][]stat.Interval
	// Selectivity is the estimated prior over true classes.
	Selectivity []float64
}

// KAryDelta is the confidence-level-independent part of an Algorithm A3
// estimate: normalized response-probability means and deviations, from
// which Intervals derives an interval set at any level.
type KAryDelta struct {
	// Mean[i] and Dev[i] are worker i's k×k response-probability point
	// estimates and delta-method standard deviations (already normalized
	// into probability space).
	Mean [3]*mat.Matrix
	Dev  [3]*mat.Matrix
	// Selectivity is the estimated prior over true classes.
	Selectivity []float64
}

// Intervals materializes the c-confidence estimate from the deltas.
func (d *KAryDelta) Intervals(c float64) *KAryEstimate {
	out := &KAryEstimate{}
	d.IntervalsInto(c, out)
	return out
}

// IntervalsInto is Intervals writing into dst: storage dst already holds
// in the right k×k shape is refilled in place, so a caller sweeping
// confidence levels over one delta allocates once. Any dst, including the
// zero value, is accepted.
func (d *KAryDelta) IntervalsInto(c float64, dst *KAryEstimate) {
	k := d.Mean[0].Rows()
	dst.Selectivity = append(dst.Selectivity[:0], d.Selectivity...)
	z := stat.ConfidenceZ(c)
	for w := 0; w < 3; w++ {
		if dst.Prob[w] == nil || dst.Prob[w].Rows() != k || dst.Prob[w].Cols() != k {
			dst.Prob[w] = mat.New(k, k)
		}
		if len(dst.Intervals[w]) != k {
			dst.Intervals[w] = make([][]stat.Interval, k)
		}
		probs, ivs := dst.Prob[w], dst.Intervals[w]
		for a := 0; a < k; a++ {
			if len(ivs[a]) != k {
				ivs[a] = make([]stat.Interval, k)
			}
			for b := 0; b < k; b++ {
				mean := d.Mean[w].At(a, b)
				de := DeltaEstimate{Mean: mean, Dev: d.Dev[w].At(a, b)}
				ivs[a][b] = de.intervalZ(z, c).ClampTo(0, 1)
				probs.Set(a, b, stat.Clamp01(mean))
			}
		}
	}
}

// ThreeWorkerKAry runs Algorithm A3 on the ordered worker triple: it
// estimates each worker's k×k response-probability matrix with
// c-confidence intervals, using only the three workers' responses (no gold
// answers).
func ThreeWorkerKAry(ds *crowd.Dataset, workers [3]int, c float64) (*KAryEstimate, error) {
	if err := checkConfidence(c); err != nil {
		return nil, err
	}
	var s Solver
	delta, err := s.ThreeWorkerKAryDelta(ds, workers)
	if err != nil {
		return nil, err
	}
	return delta.Intervals(c), nil
}

// ThreeWorkerKAryDelta is ThreeWorkerKAry without committing to a confidence
// level.
func (s *Solver) ThreeWorkerKAryDelta(ds *crowd.Dataset, workers [3]int) (*KAryDelta, error) {
	return s.threeWorkerKAryDelta(ds, workers, karyEpsilon)
}

// threeWorkerKAryDelta is ThreeWorkerKAryDelta at derivative step eps.
func (s *Solver) threeWorkerKAryDelta(ds *crowd.Dataset, workers [3]int, eps float64) (*KAryDelta, error) {
	k := ds.Arity()
	counts := ds.CountsTensor(workers[0], workers[1], workers[2])

	// Step 3 of Algorithm A3: the point estimate. base's matrices live in
	// s.ws, which must stay un-reset while base.v is read below; the
	// gradient loop runs on s.grad.
	s.ws.Reset()
	base, err := probEstimate(counts, &s.ws)
	if err != nil {
		return nil, err
	}

	// Step 4: covariances of the k³ all-attempted count entries (Lemma 9).
	// Restricted to entries with all three workers responding, the counts
	// are a multinomial over the n₁,₂,₃ tasks attempted by all three, so Σ
	// has the structure n·(diag(p) − p·pᵀ) and never needs materializing:
	// MultinomialCov evaluates the delta method's quadratic form in O(k³)
	// instead of the O(k⁶) time and memory of the dense matrix.
	nAll := counts.AttendanceTotal([3]bool{true, true, true})
	if nAll <= 0 {
		return nil, fmt.Errorf("core: no tasks attempted by all three workers: %w", ErrInsufficientData)
	}
	nEntries := k * k * k
	flatCounts := s.ws.GetVec(nEntries)
	for j1 := 1; j1 <= k; j1++ {
		for j2 := 1; j2 <= k; j2++ {
			for j3 := 1; j3 <= k; j3++ {
				flatCounts[((j1-1)*k+(j2-1))*k+(j3-1)] = counts.At(j1, j2, j3)
			}
		}
	}
	cov, err := NewMultinomialCov(flatCounts, nAll)
	if err != nil {
		return nil, err
	}

	// Steps 5–6: central-difference derivatives of every estimated element
	// with respect to every all-attempted count entry.
	grads := s.ws.GetVec(3 * k * k * nEntries)
	if err := karyGradients(counts, eps, grads, &s.grad); err != nil {
		return nil, err
	}

	// Step 7: mean and deviation for each V element via Theorem 1, then row
	// normalization to turn V = S^{1/2}·P estimates into P estimates.
	out := &KAryDelta{Selectivity: make([]float64, k)}
	selAccum := make([]float64, k)
	for w := 0; w < 3; w++ {
		out.Mean[w] = mat.New(k, k)
		out.Dev[w] = mat.New(k, k)
		for a := 0; a < k; a++ {
			rowSum := 0.0
			for b := 0; b < k; b++ {
				rowSum += base.v[w].At(a, b)
			}
			if rowSum <= 0 {
				return nil, fmt.Errorf("core: non-positive row sum in V%d: %w", w+1, ErrDegenerate)
			}
			// Row sum of S^{1/2}P is √s_a; accumulate the selectivity estimate.
			selAccum[a] += rowSum * rowSum / 3
			for b := 0; b < k; b++ {
				de, err := DeltaMethodCov(base.v[w].At(a, b), vGrad(grads, k, w, a, b), cov)
				if err != nil {
					return nil, err
				}
				// Normalize into response-probability space.
				out.Mean[w].Set(a, b, de.Mean/rowSum)
				out.Dev[w].Set(a, b, de.Dev/rowSum)
			}
		}
	}
	var selTotal float64
	for _, v := range selAccum {
		selTotal += v
	}
	if selTotal > 0 {
		for a := 0; a < k; a++ {
			out.Selectivity[a] = selAccum[a] / selTotal
		}
	}
	return out, nil
}

// karyGradients fills grads with the central-difference derivatives of
// every V element with respect to every all-attempted count entry: for each
// of the k³ entries it runs probEstimate on the ±ε perturbed tensor (steps
// 5–6 of Algorithm A3). Each entry is perturbed in counts itself and
// restored exactly before the next. The calls run serially on ws; callers
// that want more CPUs run several triples at once (the figure runners do,
// one cell per goroutine). ws is reset once per entry and serves both the
// +ε and −ε estimates, so the whole loop runs allocation-free once ws has
// served one entry. grads is laid out as vGrad reads it.
func karyGradients(counts *crowd.Tensor3, eps float64, grads []float64, ws *mat.Workspace) error {
	k := counts.Arity()
	for e := 0; e < k*k*k; e++ {
		j1 := e/(k*k) + 1
		j2 := (e/k)%k + 1
		j3 := e%k + 1
		// Save/restore the exact value rather than adding and subtracting ε:
		// (c+ε)−2ε+ε ≠ c in floating point, and the residue would pollute
		// later entries' derivatives.
		//
		// One Reset covers both estimates: plus's matrices must stay valid
		// while minus is computed, so the workspace is only rewound between
		// entries, never between the two perturbed calls.
		ws.Reset()
		orig := counts.At(j1, j2, j3)
		counts.Set(j1, j2, j3, orig+eps)
		plus, errP := probEstimate(counts, ws)
		counts.Set(j1, j2, j3, orig-eps)
		minus, errM := probEstimate(counts, ws)
		counts.Set(j1, j2, j3, orig)
		if errP != nil || errM != nil {
			return fmt.Errorf("core: perturbed estimate failed: %w", ErrDegenerate)
		}
		for w := 0; w < 3; w++ {
			for a := 0; a < k; a++ {
				plusRow := plus.v[w].RowView(a)
				minusRow := minus.v[w].RowView(a)
				for b := 0; b < k; b++ {
					vGrad(grads, k, w, a, b)[e] = (plusRow[b] - minusRow[b]) / (2 * eps)
				}
			}
		}
	}
	return nil
}

// vGrad returns, from grads (3·k²·k³ floats), the gradient of element
// (a, b) of V_w over the k³ count entries.
func vGrad(grads []float64, k, w, a, b int) []float64 {
	n := k * k * k
	return grads[((w*k+a)*k+b)*n:][:n]
}

// vEstimates holds the three V_i = S^{1/2}·P_i point estimates. The
// matrices live in the workspace span of the probEstimate call that made
// them.
type vEstimates struct {
	v [3]mat.Matrix
}

// probScratch is probEstimate's working set: every k×k matrix it builds,
// the two spectra, and the eigendecompositions' scratch. carve takes it
// from one workspace span per call. The per-j₃ matrices of steps 5–6 are
// reused for every j₃: each is written in full before it is read.
type probScratch struct {
	r12, r23, r31, r13, r32                                 mat.Matrix // step 2
	r32inv, chain, m, mVecs, et, u1, u1t, u1invT, u2, u2inv mat.Matrix // steps 3–4
	v1sum, r123, b, bVecs, u, v1j, aligned                  mat.Matrix // steps 5–6
	v1, v1t, v1invT, v2, v3                                 mat.Matrix // step 7
	mVals, bVals, eig                                       []float64
}

// carve points every matrix and slice of s at one zeroed span of ws.
func (s *probScratch) carve(k int, ws *mat.Workspace) {
	mats := [...]*mat.Matrix{
		&s.r12, &s.r23, &s.r31, &s.r13, &s.r32,
		&s.r32inv, &s.chain, &s.m, &s.mVecs, &s.et, &s.u1, &s.u1t, &s.u1invT, &s.u2, &s.u2inv,
		&s.v1sum, &s.r123, &s.b, &s.bVecs, &s.u, &s.v1j, &s.aligned,
		&s.v1, &s.v1t, &s.v1invT, &s.v2, &s.v3,
	}
	rest := mat.Carve(ws.GetVec(len(mats)*k*k+2*k+mat.EigenScratch(k)), k, k, mats[:]...)
	s.mVals, s.bVals, s.eig = rest[:k], rest[k:2*k], rest[2*k:]
}

// probEstimate implements the paper's ProbEstimate procedure: from the
// counts tensor it recovers estimates of V_i = S^{1/2}_D·P_i for the three
// workers using the spectral decomposition of pairwise response-frequency
// matrices (Lemmas 6–8).
//
// Every temporary — and the returned matrices — comes from one span of ws
// (probScratch), so a warmed workspace makes the call allocation-free in
// steady state. The caller owns the Reset discipline: results are valid
// until ws is next reset, and probEstimate itself never rewinds the
// workspace (the gradient loop needs the +ε and −ε results alive
// simultaneously).
func probEstimate(counts *crowd.Tensor3, ws *mat.Workspace) (vEstimates, error) {
	k := counts.Arity()
	n := k + 1
	c := counts.Flat()

	// Step 1: attendance totals.
	nAll := counts.AttendanceTotal([3]bool{true, true, true})
	n12 := counts.AttendanceTotal([3]bool{true, true, false})
	n23 := counts.AttendanceTotal([3]bool{false, true, true})
	n31 := counts.AttendanceTotal([3]bool{true, false, true})
	if nAll <= 0 {
		return vEstimates{}, fmt.Errorf("core: no tasks attempted by all three workers: %w", ErrInsufficientData)
	}
	var s probScratch
	s.carve(k, ws)

	// Step 2: response-frequency matrices.
	den12, den23, den31 := nAll+n12, nAll+n23, nAll+n31
	for a := 1; a <= k; a++ {
		row12 := s.r12.RowView(a - 1)
		row23 := s.r23.RowView(a - 1)
		row31 := s.r31.RowView(a - 1)
		for b := 1; b <= k; b++ {
			var s12, s23, s31 float64
			for K := 0; K <= k; K++ {
				s12 += c[(a*n+b)*n+K]
				s23 += c[(K*n+a)*n+b]
				s31 += c[(b*n+K)*n+a]
			}
			row12[b-1] = s12 / den12
			row23[b-1] = s23 / den23
			row31[b-1] = s31 / den31
		}
	}
	mat.TTo(&s.r13, &s.r31)
	mat.TTo(&s.r32, &s.r23)

	// Step 3: eigendecomposition of M = R₁,₂·R₃,₂⁻¹·R₃,₁ = V₁ᵀV₁ (Lemma 7).
	// chain is shared scratch for the A·B·C products below.
	lu := ws.LU(k)
	if err := mat.InverseTo(&s.r32inv, &s.r32, lu); err != nil {
		return vEstimates{}, fmt.Errorf("core: R₃,₂ singular: %w", ErrDegenerate)
	}
	mat.MulTo(&s.chain, &s.r12, &s.r32inv)
	mat.MulTo(&s.m, &s.chain, &s.r31)

	// Step 4: U₁ = E·D^{1/2}·Eᵀ, the square root of M. M is symmetric PSD
	// in exact arithmetic, so the estimate is symmetrized and decomposed by
	// the orthogonal Jacobi method (E⁻¹ = Eᵀ).
	if err := mat.EigenSymTo(mat.Eigen{Values: s.mVals, Vectors: &s.mVecs}, &s.m, s.eig); err != nil {
		return vEstimates{}, err
	}
	if err := clampSpectrumInPlace(s.mVals); err != nil {
		return vEstimates{}, err
	}
	mat.TTo(&s.et, &s.mVecs)
	scaleColsSqrt(&s.chain, &s.mVecs, s.mVals)
	mat.MulTo(&s.u1, &s.chain, &s.et)

	// U₂ = (U₁ᵀ)⁻¹·R₁,₂, so that V_i = U·U_i for a common unitary U
	// (Lemma 7). U₃ is never needed: step 7 recovers V₂ and V₃ from V₁.
	mat.TTo(&s.u1t, &s.u1)
	if err := mat.InverseTo(&s.u1invT, &s.u1t, lu); err != nil {
		return vEstimates{}, fmt.Errorf("core: U₁ singular: %w", ErrDegenerate)
	}
	mat.MulTo(&s.u2, &s.u1invT, &s.r12)
	if err := mat.InverseTo(&s.u2inv, &s.u2, lu); err != nil {
		return vEstimates{}, fmt.Errorf("core: U₂ singular: %w", ErrDegenerate)
	}

	// Steps 5–6: recover the unitary U from the conditional response
	// frequencies, once per conditioning response j₃ of worker 3, and
	// average the aligned V₁ estimates.
	usable := 0
	for j3 := 1; j3 <= k; j3++ {
		var nj3 float64
		for a := 1; a <= k; a++ {
			for bb := 1; bb <= k; bb++ {
				nj3 += c[(a*n+bb)*n+j3]
			}
		}
		if nj3 <= 0 {
			continue // worker 3 never answered j₃ on fully-attempted tasks
		}
		for a := 1; a <= k; a++ {
			row := s.r123.RowView(a - 1)
			for bb := 1; bb <= k; bb++ {
				row[bb-1] = c[(a*n+bb)*n+j3] / nj3
			}
		}
		// B = (U₁ᵀ)⁻¹·R₁,₂|₃,j₃·U₂⁻¹ = U⁻¹·(W₃,j₃/p(j₃))·U (Lemma 8): its
		// eigenvector matrix X satisfies U = rows-normalized X⁻¹ up to row
		// permutation and sign.
		mat.MulTo(&s.chain, &s.u1invT, &s.r123)
		mat.MulTo(&s.b, &s.chain, &s.u2inv)
		if err := mat.EigenDecomposeTo(mat.Eigen{Values: s.bVals, Vectors: &s.bVecs}, &s.b, lu, s.eig); err != nil {
			continue // complex pair for this j₃; skip it
		}
		// The eigenvalues of B are worker 3's response probabilities for j₃
		// (rescaled); a (near-)repeated eigenvalue — e.g. two true classes
		// that both almost never elicit response j₃ — leaves the
		// corresponding eigenvectors unidentifiable, so that conditioning
		// response contributes no usable estimate.
		if spectrumDegenerate(s.bVals) {
			continue
		}
		if err := mat.InverseTo(&s.u, &s.bVecs, lu); err != nil {
			continue
		}
		normalizeRowsInPlace(&s.u)
		mat.MulTo(&s.v1j, &s.u, &s.u1)
		fixSigns(&s.v1j, &s.u)
		alignRows(&s.aligned, &s.v1j)
		mat.PlusTo(&s.v1sum, &s.v1sum, &s.aligned)
		usable++
	}
	if usable == 0 {
		return vEstimates{}, fmt.Errorf("core: no usable conditional decomposition: %w", ErrDegenerate)
	}
	mat.ScaleTo(&s.v1, &s.v1sum, 1/float64(usable))

	// Step 7: V₂ = (V₁ᵀ)⁻¹·R₁,₂ and V₃ = (V₁ᵀ)⁻¹·R₁,₃.
	mat.TTo(&s.v1t, &s.v1)
	if err := mat.InverseTo(&s.v1invT, &s.v1t, lu); err != nil {
		return vEstimates{}, fmt.Errorf("core: V₁ singular: %w", ErrDegenerate)
	}
	mat.MulTo(&s.v2, &s.v1invT, &s.r12)
	mat.MulTo(&s.v3, &s.v1invT, &s.r13)
	return vEstimates{v: [3]mat.Matrix{s.v1, s.v2, s.v3}}, nil
}

// scaleColsSqrt writes E·diag(√vals) into dst: column j of e scaled by
// √vals[j]. This is the fused form of Mul with a Diagonal matrix.
func scaleColsSqrt(dst, e *mat.Matrix, vals []float64) {
	k := e.Rows()
	for i := 0; i < k; i++ {
		src := e.RowView(i)
		out := dst.RowView(i)
		for j := 0; j < k; j++ {
			out[j] = src[j] * math.Sqrt(vals[j])
		}
	}
}

// spectrumDegenerate reports whether any two eigenvalues are too close for
// their eigenvectors to be individually identifiable. Values arrive sorted
// descending from EigenDecompose.
func spectrumDegenerate(vals []float64) bool {
	if len(vals) < 2 {
		return false
	}
	spread := vals[0] - vals[len(vals)-1]
	if spread <= 0 {
		return true
	}
	for i := 1; i < len(vals); i++ {
		if vals[i-1]-vals[i] < 1e-6*spread {
			return true
		}
	}
	return false
}

// clampSpectrumInPlace guards the square root of the second-moment
// spectrum: eigenvalues are clamped below at a small fraction of the
// dominant one, since sampling noise pushes the small eigenvalues of a PSD
// matrix below zero on finite data. The clamp happens in vals itself — the
// caller owns the slice (it comes from its workspace) and never needs the
// raw spectrum afterwards.
func clampSpectrumInPlace(vals []float64) error {
	if len(vals) == 0 {
		return fmt.Errorf("core: empty spectrum: %w", ErrDegenerate)
	}
	max := vals[0]
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	if max <= 0 {
		return fmt.Errorf("core: non-positive spectrum: %w", ErrDegenerate)
	}
	floor := 1e-9 * max
	for i, v := range vals {
		if v < floor {
			vals[i] = floor
		}
	}
	return nil
}

// normalizeRowsInPlace scales each row of m to unit L2 norm, removing the
// arbitrary per-eigenvector scaling of the spectral step.
func normalizeRowsInPlace(m *mat.Matrix) {
	for i := 0; i < m.Rows(); i++ {
		row := m.RowView(i)
		var s float64
		for _, v := range row {
			s += v * v
		}
		s = math.Sqrt(s)
		if s == 0 {
			continue
		}
		for j := range row {
			row[j] /= s
		}
	}
}

// fixSigns flips rows of v1 (and the matching rows of u) whose sum is
// negative: V₁ = S^{1/2}·P₁ has nonnegative entries, so a negative row sum
// means the eigenvector's sign was flipped.
func fixSigns(v1, u *mat.Matrix) {
	for i := 0; i < v1.Rows(); i++ {
		rowV := v1.RowView(i)
		var s float64
		for _, v := range rowV {
			s += v
		}
		if s < 0 {
			rowU := u.RowView(i)
			for j := range rowV {
				rowV[j] = -rowV[j]
				rowU[j] = -rowU[j]
			}
		}
	}
}

// alignRows writes v into dst with its rows permuted so each row's
// dominant element lands on the diagonal (the paper's step 6.d: worker
// matrices are diagonally dominant per row). A greedy assignment on the
// globally largest entries resolves conflicts deterministically. dst must
// not alias v.
func alignRows(dst, v *mat.Matrix) {
	k := v.Rows()
	var flags [32]bool // taken rows in [:k], columns in [k:2k]
	taken := flags[:]
	if 2*k > len(flags) {
		taken = make([]bool, 2*k)
	}
	rowTaken, colTaken := taken[:k], taken[k:2*k]
	for step := 0; step < k; step++ {
		bestR, bestC, bestV := -1, -1, math.Inf(-1)
		for r := 0; r < k; r++ {
			if rowTaken[r] {
				continue
			}
			row := v.RowView(r)
			for c := 0; c < k; c++ {
				if colTaken[c] {
					continue
				}
				if row[c] > bestV {
					bestR, bestC, bestV = r, c, row[c]
				}
			}
		}
		rowTaken[bestR] = true
		colTaken[bestC] = true
		copy(dst.RowView(bestC), v.RowView(bestR))
	}
}
