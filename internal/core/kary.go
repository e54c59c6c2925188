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

// vEstimates holds the three V_i = S^{1/2}·P_i point estimates.
type vEstimates struct {
	v [3]*mat.Matrix
}

// probEstimate implements the paper's ProbEstimate procedure: from the
// counts tensor it recovers estimates of V_i = S^{1/2}_D·P_i for the three
// workers using the spectral decomposition of pairwise response-frequency
// matrices (Lemmas 6–8).
//
// Every temporary — and the returned matrices — comes from ws, so a warmed
// workspace makes the call allocation-free in steady state. The caller owns
// the Reset discipline: results are valid until ws is next reset, and
// probEstimate itself never rewinds the workspace (the gradient loop needs
// the +ε and −ε results alive simultaneously).
func probEstimate(counts *crowd.Tensor3, ws *mat.Workspace) (vEstimates, error) {
	k := counts.Arity()

	// Step 1: attendance totals.
	nAll := counts.AttendanceTotal([3]bool{true, true, true})
	n12 := counts.AttendanceTotal([3]bool{true, true, false})
	n23 := counts.AttendanceTotal([3]bool{false, true, true})
	n31 := counts.AttendanceTotal([3]bool{true, false, true})
	if nAll <= 0 {
		return vEstimates{}, fmt.Errorf("core: no tasks attempted by all three workers: %w", ErrInsufficientData)
	}

	// Step 2: response-frequency matrices.
	r12 := ws.Get(k, k)
	r23 := ws.Get(k, k)
	r31 := ws.Get(k, k)
	den12, den23, den31 := nAll+n12, nAll+n23, nAll+n31
	for a := 1; a <= k; a++ {
		row12 := r12.RowView(a - 1)
		row23 := r23.RowView(a - 1)
		row31 := r31.RowView(a - 1)
		for b := 1; b <= k; b++ {
			var s12, s23, s31 float64
			for K := 0; K <= k; K++ {
				s12 += counts.At(a, b, K)
				s23 += counts.At(K, a, b)
				s31 += counts.At(b, K, a)
			}
			row12[b-1] = s12 / den12
			row23[b-1] = s23 / den23
			row31[b-1] = s31 / den31
		}
	}
	r13 := ws.Get(k, k)
	mat.TTo(r13, r31)
	r32 := ws.Get(k, k)
	mat.TTo(r32, r23)

	// Step 3: eigendecomposition of M = R₁,₂·R₃,₂⁻¹·R₃,₁ = V₁ᵀV₁ (Lemma 7).
	lu := ws.LU(k)
	r32inv := ws.Get(k, k)
	if err := mat.InverseTo(r32inv, r32, lu); err != nil {
		return vEstimates{}, fmt.Errorf("core: R₃,₂ singular: %w", ErrDegenerate)
	}
	chain := ws.Get(k, k) // shared scratch for the A·B·C products below
	m := ws.Get(k, k)
	mat.MulTo(chain, r12, r32inv)
	mat.MulTo(m, chain, r31)

	// Step 4: U₁ = E·D^{1/2}·Eᵀ, the square root of M. M is symmetric PSD
	// in exact arithmetic, so the estimate is symmetrized and decomposed by
	// the orthogonal Jacobi method (E⁻¹ = Eᵀ).
	eg, err := m.EigenSymWS(ws)
	if err != nil {
		return vEstimates{}, err
	}
	if err := clampSpectrumInPlace(eg.Values); err != nil {
		return vEstimates{}, err
	}
	et := ws.Get(k, k)
	mat.TTo(et, eg.Vectors)
	scaleColsSqrt(chain, eg.Vectors, eg.Values)
	u1 := ws.Get(k, k)
	mat.MulTo(u1, chain, et)

	// U₂ = (U₁ᵀ)⁻¹·R₁,₂, so that V_i = U·U_i for a common unitary U
	// (Lemma 7). U₃ is never needed: step 7 recovers V₂ and V₃ from V₁.
	u1t := ws.Get(k, k)
	mat.TTo(u1t, u1)
	u1invT := ws.Get(k, k)
	if err := mat.InverseTo(u1invT, u1t, lu); err != nil {
		return vEstimates{}, fmt.Errorf("core: U₁ singular: %w", ErrDegenerate)
	}
	u2 := ws.Get(k, k)
	mat.MulTo(u2, u1invT, r12)
	u2inv := ws.Get(k, k)
	if err := mat.InverseTo(u2inv, u2, lu); err != nil {
		return vEstimates{}, fmt.Errorf("core: U₂ singular: %w", ErrDegenerate)
	}

	// Steps 5–6: recover the unitary U from the conditional response
	// frequencies, once per conditioning response j₃ of worker 3, and
	// average the aligned V₁ estimates.
	v1sum := ws.Get(k, k)
	r123 := ws.Get(k, k)
	b := ws.Get(k, k)
	usable := 0
	for j3 := 1; j3 <= k; j3++ {
		var nj3 float64
		for a := 1; a <= k; a++ {
			for bb := 1; bb <= k; bb++ {
				nj3 += counts.At(a, bb, j3)
			}
		}
		if nj3 <= 0 {
			continue // worker 3 never answered j₃ on fully-attempted tasks
		}
		for a := 1; a <= k; a++ {
			row := r123.RowView(a - 1)
			for bb := 1; bb <= k; bb++ {
				row[bb-1] = counts.At(a, bb, j3) / nj3
			}
		}
		// B = (U₁ᵀ)⁻¹·R₁,₂|₃,j₃·U₂⁻¹ = U⁻¹·(W₃,j₃/p(j₃))·U (Lemma 8): its
		// eigenvector matrix X satisfies U = rows-normalized X⁻¹ up to row
		// permutation and sign.
		mat.MulTo(chain, u1invT, r123)
		mat.MulTo(b, chain, u2inv)
		eg, err := b.EigenDecomposeWS(ws)
		if err != nil {
			continue // complex pair for this j₃; skip it
		}
		// The eigenvalues of B are worker 3's response probabilities for j₃
		// (rescaled); a (near-)repeated eigenvalue — e.g. two true classes
		// that both almost never elicit response j₃ — leaves the
		// corresponding eigenvectors unidentifiable, so that conditioning
		// response contributes no usable estimate.
		if spectrumDegenerate(eg.Values) {
			continue
		}
		u := ws.Get(k, k)
		if err := mat.InverseTo(u, eg.Vectors, lu); err != nil {
			continue
		}
		normalizeRowsInPlace(u)
		v1 := ws.Get(k, k)
		mat.MulTo(v1, u, u1)
		fixSigns(v1, u)
		aligned := alignRowsWS(v1, ws)
		mat.PlusTo(v1sum, v1sum, aligned)
		usable++
	}
	if usable == 0 {
		return vEstimates{}, fmt.Errorf("core: no usable conditional decomposition: %w", ErrDegenerate)
	}
	v1 := ws.Get(k, k)
	mat.ScaleTo(v1, v1sum, 1/float64(usable))

	// Step 7: V₂ = (V₁ᵀ)⁻¹·R₁,₂ and V₃ = (V₁ᵀ)⁻¹·R₁,₃.
	v1t := ws.Get(k, k)
	mat.TTo(v1t, v1)
	v1invT := ws.Get(k, k)
	if err := mat.InverseTo(v1invT, v1t, lu); err != nil {
		return vEstimates{}, fmt.Errorf("core: V₁ singular: %w", ErrDegenerate)
	}
	v2 := ws.Get(k, k)
	mat.MulTo(v2, v1invT, r12)
	v3 := ws.Get(k, k)
	mat.MulTo(v3, v1invT, r13)
	return vEstimates{v: [3]*mat.Matrix{v1, v2, v3}}, nil
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

// alignRowsWS permutes rows so each row's dominant element lands on the
// diagonal (the paper's step 6.d: worker matrices are diagonally dominant
// per row). A greedy assignment on the globally largest entries resolves
// conflicts deterministically. Scratch and result come from ws.
func alignRowsWS(v *mat.Matrix, ws *mat.Workspace) *mat.Matrix {
	k := v.Rows()
	taken := ws.GetInts(2 * k) // rows in [:k], columns in [k:], 1 = taken
	rowTaken := taken[:k]
	colTaken := taken[k:]
	position := ws.GetInts(k) // position[c] = source row placed at row c
	for step := 0; step < k; step++ {
		bestR, bestC, bestV := -1, -1, math.Inf(-1)
		for r := 0; r < k; r++ {
			if rowTaken[r] != 0 {
				continue
			}
			row := v.RowView(r)
			for c := 0; c < k; c++ {
				if colTaken[c] != 0 {
					continue
				}
				if row[c] > bestV {
					bestR, bestC, bestV = r, c, row[c]
				}
			}
		}
		rowTaken[bestR] = 1
		colTaken[bestC] = 1
		position[bestC] = bestR
	}
	out := ws.Get(k, k)
	for c := 0; c < k; c++ {
		copy(out.RowView(c), v.RowView(position[c]))
	}
	return out
}
