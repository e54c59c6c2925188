package core

import (
	"fmt"

	"crowdassess/internal/crowd"
	"crowdassess/internal/mat"
	"crowdassess/internal/stat"
)

// tripleStats bundles everything the 3-worker estimator derives from a
// worker triple: agreement rates, common-task counts, the per-worker error
// estimates, gradients and the 3×3 agreement covariance matrix.
type tripleStats struct {
	// q[0] = q̂_{a,b}, q[1] = q̂_{a,c}, q[2] = q̂_{b,c} for the triple (a,b,c).
	q [3]float64
	// common[0] = c_{a,b}, common[1] = c_{a,c}, common[2] = c_{b,c}.
	common [3]int
	// common3 = c_{a,b,c}.
	common3 int
	// p[0..2] = estimated error rates of a, b, c.
	p [3]float64
	// grad[w] holds ∂p_w/∂(q_ab, q_ac, q_bc).
	grad [3][3]float64
	// cov is the 3×3 covariance of (Q_ab, Q_ac, Q_bc) per Lemma 3.
	cov *mat.Matrix
}

// pairIndex maps, for worker w ∈ {0,1,2} of a triple, the positions in the
// q-vector (q_ab, q_ac, q_bc) of: the two rates involving w and the one
// opposite rate. E.g. worker 0 (=a) is in q_ab (0) and q_ac (1); opposite
// is q_bc (2).
var pairIndex = [3][3]int{
	{0, 1, 2}, // worker a: own pairs ab, ac; opposite bc
	{0, 2, 1}, // worker b: own pairs ab, bc; opposite ac
	{1, 2, 0}, // worker c: own pairs ac, bc; opposite ab
}

// pairSource provides pairwise agreement statistics. Algorithm A2 uses a
// precomputed table (fullStatsCache) because its covariance loops touch
// every pair repeatedly; the 3-worker entry point reads the dataset
// directly.
type pairSource interface {
	pair(i, j int) crowd.PairStats
}

// fullStatsCache precomputes the pairwise agreement table and the
// attendance bitsets of a dataset.
type fullStatsCache struct {
	pairs [][]crowd.PairStats
	att   *crowd.Attendance
}

func newFullStatsCache(ds *crowd.Dataset) *fullStatsCache {
	att := ds.Attendance()
	return &fullStatsCache{pairs: att.PairMatrix(), att: att}
}

func (c *fullStatsCache) pair(i, j int) crowd.PairStats { return c.pairs[i][j] }
func (c *fullStatsCache) attendance(w int) []uint64     { return c.att.Attempted(w) }

// directSource computes statistics on demand, for one-shot triples.
type directSource struct{ ds *crowd.Dataset }

func (d directSource) pair(i, j int) crowd.PairStats { return d.ds.Pair(i, j) }

// newTripleStats computes the full statistics for workers (a, b, c), who
// attended common3 tasks together, writing the Lemma 3 covariance into cov
// (3×3, every entry overwritten). It returns ErrInsufficientData when some
// pair shares no tasks and ErrDegenerate when an agreement rate is at or
// below ½.
func newTripleStats(src pairSource, a, b, c, common3 int, cov *mat.Matrix) (tripleStats, error) {
	st := tripleStats{common3: common3, cov: cov}
	pairs := [3][2]int{{a, b}, {a, c}, {b, c}}
	for i, pr := range pairs {
		ps := src.pair(pr[0], pr[1])
		if ps.Common == 0 {
			return st, fmt.Errorf("core: workers %d and %d share no tasks: %w", pr[0], pr[1], ErrInsufficientData)
		}
		st.common[i] = ps.Common
		st.q[i] = ps.Rate()
	}

	// Error rates and gradients for each of the three workers (Equation 1 /
	// Lemma 2 with arguments permuted per worker).
	for w := 0; w < 3; w++ {
		own1, own2, opp := pairIndex[w][0], pairIndex[w][1], pairIndex[w][2]
		p, err := fBinary(st.q[own1], st.q[own2], st.q[opp])
		if err != nil {
			return st, err
		}
		d1, d2, dOpp, err := fBinaryGrad(st.q[own1], st.q[own2], st.q[opp])
		if err != nil {
			return st, err
		}
		st.p[w] = p
		st.grad[w][own1] = d1
		st.grad[w][own2] = d2
		st.grad[w][opp] = dOpp
	}

	// Covariance matrix of (Q_ab, Q_ac, Q_bc) per Lemma 3. The shared worker
	// of pairs (ab, ac) is a; of (ab, bc) is b; of (ac, bc) is c. The
	// "other" agreement rate is the one not involving the shared worker.
	for i := 0; i < 3; i++ {
		cov.Set(i, i, pairVariance(st.q[i], st.common[i]))
	}
	type cross struct{ i, j, sharedWorker, otherQ int }
	for _, x := range []cross{
		{0, 1, 0, 2}, // (q_ab, q_ac): shared a, other q_bc
		{0, 2, 1, 1}, // (q_ab, q_bc): shared b, other q_ac
		{1, 2, 2, 0}, // (q_ac, q_bc): shared c, other q_ab
	} {
		cv := pairCovariance(st.p[x.sharedWorker], st.q[x.otherQ],
			st.common3, st.common[x.i], st.common[x.j])
		cov.Set(x.i, x.j, cv)
		cov.Set(x.j, x.i, cv)
	}
	return st, nil
}

// estimate runs the delta method for worker w ∈ {0,1,2} of the triple.
// It calls DenseCov's methods directly rather than through DeltaMethod's
// interface, so the gradient never escapes and A2's per-triple loop stays
// allocation-free.
func (st *tripleStats) estimate(w int) (DeltaEstimate, error) {
	cov, grad := DenseCov{st.cov}, st.grad[w][:]
	return deltaFromVariance(st.p[w], cov.Quad(grad), cov.DiagAbsQuad(grad))
}

// ThreeWorkerBinary computes c-confidence intervals for the error rates of
// the three given workers from their (possibly non-regular) binary
// responses. This is Algorithm A1 (Section III-A) with the Lemma 3
// covariances, which subsume the regular case (Section III-B). Intervals
// are clamped to [0, 1].
func ThreeWorkerBinary(ds *crowd.Dataset, workers [3]int, c float64) ([3]stat.Interval, error) {
	var out [3]stat.Interval
	if ds.Arity() != 2 {
		return out, fmt.Errorf("core: ThreeWorkerBinary needs a binary dataset, got arity %d", ds.Arity())
	}
	if err := checkConfidence(c); err != nil {
		return out, err
	}
	common3 := ds.CommonTriple(workers[0], workers[1], workers[2])
	st, err := newTripleStats(directSource{ds}, workers[0], workers[1], workers[2], common3, mat.New(3, 3))
	if err != nil {
		return out, err
	}
	for w := 0; w < 3; w++ {
		est, err := st.estimate(w)
		if err != nil {
			return out, err
		}
		out[w] = est.Interval(c).ClampTo(0, 1)
	}
	return out, nil
}

func checkConfidence(c float64) error {
	if !(c > 0 && c < 1) {
		return fmt.Errorf("core: confidence level %v outside (0, 1)", c)
	}
	return nil
}
