package core

import (
	"fmt"
	"math"
	"slices"

	"crowdassess/internal/crowd"
	"crowdassess/internal/mat"
	"crowdassess/internal/stat"
)

// WeightStrategy selects how Algorithm A2 combines the estimates from a
// worker's triples (Section III-C1, "Setting a_k").
type WeightStrategy int

const (
	// OptimalWeights minimizes the combined variance via Lemma 5:
	// a = C⁻¹𝟙 / Σ(C⁻¹𝟙). This is the paper's default and the subject of
	// the Fig. 2(c) ablation.
	OptimalWeights WeightStrategy = iota
	// UniformWeights sets every a_k = 1/l. Valid but looser intervals.
	UniformWeights
)

// PairingStrategy selects how the remaining workers are split into pairs
// (Section III-C1, "Selecting triples").
type PairingStrategy int

const (
	// GreedyPairing sorts candidates by common-task count with the evaluated
	// worker and pairs them greedily — the paper's strategy, which
	// concentrates quality in a few excellent triples.
	GreedyPairing PairingStrategy = iota
	// ArbitraryPairing pairs candidates in index order. Used as the
	// ablation baseline for the pairing strategy.
	ArbitraryPairing
)

// EvalOptions configures EvaluateWorkers.
type EvalOptions struct {
	// Confidence is the interval confidence level c ∈ (0,1). Required.
	Confidence float64
	// Weights selects the triple-combination strategy (default optimal).
	Weights WeightStrategy
	// Pairing selects the triple-formation strategy (default greedy).
	Pairing PairingStrategy
	// MinCommon is the minimum number of common tasks for a pair of workers
	// to be usable. The paper requires at least one; higher values trade
	// coverage for stability. Zero means 1.
	MinCommon int
}

// WorkerEstimate is the outcome of evaluating one worker with Algorithm A2.
type WorkerEstimate struct {
	Worker   int           // worker index in the dataset
	Interval stat.Interval // confidence interval for the error rate
	Triples  int           // number of triples aggregated
	Err      error         // non-nil when no estimate exists for this worker
}

// WorkerDelta is the confidence-level-independent part of a worker's
// Algorithm A2 estimate: an interval at any level c is
// Est.Interval(c).ClampTo(0, 1). Experiment harnesses sweeping confidence
// levels use this to estimate once and derive every interval.
type WorkerDelta struct {
	Worker  int
	Est     DeltaEstimate
	Triples int
	Err     error
}

// EvaluateWorkers runs Algorithm A2: for every worker it forms triples with
// pairs of other workers, runs the 3-worker estimator per triple, and
// combines the per-triple estimates with covariance-aware weights into a
// single confidence interval. Workers whose data is insufficient or
// degenerate get a non-nil Err in their slot; the method never fails as a
// whole unless the dataset or options are invalid.
//
// It builds a StatsAccumulator holding the dataset's statistics and
// evaluates every worker on it, so the workers fan out over every CPU and
// the intervals are bit-identical to a streaming evaluator's on the same
// responses. Solver.EvaluateWorkersDelta is the serial, level-free form.
func EvaluateWorkers(ds *crowd.Dataset, opts EvalOptions) ([]WorkerEstimate, error) {
	if err := checkConfidence(opts.Confidence); err != nil {
		return nil, err
	}
	if err := checkBinaryCrowd(ds); err != nil {
		return nil, err
	}
	a := newStatsAccumulator(ds.Workers())
	a.stats.setDataset(ds)
	return a.EvaluateAll(opts)
}

// checkBinaryCrowd refuses a dataset Algorithm A2 cannot evaluate: a
// non-binary one, or one of fewer than three workers.
func checkBinaryCrowd(ds *crowd.Dataset) error {
	if ds.Arity() != 2 {
		return fmt.Errorf("core: EvaluateWorkers needs a binary dataset, got arity %d", ds.Arity())
	}
	if m := ds.Workers(); m < 3 {
		return fmt.Errorf("core: need at least 3 workers, have %d: %w", m, ErrInsufficientData)
	}
	return nil
}

// agreementSource is what Algorithm A2 needs from its statistics provider:
// pairwise agreement statistics, and each worker's attendance bitset, from
// which tripleCounts derives the triple common-task counts. streamStats
// implements it for every solve, batch and streaming alike.
type agreementSource interface {
	pairSource
	// counters returns worker w's rows of the pairwise counters, read-only:
	// agree[j] and common[j] are pair(w, j)'s Agree and Common for every
	// j ≠ w. The solve's inner loops index them instead of calling pair.
	counters(w int) (agree, common []int)
	// attendance returns worker w's attempted-task bitset (bit t of word
	// t/64), read-only. Lengths may differ between workers — a streaming
	// bitset ends at the last task its worker answered — and missing words
	// are zero.
	attendance(w int) []uint64
}

// solveWorker runs steps 1–3 of Algorithm A2 for worker i, counting
// triples by mode (production solves pass triplesAuto; see
// Solver.solveWorker). ws is rewound here and serves the pairing, the
// triple counts and the Lemma 5 weight solve, so nothing handed out by it
// may outlive the call. Once ws has served a worker, a later solve of the
// same worker allocates nothing.
func solveWorker(cache agreementSource, m, i int, opts EvalOptions, minCommon int, mode tripleMode, ws *mat.Workspace) WorkerDelta {
	ws.Reset()
	est := WorkerDelta{Worker: i}
	pairs := formPairs(cache, m, i, opts.Pairing, minCommon, ws)
	if len(pairs) == 0 {
		est.Err = fmt.Errorf("core: worker %d has no usable triple: %w", i, ErrInsufficientData)
		return est
	}
	var counts tripleCounts
	counts.init(cache, m, i, pairs, mode, ws)

	// Step 2: per-triple statistics and delta estimates for worker i. Each
	// usable triple's variance and own-pair gradients go straight into the
	// Lemma 4 covariance, its mean into means; the 3×3 Lemma 3 scratch is
	// shared, since only the estimate outlives the triple.
	cov := newLemma4Cov(counts, len(pairs)/2, ws)
	means := ws.GetVec(len(pairs) / 2)[:0]
	tripleCov := ws.Get(3, 3)
	for k := 0; k < len(pairs); k += 2 {
		j1, j2 := pairs[k], pairs[k+1]
		st, err := newTripleStats(cache, i, j1, j2, counts.common3(j1, j2), tripleCov)
		if err != nil {
			continue // degenerate triple: skip, as the 500-replicate harness does
		}
		de, err := st.estimate(0) // worker i sits at position 0 of the triple
		if err != nil {
			continue
		}
		// For triple (i, j1, j2): q-vector is (q_{i,j1}, q_{i,j2}, q_{j1,j2}),
		// so worker i's own-pair derivatives are components 0 and 1.
		means = append(means, de.Mean)
		cov.add(de.Dev*de.Dev, st.grad[0][0], j1, st.grad[0][1], j2)
	}
	l := len(means)
	if l == 0 {
		est.Err = fmt.Errorf("core: worker %d: all triples degenerate: %w", i, ErrDegenerate)
		return est
	}
	est.Triples = l

	// Pooled error-rate estimate for worker i, used inside Lemma 4's C(i,·,·).
	var pPool float64
	for _, mean := range means {
		pPool += mean
	}
	pPool /= float64(l)
	cov.pPool = stat.Clamp01(pPool)

	// Step 3: the l×l covariance of the triple estimates (Lemma 4), in
	// structured form: entries are generated on demand from the per-triple
	// gradients, the agreement cache and the triple counts, so nothing l×l
	// is allocated per worker. Each Lemma-4 entry costs four triple counts
	// and eight divisions, so it should be computed at most once: the
	// Lemma 5 solve below has to materialize the matrix anyway (into
	// reusable workspace scratch), and when it does, the delta method reads
	// that scratch rather than regenerating entries; with uniform weights
	// (or a single triple) no matrix is ever built and the structured
	// quadratic form is used directly. Both routes produce bit-identical
	// entries.

	// Combination weights (Lemma 5 or uniform). The solve materializes the
	// covariance into workspace scratch, which cov then serves Quad from.
	weights := uniformWeights(l, ws)
	if opts.Weights == OptimalWeights && l > 1 {
		if w, err := optimalWeightsCov(&cov, ws); err == nil {
			weights = w
		}
	}

	// Final estimate: p̂_i = Σ a_k p_{k,i}; Var = aᵀCa (Theorem 1 with the
	// linear function f = Σ a_k x_k, whose gradient is the weight vector).
	de, err := cov.deltaMethod(weightedMean(weights, means), weights)
	if err != nil {
		// Optimal weights can push aᵀCa negative when C is badly estimated;
		// retry with uniform weights before giving up.
		weights = uniformWeights(l, ws)
		de, err = cov.deltaMethod(weightedMean(weights, means), weights)
		if err != nil {
			est.Err = err
			return est
		}
	}
	est.Est = de
	return est
}

// weightedMean returns Σ a_k x_k, summed in index order.
func weightedMean(a, x []float64) float64 {
	var mean float64
	for k, v := range x {
		mean += a[k] * v
	}
	return mean
}

// lemma4C computes C(i, j, j′) of Lemma 4 for the worker i counts
// evaluates: the covariance between worker i's agreement rates with j and
// with j′. For j = j′ this degenerates to Var(Q_{i,j}) which Lemma 4's
// diagonal case already covers, but cross-triple sums never hit it since
// triples are disjoint pairs.
func lemma4C(counts *tripleCounts, j, jp int, pI float64) float64 {
	_, own := counts.src.counters(counts.i)
	agree, common := counts.src.counters(j)
	return lemma4Term(counts.common3(j, jp), pI, agree[jp], common[jp], own[j], own[jp])
}

// lemma4Term is Lemma 4's
//
//	C(i, j, j′) = c_{i,j,j′} · p_i(1−p_i) · (2q_{j,j′}−1) / (c_{i,j}·c_{i,j′})
//
// from its counts: c3 = c_{i,j,j′}, the agree and common counts of the
// pair (j, j′), and cij, cijp = c_{i,j}, c_{i,j′}. lemma4C and
// Lemma4Cov.MaterializeInto both evaluate it, so every covariance entry is
// the same float whichever path built it.
func lemma4Term(c3 int, pI float64, agreeJJ, commonJJ, cij, cijp int) float64 {
	if cij == 0 || cijp == 0 || c3 == 0 {
		return 0
	}
	qjjp := crowd.PairStats{Common: commonJJ, Agree: agreeJJ}.Rate()
	return float64(c3) * pI * (1 - pI) * (2*qjjp - 1) / (float64(cij) * float64(cijp))
}

// formPairs implements Step 1 of Algorithm A2: split the workers other than
// i into pairs, each of which will join i to form a triple. The pairs come
// back flattened into ws scratch — pair k is (pairs[2k], pairs[2k+1]) — so
// every partner appears once.
func formPairs(cache agreementSource, m, i int, strategy PairingStrategy, minCommon int, ws *mat.Workspace) []int {
	scratch := ws.GetInts(2 * m)
	// Candidates must share at least minCommon tasks with worker i.
	_, common := cache.counters(i)
	cands := scratch[:0:m]
	for w := 0; w < m; w++ {
		if w != i && common[w] >= minCommon {
			cands = append(cands, w)
		}
	}
	if strategy == GreedyPairing {
		// Descending by common-task count with worker i: the paper pairs the
		// best-overlapping workers together so some triples are excellent
		// (the weight optimization then exploits the quality spread). The
		// sort runs on keys (MaxUint32 − c_{i,w})<<32 | w, whose ascending
		// order is the descending count order with ties in index order, as
		// a stable sort of cands by count would leave them. Counts and
		// worker indices both fit in 32 bits.
		keys := ws.GetWords(len(cands))
		for k, w := range cands {
			keys[k] = uint64(math.MaxUint32-uint32(common[w]))<<32 | uint64(w)
		}
		slices.Sort(keys)
		for k, key := range keys {
			cands[k] = int(key & math.MaxUint32)
		}
	}
	pairs := scratch[m:m]
	for a := 0; a < len(cands); a++ {
		if cands[a] < 0 {
			continue // already paired
		}
		_, commonA := cache.counters(cands[a])
		for b := a + 1; b < len(cands); b++ {
			if cands[b] < 0 {
				continue
			}
			// The pair must share tasks with each other too, otherwise the
			// triple's q_{j1,j2} is undefined.
			if commonA[cands[b]] >= minCommon {
				pairs = append(pairs, cands[a], cands[b])
				cands[b] = -1
				break
			}
		}
	}
	return pairs
}

// uniformWeights returns the l weights 1/l in ws scratch.
func uniformWeights(l int, ws *mat.Workspace) []float64 {
	w := ws.GetVec(l)
	for i := range w {
		w[i] = 1 / float64(l)
	}
	return w
}
