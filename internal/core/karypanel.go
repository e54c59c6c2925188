package core

import (
	"fmt"
	"math"
	"sort"

	"crowdassess/internal/crowd"
	"crowdassess/internal/mat"
	"crowdassess/internal/stat"
)

// This file extends Algorithm A3 beyond three workers the same way
// Algorithm A2 extends A1: evaluate a worker through several triples and
// combine the per-element estimates. The paper develops the optimal
// covariance-aware combination only for the binary case; for the spectral
// estimator no closed-form cross-triple covariance exists, so the panel
// combines triples by inverse-variance weighting under an independence
// approximation (exact when triples share no workers, conservative
// otherwise because shared-worker correlations are positive).

// KAryPanelOptions configures EvaluateWorkersKAry.
type KAryPanelOptions struct {
	// Confidence for the returned intervals.
	Confidence float64
	// MinCommon is the minimum number of tasks all three triple members
	// must share. Zero selects 5·k (the spectral step needs to populate a
	// k×k frequency matrix, so a handful of tasks per row is the floor).
	MinCommon int
	// MaxTriples caps the triples per worker (0 = no cap). The spectral
	// estimator costs O(k³) estimator runs per triple, so large crowds set
	// a cap.
	MaxTriples int
}

// KAryWorkerEstimate is one worker's combined panel estimate.
type KAryWorkerEstimate struct {
	Worker int
	// Mean and Dev are the combined k×k response-probability estimate and
	// its standard deviation per element.
	Mean *mat.Matrix
	Dev  *mat.Matrix
	// Triples actually combined.
	Triples int
	// Err is non-nil when no triple produced a usable estimate.
	Err error
}

// Intervals returns the c-confidence interval for each matrix element,
// clamped to probability space.
func (e *KAryWorkerEstimate) Intervals(c float64) [][]stat.Interval {
	k := e.Mean.Rows()
	out := make([][]stat.Interval, k)
	for a := 0; a < k; a++ {
		out[a] = make([]stat.Interval, k)
		for b := 0; b < k; b++ {
			de := DeltaEstimate{Mean: e.Mean.At(a, b), Dev: e.Dev.At(a, b)}
			out[a][b] = de.Interval(c).ClampTo(0, 1)
		}
	}
	return out
}

// EvaluateWorkersKAry estimates every worker's k×k response-probability
// matrix by aggregating 3-worker spectral estimates across triples.
func EvaluateWorkersKAry(ds *crowd.Dataset, opts KAryPanelOptions) ([]KAryWorkerEstimate, error) {
	if err := checkConfidence(opts.Confidence); err != nil {
		return nil, err
	}
	m := ds.Workers()
	if m < 3 {
		return nil, fmt.Errorf("core: need at least 3 workers, have %d: %w", m, ErrInsufficientData)
	}
	minCommon := opts.MinCommon
	if minCommon <= 0 {
		minCommon = 5 * ds.Arity()
	}
	att := ds.Attendance()
	var s Solver // serves every triple of the panel
	out := make([]KAryWorkerEstimate, m)
	for i := 0; i < m; i++ {
		out[i] = evaluatePanelOne(&s, ds, att, i, opts, minCommon)
	}
	return out, nil
}

func evaluatePanelOne(s *Solver, ds *crowd.Dataset, att *crowd.Attendance, i int, opts KAryPanelOptions, minCommon int) KAryWorkerEstimate {
	est := KAryWorkerEstimate{Worker: i}
	k := ds.Arity()
	m := ds.Workers()

	// Pair the other workers greedily by triple overlap with worker i,
	// mirroring A2's step 1.
	var cands []int
	for w := 0; w < m; w++ {
		if w != i && att.Common2(i, w) >= minCommon {
			cands = append(cands, w)
		}
	}
	sort.SliceStable(cands, func(a, b int) bool {
		return att.Common2(i, cands[a]) > att.Common2(i, cands[b])
	})
	var triples [][3]int
	used := make([]bool, len(cands))
	for a := 0; a < len(cands); a++ {
		if used[a] {
			continue
		}
		for b := a + 1; b < len(cands); b++ {
			if used[b] {
				continue
			}
			if att.Common3(i, cands[a], cands[b]) >= minCommon {
				triples = append(triples, [3]int{i, cands[a], cands[b]})
				used[a], used[b] = true, true
				break
			}
		}
		if opts.MaxTriples > 0 && len(triples) >= opts.MaxTriples {
			break
		}
	}
	if len(triples) == 0 {
		est.Err = fmt.Errorf("core: worker %d has no triple with ≥%d common tasks: %w", i, minCommon, ErrInsufficientData)
		return est
	}

	// Per-triple spectral estimates for worker i (position 0 ⇒ V₁).
	var deltas []*KAryDelta
	for _, tr := range triples {
		d, err := s.ThreeWorkerKAryDelta(ds, tr)
		if err != nil {
			continue // degenerate triple: skip, as A2 does
		}
		deltas = append(deltas, d)
	}
	if len(deltas) == 0 {
		est.Err = fmt.Errorf("core: worker %d: all triples degenerate: %w", i, ErrDegenerate)
		return est
	}
	est.Triples = len(deltas)

	// Inverse-variance combination per element.
	mean := mat.New(k, k)
	dev := mat.New(k, k)
	for a := 0; a < k; a++ {
		for b := 0; b < k; b++ {
			var wSum, wMean float64
			for _, d := range deltas {
				sigma := d.Dev[0].At(a, b)
				if sigma <= 0 {
					sigma = 1e-9
				}
				w := 1 / (sigma * sigma)
				wSum += w
				wMean += w * d.Mean[0].At(a, b)
			}
			mean.Set(a, b, wMean/wSum)
			dev.Set(a, b, 1/sqrt(wSum))
		}
	}
	est.Mean = mean
	est.Dev = dev
	return est
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
