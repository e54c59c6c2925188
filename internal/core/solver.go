package core

import (
	"crowdassess/internal/crowd"
	"crowdassess/internal/mat"
)

// Solver runs the paper's two estimators on scratch memory it owns:
// Algorithm A2's per-worker solve (triples, the Lemma 4 covariance, the
// Lemma 5 weights) and Algorithm A3's spectral estimate of one worker
// triple. A Solver kept for many solves, one per goroutine, stops
// growing its scratch: once warmed, a repeat A2 solve of a worker
// allocates nothing.
//
// The zero value is ready to use. A Solver is not safe for concurrent use
// and must not be copied after first use: it solves serially, on the
// caller's goroutine. Nothing it returns aliases its scratch, so a result
// stays valid across later solves.
type Solver struct {
	// ws serves one A2 worker solve, and one A3 triple's point estimate
	// and gradient rows; each solve rewinds it first.
	ws mat.Workspace
	// grad serves the A3 gradient loop's ±ε estimates, rewound per entry.
	grad mat.Workspace
	// batch holds the statistics of the dataset EvaluateWorkersDelta is
	// solving; its counters are kept for the next dataset of that size.
	batch *streamStats
}

// EvaluateWorkersDelta is EvaluateWorkers without committing to a
// confidence level: it returns each worker's delta-method mean and
// deviation, from which Est.Interval(c).ClampTo(0, 1) is the interval at
// any level c. opts.Confidence is ignored. The workers are solved one
// after another; EvaluateWorkers fans them out over every CPU instead.
func (s *Solver) EvaluateWorkersDelta(ds *crowd.Dataset, opts EvalOptions) ([]WorkerDelta, error) {
	if err := checkBinaryCrowd(ds); err != nil {
		return nil, err
	}
	m := ds.Workers()
	if s.batch == nil || len(s.batch.agree) != m {
		s.batch = newStreamStats(m)
	}
	s.batch.setDataset(ds)
	defer clear(s.batch.responded) // the dataset's own bitsets
	out := make([]WorkerDelta, m)
	for i := range out {
		out[i] = s.solveWorker(s.batch, m, i, opts)
	}
	return out, nil
}

// solveWorker runs Algorithm A2 for worker i of an m-worker crowd on the
// statistics src. It owns the MinCommon default: zero means 1.
func (s *Solver) solveWorker(src agreementSource, m, i int, opts EvalOptions) WorkerDelta {
	minCommon := opts.MinCommon
	if minCommon <= 0 {
		minCommon = 1
	}
	return solveWorker(src, m, i, opts, minCommon, triplesAuto, &s.ws)
}

// setDataset makes s hold a binary dataset's statistics in the form an
// accumulator's solves read: symmetric pairwise counters from the
// Attendance.Pair popcounts, and the attendance bitsets, aliased
// read-only. s must have one counter row per worker; the diagonal is not
// written.
func (s *streamStats) setDataset(ds *crowd.Dataset) {
	att := ds.Attendance()
	for i := range s.agree {
		s.responded[i] = att.Attempted(i)
		for j := i + 1; j < len(s.agree); j++ {
			st := att.Pair(i, j)
			s.agree[i][j], s.agree[j][i] = st.Agree, st.Agree
			s.common[i][j], s.common[j][i] = st.Common, st.Common
		}
	}
}
