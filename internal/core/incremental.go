package core

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"crowdassess/internal/crowd"
	"crowdassess/internal/mat"
)

// streamStats holds the sufficient statistics of the streaming form of
// Algorithm A2: symmetric pairwise agree/common counters plus per-worker
// attendance bitsets over task indices. Everything in it is an integer
// count, so two streamStats built from disjoint response sets merge
// exactly — addFrom produces the same counters, bit for bit, as feeding
// the union of the responses into one instance. That additivity is what
// lets ShardedIncremental split ingestion across shards and still match
// the single-shard evaluator's intervals exactly.
type streamStats struct {
	// agree/common are symmetric pairwise counters.
	agree  [][]int
	common [][]int
	// responded[w] tracks whether worker w answered a given task (bitset
	// over global task indices).
	responded []dynBitset
	// answers[w] records WHICH answer worker w gave on a task it responded
	// to: bit set means Yes, clear means No (only meaningful where the
	// responded bit is set). Together with responded it makes the
	// statistics fully reconstructive for binary crowds: the pairwise
	// counters are derivable as common[i][j] = |responded_i ∩ responded_j|
	// and agree[i][j] = |responded_i ∩ responded_j ∩ ¬(answers_i ⊕
	// answers_j)| — which is what lets a compact checkpoint (see
	// compact.go) resume ingestion exactly without carrying the response
	// log.
	answers []dynBitset
}

func newStreamStats(workers int) *streamStats {
	s := &streamStats{
		agree:     make([][]int, workers),
		common:    make([][]int, workers),
		responded: make([]dynBitset, workers),
		answers:   make([]dynBitset, workers),
	}
	for i := range s.agree {
		s.agree[i] = make([]int, workers)
		s.common[i] = make([]int, workers)
	}
	return s
}

// record accounts for worker w answering r on task t, given the responses
// previously recorded for that task. The caller appends to its own
// task-response list; record only maintains the derived counters.
func (s *streamStats) record(w, t int, r crowd.Response, prev []workerResponse) {
	for _, p := range prev {
		pw := int(p.worker)
		s.common[w][pw]++
		s.common[pw][w]++
		if crowd.Response(p.resp) == r {
			s.agree[w][pw]++
			s.agree[pw][w]++
		}
	}
	s.responded[w].set(t)
	if r == crowd.Yes {
		s.answers[w].set(t)
	}
}

// addFrom accumulates o into s: counter sums and attendance unions. The
// task sets behind s and o must be disjoint (each task's responses live in
// exactly one of them), which the sharded evaluator's task-striping
// guarantees.
func (s *streamStats) addFrom(o *streamStats) {
	for i := range s.agree {
		ai, oa := s.agree[i], o.agree[i]
		ci, oc := s.common[i], o.common[i]
		for j := range ai {
			ai[j] += oa[j]
			ci[j] += oc[j]
		}
		s.responded[i].orWith(o.responded[i])
		if i < len(o.answers) {
			s.answers[i].orWith(o.answers[i])
		}
	}
}

// pair implements agreementSource over the streaming counters.
func (s *streamStats) pair(i, j int) crowd.PairStats {
	if i == j {
		// Self-agreement, as PairMatrix defines it.
		n := 0
		for _, word := range s.responded[i] {
			n += bits.OnesCount64(word)
		}
		return crowd.PairStats{Common: n, Agree: n}
	}
	return crowd.PairStats{Common: s.common[i][j], Agree: s.agree[i][j]}
}

// attendance implements agreementSource over the attendance bitsets.
func (s *streamStats) attendance(w int) []uint64 { return s.responded[w] }

// Incremental maintains the sufficient statistics of Algorithm A2 online,
// realizing the paper's closing remark that the method "can be easily
// modified to be incremental, to keep efficiently updating worker error
// rates as more tasks get done."
//
// Each added response updates pairwise agreement counts against the task's
// previous responders in O(responders); triple common-task counts are
// answered from per-worker attendance bitsets. Evaluating a worker then
// costs the same as the batch algorithm on the accumulated statistics —
// no response is ever rescanned.
//
// Incremental is single-goroutine on the ingestion side: Add mutates
// unguarded counters. Concurrent ingestion belongs to ShardedIncremental.
//
// The zero value is not usable; construct with NewIncremental.
type Incremental struct {
	workers   int
	arity     int
	tasks     int // highest task index seen + 1
	responses int // running response count, maintained by Add

	// taskResponses[t] lists (worker, response) pairs for task t.
	taskResponses map[int][]workerResponse
	// stats holds the pairwise counters and attendance bitsets.
	*streamStats

	// wsPool recycles covariance-solve scratch across Evaluate calls.
	// Evaluate only reads the accumulated statistics, so — as before this
	// pool existed — concurrent Evaluate calls are safe (each checks out
	// its own workspace); Add remains single-goroutine (it mutates
	// unguarded counters).
	wsPool sync.Pool
}

// workerResponse is one entry of a task's response list, packed to 8
// bytes: the lists hold every response ingested, so their size is the
// evaluator's memory floor. NewIncremental and NewShardedIncremental
// reject crowds whose worker indices would not fit.
type workerResponse struct {
	worker int32
	resp   int8 // a crowd.Response
}

func newWorkerResponse(w int, r crowd.Response) workerResponse {
	return workerResponse{worker: int32(w), resp: int8(r)}
}

// dynBitset is a growable bitset over task indices.
type dynBitset []uint64

func (b *dynBitset) set(i int) {
	b.grow(i/64 + 1)
	(*b)[i/64] |= 1 << (uint(i) % 64)
}

// grow extends b with zero words to at least n words, in one step.
func (b *dynBitset) grow(n int) {
	if len(*b) < n {
		*b = append(*b, make([]uint64, n-len(*b))...)
	}
}

func (b dynBitset) get(i int) bool {
	word := i / 64
	return word < len(b) && b[word]&(1<<(uint(i)%64)) != 0
}

// orWith unions o into b, growing b as needed.
func (b *dynBitset) orWith(o dynBitset) {
	b.grow(len(o))
	dst := (*b)[:len(o)]
	for i, word := range o {
		dst[i] |= word
	}
}

// NewIncremental returns an empty streaming evaluator for the given number
// of binary workers (arity is fixed at 2: the streaming path wraps
// Algorithm A2).
func NewIncremental(workers int) (*Incremental, error) {
	if err := checkStreamingWorkers(workers); err != nil {
		return nil, err
	}
	return &Incremental{
		workers:       workers,
		arity:         2,
		taskResponses: make(map[int][]workerResponse),
		streamStats:   newStreamStats(workers),
		wsPool:        sync.Pool{New: func() any { return mat.NewWorkspace() }},
	}, nil
}

// checkStreamingWorkers validates a streaming evaluator's crowd size: A2
// needs three workers, and the packed response lists index workers with
// 32 bits.
func checkStreamingWorkers(workers int) error {
	if workers < 3 {
		return fmt.Errorf("core: need at least 3 workers, have %d: %w", workers, ErrInsufficientData)
	}
	if workers > math.MaxInt32 {
		return fmt.Errorf("core: %d workers exceed the streaming limit of %d", workers, math.MaxInt32)
	}
	return nil
}

// Workers returns the number of workers tracked.
func (inc *Incremental) Workers() int { return inc.workers }

// Tasks returns the number of distinct task indices seen.
func (inc *Incremental) Tasks() int { return inc.tasks }

// Responses returns the total number of responses recorded. It reads a
// counter maintained by Add, so it is O(1) — pool.Review calls it every
// batch and must not pay an O(tasks) rescan.
func (inc *Incremental) Responses() int { return inc.responses }

// Add records worker w's response r on task t. A worker may answer a task
// only once; duplicate or out-of-range submissions are rejected.
func (inc *Incremental) Add(w, t int, r crowd.Response) error {
	if w < 0 || w >= inc.workers {
		return fmt.Errorf("core: worker %d out of range 0…%d", w, inc.workers-1)
	}
	if t < 0 {
		return fmt.Errorf("core: negative task index %d", t)
	}
	if r != crowd.Yes && r != crowd.No {
		return fmt.Errorf("core: streaming evaluator is binary; response %d: %w", r, crowd.ErrArity)
	}
	if inc.responded[w].get(t) {
		return fmt.Errorf("core: worker %d already answered task %d", w, t)
	}
	inc.streamStats.record(w, t, r, inc.taskResponses[t])
	inc.taskResponses[t] = append(inc.taskResponses[t], newWorkerResponse(w, r))
	inc.responses++
	if t+1 > inc.tasks {
		inc.tasks = t + 1
	}
	return nil
}

// Evaluate returns the current error-rate interval for one worker, from the
// statistics accumulated so far.
func (inc *Incremental) Evaluate(worker int, opts EvalOptions) (WorkerEstimate, error) {
	if err := checkConfidence(opts.Confidence); err != nil {
		return WorkerEstimate{}, err
	}
	if worker < 0 || worker >= inc.workers {
		return WorkerEstimate{}, fmt.Errorf("core: worker %d out of range", worker)
	}
	minCommon := opts.MinCommon
	if minCommon <= 0 {
		minCommon = 1
	}
	ws := inc.wsPool.Get().(*mat.Workspace)
	// Deferred so a panic in evaluateOne cannot leak the workspace; Reset
	// first so a recovered caller never receives a half-mutated arena.
	defer func() {
		ws.Reset()
		inc.wsPool.Put(ws)
	}()
	return finishEstimate(evaluateOne(inc, inc.workers, worker, opts, minCommon, ws), opts.Confidence), nil
}

// EvaluateSubset returns current intervals for the given worker indices,
// aligned with the input slice. It exists so callers that track
// eligibility themselves (pool.Manager skips fired workers) don't pay for
// estimates they will discard.
func (inc *Incremental) EvaluateSubset(workers []int, opts EvalOptions) ([]WorkerEstimate, error) {
	if err := checkConfidence(opts.Confidence); err != nil {
		return nil, err
	}
	out := make([]WorkerEstimate, len(workers))
	for i, w := range workers {
		est, err := inc.Evaluate(w, opts)
		if err != nil {
			return nil, err
		}
		out[i] = est
	}
	return out, nil
}

// EvaluateAll returns current intervals for every worker.
func (inc *Incremental) EvaluateAll(opts EvalOptions) ([]WorkerEstimate, error) {
	if err := checkConfidence(opts.Confidence); err != nil {
		return nil, err
	}
	out := make([]WorkerEstimate, inc.workers)
	for w := 0; w < inc.workers; w++ {
		est, err := inc.Evaluate(w, opts)
		if err != nil {
			return nil, err
		}
		out[w] = est
	}
	return out, nil
}

// Snapshot materializes the accumulated responses as a Dataset, for
// interoperability with the batch algorithms (pruning, k-ary analysis,
// serialization).
func (inc *Incremental) Snapshot() (*crowd.Dataset, error) {
	return snapshotDataset(inc.workers, inc.tasks, inc.arity, inc.taskResponses)
}

// snapshotDataset builds a Dataset from one or more task-response maps
// (one per shard in the sharded evaluator; the maps' task sets must be
// disjoint).
func snapshotDataset(workers, tasks, arity int, responseMaps ...map[int][]workerResponse) (*crowd.Dataset, error) {
	if tasks == 0 {
		return nil, fmt.Errorf("core: no responses recorded: %w", ErrInsufficientData)
	}
	ds, err := crowd.NewDataset(workers, tasks, arity)
	if err != nil {
		return nil, err
	}
	for _, m := range responseMaps {
		for t, rs := range m {
			for _, wr := range rs {
				if err := ds.SetResponse(int(wr.worker), t, crowd.Response(wr.resp)); err != nil {
					return nil, err
				}
			}
		}
	}
	return ds, nil
}

// MajorityDisagreement mirrors Dataset.MajorityDisagreement on the
// accumulated responses, so streaming deployments can run the paper's
// spammer screen without materializing a snapshot.
func (inc *Incremental) MajorityDisagreement() []float64 {
	return disagreementRates(inc.DisagreementCounts())
}

// tallyDisagreement accumulates per-worker attempted/disagree counts over
// one task-response map. Majorities are per task, so tallying a shard at a
// time is exact.
func tallyDisagreement(attempted, disagree []int, taskResponses map[int][]workerResponse) {
	for _, rs := range taskResponses {
		yes := 0
		for _, wr := range rs {
			if crowd.Response(wr.resp) == crowd.Yes {
				yes++
			}
		}
		no := len(rs) - yes
		var maj crowd.Response
		switch {
		case yes > no:
			maj = crowd.Yes
		case no > yes:
			maj = crowd.No
		default:
			maj = crowd.Yes // deterministic tie-break, matching MajorityVote
		}
		for _, wr := range rs {
			attempted[wr.worker]++
			if crowd.Response(wr.resp) != maj {
				disagree[wr.worker]++
			}
		}
	}
}

func disagreementRates(attempted, disagree []int) []float64 {
	out := make([]float64, len(attempted))
	for w := range out {
		if attempted[w] > 0 {
			out[w] = float64(disagree[w]) / float64(attempted[w])
		}
	}
	return out
}
