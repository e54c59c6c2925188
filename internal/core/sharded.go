package core

import (
	"fmt"
	"sync"

	"crowdassess/internal/crowd"
	"crowdassess/internal/mat"
)

// StreamingEvaluator is the contract of a streaming evaluator: online
// ingestion of binary responses plus on-demand Algorithm A2 intervals over
// everything ingested so far. ShardedIncremental implements it locally and
// dist.ClusterEvaluator over a cluster; pool.Manager and the public facade
// program against this interface so a deployment picks its topology by
// constructor.
type StreamingEvaluator interface {
	// Add records worker w's response r on task t.
	Add(w, t int, r crowd.Response) error
	// Workers returns the number of workers tracked.
	Workers() int
	// Tasks returns the number of distinct task indices seen.
	Tasks() int
	// Responses returns the total number of responses recorded, in O(1).
	Responses() int
	// Evaluate returns the current error-rate interval for one worker.
	Evaluate(worker int, opts EvalOptions) (WorkerEstimate, error)
	// EvaluateAll returns current intervals for every worker.
	EvaluateAll(opts EvalOptions) ([]WorkerEstimate, error)
	// EvaluateSubset returns current intervals for the given worker
	// indices, aligned with the input slice — for callers that track
	// eligibility themselves and must not pay for discarded estimates.
	EvaluateSubset(workers []int, opts EvalOptions) ([]WorkerEstimate, error)
	// MajorityDisagreement runs the paper's spammer screen online.
	MajorityDisagreement() []float64
	// Snapshot materializes the accumulated responses as a Dataset.
	Snapshot() (*crowd.Dataset, error)
}

var _ StreamingEvaluator = (*ShardedIncremental)(nil)

// ShardedIncremental maintains the sufficient statistics of Algorithm A2
// online, realizing the paper's closing remark that the method "can be
// easily modified to be incremental, to keep efficiently updating worker
// error rates as more tasks get done." Each added response updates
// pairwise agreement counts against the task's previous responders in
// O(responders); triple common-task counts are answered from per-worker
// attendance bitsets, so no response is ever rescanned.
//
// The task space is hash-partitioned into N stripes, each owned by a shard
// with its own lock, agree/common counters, attendance bitsets and
// mat.Workspace. Because every response for a task lands in exactly one
// shard, a shard's counters are the exact statistics of its stripe, and
// the integer counters are additive across stripes — so ingestion scales
// with shards while evaluation, which runs on the merged counters,
// produces intervals bit-identical to the batch EvaluateWorkers on the
// same responses.
//
// Concurrency contract: Add is safe from any number of goroutines (two
// Adds contend only when their tasks hash to the same shard). Evaluate and
// EvaluateAll are safe concurrently with Add and with each other; each
// evaluation works from an immutable merged snapshot that reflects, per
// shard, every response ingested up to the moment the merge visited that
// shard. Merges are lazy: each shard carries an epoch advanced by Add, and
// a snapshot is rebuilt only when some shard's epoch moved — repeated
// evaluations of a quiescent pool reuse the previous merge.
//
// Solves run on the shards' workspaces, one solve per workspace at a time,
// so the shard count also bounds how many solves run at once. At one shard
// every Add takes the shard's mutex and every solve shares its single
// workspace.
type ShardedIncremental struct {
	workers int
	shards  []*incShard

	// mergeMu guards the lazy merge state below. merged is immutable once
	// published (re-merges build a fresh state), so callers that obtained
	// it under mergeMu may keep reading it lock-free afterwards.
	mergeMu      sync.Mutex
	merged       *statsState
	mergedEpochs []uint64

	// base is the statistics of the last cut (CutStats): nil until the
	// first one, then guarded by holding every shard lock.
	base *cutBase
}

// incShard owns one task-stripe of a ShardedIncremental.
type incShard struct {
	// mu guards every ingestion field below it.
	mu    sync.Mutex
	epoch uint64 // advanced by every successful Add; drives lazy re-merges
	// taskResponses[t] lists (worker, response) pairs for task t of this
	// stripe.
	taskResponses map[int][]workerResponse
	// dirty lists, in arrival order, the tasks of this stripe that gained
	// responses since the last cut. Until the first cut (tracking unset)
	// nothing consumes it, so Add keeps none.
	dirty     []int
	tracking  bool
	stats     *streamStats
	tasks     int // highest task index seen in this stripe + 1
	responses int // running response count for this stripe

	// ws is this shard's evaluation scratch. Guarded by wsMu, not mu, so
	// a long covariance solve never blocks ingestion into the shard.
	wsMu sync.Mutex
	ws   *mat.Workspace
}

// NewShardedIncremental returns an empty streaming evaluator for the given
// number of binary workers (arity is fixed at 2: the streaming path wraps
// Algorithm A2), with ingestion split across the given number of
// task-stripe shards. Shard counts beyond GOMAXPROCS buy little; see the
// README's shard-sizing guidance.
func NewShardedIncremental(workers, shards int) (*ShardedIncremental, error) {
	if err := checkStreamingWorkers(workers); err != nil {
		return nil, err
	}
	if shards < 1 {
		return nil, fmt.Errorf("core: need at least 1 shard, have %d", shards)
	}
	s := &ShardedIncremental{
		workers:      workers,
		shards:       make([]*incShard, shards),
		mergedEpochs: make([]uint64, shards),
	}
	for i := range s.shards {
		s.shards[i] = &incShard{
			taskResponses: make(map[int][]workerResponse),
			stats:         newStreamStats(workers, true),
			ws:            mat.NewWorkspace(),
		}
	}
	return s, nil
}

// NewIncremental returns an empty one-shard streaming evaluator.
func NewIncremental(workers int) (*ShardedIncremental, error) {
	return NewShardedIncremental(workers, 1)
}

// shardOf routes task t to its stripe. The multiplicative hash spreads
// clustered task ids (batch uploads use contiguous ranges) evenly across
// shards so contiguous ingestion doesn't serialize on one lock.
func (s *ShardedIncremental) shardOf(t int) *incShard {
	h := uint64(t)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return s.shards[h%uint64(len(s.shards))]
}

// Workers returns the number of workers tracked.
func (s *ShardedIncremental) Workers() int { return s.workers }

// Shards returns the number of task-stripe shards.
func (s *ShardedIncremental) Shards() int { return len(s.shards) }

// Tasks returns the number of distinct task indices seen.
func (s *ShardedIncremental) Tasks() int {
	tasks := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.tasks > tasks {
			tasks = sh.tasks
		}
		sh.mu.Unlock()
	}
	return tasks
}

// Responses returns the total number of responses recorded.
func (s *ShardedIncremental) Responses() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.responses
		sh.mu.Unlock()
	}
	return n
}

// Add records worker w's response r on task t. It is safe to call from any
// number of goroutines; responses to tasks in different stripes never
// contend.
func (s *ShardedIncremental) Add(w, t int, r crowd.Response) error {
	if w < 0 || w >= s.workers {
		return fmt.Errorf("core: worker %d out of range 0…%d", w, s.workers-1)
	}
	if t < 0 {
		return fmt.Errorf("core: negative task index %d", t)
	}
	if r != crowd.Yes && r != crowd.No {
		return fmt.Errorf("core: streaming evaluator is binary; response %d: %w", r, crowd.ErrArity)
	}
	sh := s.shardOf(t)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.stats.responded[w].get(t) {
		return fmt.Errorf("core: worker %d already answered task %d", w, t)
	}
	rs := sh.taskResponses[t]
	sh.stats.record(w, t, r, rs)
	if sh.tracking && (len(rs) == 0 || rs[len(rs)-1].cut) {
		sh.dirty = append(sh.dirty, t) // the task's first response since the last cut
	}
	sh.taskResponses[t] = append(rs, newWorkerResponse(w, r))
	sh.responses++
	if t+1 > sh.tasks {
		sh.tasks = t + 1
	}
	sh.epoch++
	return nil
}

// statsState is one immutable, point-in-time merge of a streaming
// evaluator's sufficient statistics: the pairwise counters and attendance
// bitsets together with the task horizon and response total behind exactly
// those counters. snapshot publishes a fresh state whenever a read follows
// an Add and never mutates a published one, so holding one costs no copy.
type statsState struct {
	workers   int
	tasks     int
	responses int
	stats     *streamStats
}

// Export deep-copies the state into the serialization-neutral form.
func (st *statsState) Export() *StatsExport {
	return exportStats(st.stats, st.workers, st.tasks, st.responses)
}

// snapshot returns merged statistics covering every shard, rebuilding them
// only if some shard ingested since the last merge. The totals are read
// under the same shard locks as the counters, so they describe exactly the
// merged responses. The returned state is never mutated afterwards, so the
// caller may read it without holding any lock.
func (s *ShardedIncremental) snapshot() *statsState {
	s.mergeMu.Lock()
	defer s.mergeMu.Unlock()
	dirty := s.merged == nil
	for i, sh := range s.shards {
		if dirty {
			break
		}
		sh.mu.Lock()
		dirty = sh.epoch != s.mergedEpochs[i]
		sh.mu.Unlock()
	}
	if !dirty {
		return s.merged
	}
	m := &statsState{workers: s.workers, stats: newStreamStats(s.workers, false)}
	for i, sh := range s.shards {
		sh.mu.Lock()
		m.stats.addFrom(sh.stats)
		m.tasks = max(m.tasks, sh.tasks)
		m.responses += sh.responses
		s.mergedEpochs[i] = sh.epoch
		sh.mu.Unlock()
	}
	s.merged = m
	return m
}

// Evaluate returns the current error-rate interval for one worker. It uses
// the workspace of the shard the worker index maps to, so evaluations of
// workers in different residue classes proceed in parallel.
func (s *ShardedIncremental) Evaluate(worker int, opts EvalOptions) (WorkerEstimate, error) {
	if err := checkConfidence(opts.Confidence); err != nil {
		return WorkerEstimate{}, err
	}
	if worker < 0 || worker >= s.workers {
		return WorkerEstimate{}, fmt.Errorf("core: worker %d out of range", worker)
	}
	minCommon := opts.MinCommon
	if minCommon <= 0 {
		minCommon = 1
	}
	m := s.snapshot().stats
	sh := s.shards[worker%len(s.shards)]
	sh.wsMu.Lock()
	defer func() {
		sh.ws.Reset()
		sh.wsMu.Unlock()
	}()
	return finishEstimate(evaluateOne(m, s.workers, worker, opts, minCommon, sh.ws), opts.Confidence), nil
}

// EvaluateAll returns current intervals for every worker, fanning the
// per-worker evaluations out across the shards' workspaces (one goroutine
// per shard, capped by the worker count). Per-worker results depend only
// on the merged snapshot, so the output is identical to evaluating the
// workers one at a time.
func (s *ShardedIncremental) EvaluateAll(opts EvalOptions) ([]WorkerEstimate, error) {
	if err := checkConfidence(opts.Confidence); err != nil {
		return nil, err
	}
	workers := make([]int, s.workers)
	for w := range workers {
		workers[w] = w
	}
	return s.evaluateMany(workers, opts), nil
}

// EvaluateSubset returns current intervals for the given worker indices,
// aligned with the input slice. One snapshot merge serves the whole
// subset, and only the listed workers are solved.
func (s *ShardedIncremental) EvaluateSubset(workers []int, opts EvalOptions) ([]WorkerEstimate, error) {
	if err := checkConfidence(opts.Confidence); err != nil {
		return nil, err
	}
	for _, w := range workers {
		if w < 0 || w >= s.workers {
			return nil, fmt.Errorf("core: worker %d out of range", w)
		}
	}
	return s.evaluateMany(workers, opts), nil
}

// evaluateMany solves the listed workers against one merged snapshot,
// striping them across the shards' workspaces. out[i] belongs to
// workers[i]; every slot is written by exactly one goroutine.
func (s *ShardedIncremental) evaluateMany(workers []int, opts EvalOptions) []WorkerEstimate {
	minCommon := opts.MinCommon
	if minCommon <= 0 {
		minCommon = 1
	}
	m := s.snapshot().stats
	out := make([]WorkerEstimate, len(workers))
	goroutines := len(s.shards)
	if goroutines > len(workers) {
		goroutines = len(workers)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sh := s.shards[g]
			sh.wsMu.Lock()
			defer func() {
				sh.ws.Reset()
				sh.wsMu.Unlock()
			}()
			for i := g; i < len(workers); i += goroutines {
				out[i] = finishEstimate(evaluateOne(m, s.workers, workers[i], opts, minCommon, sh.ws), opts.Confidence)
			}
		}(g)
	}
	wg.Wait()
	return out
}

// finishEstimate converts a WorkerDelta into the interval form at the
// given confidence level.
func finishEstimate(d WorkerDelta, confidence float64) WorkerEstimate {
	est := WorkerEstimate{Worker: d.Worker, Triples: d.Triples, Err: d.Err}
	if d.Err == nil {
		est.Interval = d.Est.Interval(confidence).ClampTo(0, 1)
	}
	return est
}

// Snapshot materializes the accumulated responses as a Dataset. Like
// Evaluate, it reflects each shard's responses as of the moment the shard
// was visited.
func (s *ShardedIncremental) Snapshot() (*crowd.Dataset, error) {
	// Hold every shard lock (in index order, the only multi-shard locking
	// in the package) so the materialized dataset is a point-in-time cut.
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	maps := make([]map[int][]workerResponse, len(s.shards))
	tasks := 0
	for i, sh := range s.shards {
		maps[i] = sh.taskResponses
		if sh.tasks > tasks {
			tasks = sh.tasks
		}
	}
	ds, err := snapshotDataset(s.workers, tasks, maps)
	for _, sh := range s.shards {
		sh.mu.Unlock()
	}
	return ds, err
}

// MajorityDisagreement runs the paper's spammer screen on the accumulated
// responses. Majorities are per task and each task lives in one stripe, so
// tallying shard by shard is exact.
func (s *ShardedIncremental) MajorityDisagreement() []float64 {
	return disagreementRates(s.DisagreementCounts())
}
