package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
)

// StatsAccumulator holds stream statistics folded in as deltas
// (ApplyDelta) or merged from other accumulators (Merge) through the same
// addFrom reducer the sharded evaluator uses, then evaluates on the
// merged counters. It is the coordinator half of a distributed deployment:
// workers ingest responses for disjoint task sets and ship their
// statistics as deltas (CutStats), and the accumulator's intervals are
// bit-identical to a single ShardedIncremental fed every response — the
// merge is exact integer addition, and a ShardedIncremental's own reads
// solve on an accumulator holding its shards' merge, so both run one
// code path.
//
// All methods are safe for concurrent use. An evaluation holds the
// accumulator for its whole solve (fanning the workers out across cores
// itself); Merge and ApplyDelta wait for it, and a ShardedIncremental
// rebuilding its merge writes its spare accumulator instead.
type StatsAccumulator struct {
	workers int

	mu        sync.Mutex
	stats     *streamStats
	tasks     int
	responses int
	// digest is the canonical state digest (see statsDigest) while
	// digestValid holds; ApplyDelta keeps it current in O(change), Merge
	// invalidates it and Digest recomputes it on demand.
	digest      uint64
	digestValid bool
	// solvers holds one Solver per fan-out goroutine, each created on
	// first use. Only solves touch it, and a solve holds mu throughout;
	// accumulators that share one set, as a ShardedIncremental's two do,
	// must not solve at the same time.
	solvers *solverSet
}

// solverSet is the solvers of an accumulator's fan-out.
type solverSet []*Solver

// first returns the first n solvers, creating any that do not exist yet.
func (set *solverSet) first(n int) []*Solver {
	for len(*set) < n {
		*set = append(*set, new(Solver))
	}
	return (*set)[:n]
}

// NewStatsAccumulator returns an empty accumulator for a crowd of the given
// size. Every merged accumulator and applied delta must carry the same
// worker count.
func NewStatsAccumulator(workers int) (*StatsAccumulator, error) {
	if workers < 3 {
		return nil, fmt.Errorf("core: need at least 3 workers, have %d: %w", workers, ErrInsufficientData)
	}
	return newStatsAccumulator(workers), nil
}

// newStatsAccumulator returns an empty accumulator for a crowd size the
// caller has already checked.
func newStatsAccumulator(workers int) *StatsAccumulator {
	return &StatsAccumulator{
		workers:     workers,
		stats:       newStreamStats(workers),
		digest:      headerTerm(workers, 0, 0),
		digestValid: true,
		solvers:     new(solverSet),
	}
}

// Workers returns the crowd size the accumulator is indexed by.
func (a *StatsAccumulator) Workers() int { return a.workers }

// Tasks returns the task horizon of the accumulated statistics.
func (a *StatsAccumulator) Tasks() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tasks
}

// Responses returns the total responses behind the accumulated
// statistics.
func (a *StatsAccumulator) Responses() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.responses
}

// Merge folds another accumulator's statistics into this one: counter
// sums and attendance unions, exactly as the sharded evaluator merges its
// stripes. The task sets behind the merged statistics must be disjoint
// (each task's responses ingested on exactly one evaluator) for the result
// to equal a single evaluator's statistics; that partitioning is the
// distributed layer's routing contract. It holds o's lock, then a's, so
// two accumulators must not merge into each other at the same time.
func (a *StatsAccumulator) Merge(o *StatsAccumulator) error {
	if o == a {
		return fmt.Errorf("core: an accumulator cannot merge into itself")
	}
	if o.workers != a.workers {
		return fmt.Errorf("core: accumulator for %d workers cannot merge into accumulator for %d", o.workers, a.workers)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats.addFrom(o.stats)
	a.stats.mirror()
	a.tasks = max(a.tasks, o.tasks)
	a.responses += o.responses
	a.digestValid = false
	return nil
}

// ApplyDelta folds a delta into the accumulator in O(change): counter
// increments are added, newly set attendance bits are OR'ed in, the task
// horizon is raised to the delta's, and the response total grows by the
// number of newly set bits (every accepted response sets exactly one). The
// delta is checked before anything is touched — a malformed delta, or one
// that re-sets bits the accumulator already holds (it does not extend this
// state), fails with the accumulator unchanged.
//
// Folded into the accumulator holding the statistics of one cut, the delta
// of the next cut (CutStats) yields that cut's statistics exactly. Folded into a merge of
// disjoint task sets, it yields the merge of the newer state, since the
// bits it sets belong to its own tasks.
func (a *StatsAccumulator) ApplyDelta(d *StatsDelta) error {
	if d.Workers != a.workers {
		return fmt.Errorf("core: delta for %d workers cannot apply to accumulator for %d", d.Workers, a.workers)
	}
	if err := d.Validate(); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, w := range d.Words {
		if a.stats.responded[w.Worker].word(w.Index)&w.Bits != 0 {
			return fmt.Errorf("core: delta re-sets attendance bits worker %d already holds in word %d: it does not extend this state", w.Worker, w.Index)
		}
	}
	change := -headerTerm(a.workers, a.tasks, a.responses)
	for _, c := range d.Cells {
		ai, ci := a.stats.agree[c.I], a.stats.common[c.I]
		change -= cellTerm(c.I, c.J, ai[c.J], ci[c.J])
		ai[c.J] += c.Agree
		ci[c.J] += c.Common
		a.stats.agree[c.J][c.I], a.stats.common[c.J][c.I] = ai[c.J], ci[c.J]
		change += cellTerm(c.I, c.J, ai[c.J], ci[c.J])
	}
	for _, w := range d.Words {
		b := &a.stats.responded[w.Worker]
		b.grow(w.Index + 1)
		old := (*b)[w.Index]
		(*b)[w.Index] = old | w.Bits
		change += wordTerm(w.Worker, w.Index, old|w.Bits) - wordTerm(w.Worker, w.Index, old)
		a.responses += bits.OnesCount64(w.Bits)
	}
	a.tasks = max(a.tasks, d.Tasks)
	a.digest += change + headerTerm(a.workers, a.tasks, a.responses)
	return nil
}

// Digest returns the canonical digest of the accumulated state — equal to
// the digest CutStats reports for an evaluator holding the same
// statistics.
func (a *StatsAccumulator) Digest() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.digestValid {
		a.digest = statsDigest(a.stats, a.workers, a.tasks, a.responses)
		a.digestValid = true
	}
	return a.digest
}

// Clone returns an independent deep copy of the accumulator.
func (a *StatsAccumulator) Clone() *StatsAccumulator {
	a.mu.Lock()
	defer a.mu.Unlock()
	stats := newStreamStats(a.workers)
	stats.addFrom(a.stats)
	stats.mirror()
	return &StatsAccumulator{
		workers:     a.workers,
		stats:       stats,
		tasks:       a.tasks,
		responses:   a.responses,
		digest:      a.digest,
		digestValid: a.digestValid,
		solvers:     new(solverSet),
	}
}

// Evaluate returns the error-rate interval for one worker from the merged
// statistics. Local (ShardedIncremental) and cluster reads both solve
// here, so on equal counters their results are bit-identical.
func (a *StatsAccumulator) Evaluate(worker int, opts EvalOptions) (WorkerEstimate, error) {
	if err := a.checkRead([]int{worker}, opts); err != nil {
		return WorkerEstimate{}, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.solveLocked(worker, opts, a.solvers.first(1)[0]), nil
}

// EvaluateAll returns intervals for every worker from the merged
// statistics.
func (a *StatsAccumulator) EvaluateAll(opts EvalOptions) ([]WorkerEstimate, error) {
	workers := make([]int, a.workers)
	for w := range workers {
		workers[w] = w
	}
	return a.EvaluateSubset(workers, opts)
}

// EvaluateSubset returns intervals for the given worker indices, aligned
// with the input slice. The solves fan out over min(GOMAXPROCS, len(workers))
// goroutines, each with a Solver of its own; a worker's result depends
// only on the counters, so the output is bit-identical to solving the
// workers one at a time. ApplyDelta, Merge and a rebuild of a
// ShardedIncremental's merge write the counters in place, so the solves
// hold mu against them.
func (a *StatsAccumulator) EvaluateSubset(workers []int, opts EvalOptions) ([]WorkerEstimate, error) {
	if err := a.checkRead(workers, opts); err != nil {
		return nil, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]WorkerEstimate, len(workers))
	goroutines := min(runtime.GOMAXPROCS(0), len(workers))
	solvers := a.solvers.first(goroutines)
	solve := func(g int) {
		for i := g; i < len(workers); i += goroutines {
			out[i] = a.solveLocked(workers[i], opts, solvers[g])
		}
	}
	if goroutines <= 1 {
		if len(workers) > 0 {
			solve(0)
		}
		return out, nil
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			solve(g)
		}(g)
	}
	wg.Wait()
	return out, nil
}

// checkRead validates an evaluation's confidence level and worker indices.
func (a *StatsAccumulator) checkRead(workers []int, opts EvalOptions) error {
	if err := checkConfidence(opts.Confidence); err != nil {
		return err
	}
	for _, w := range workers {
		if w < 0 || w >= a.workers {
			return fmt.Errorf("core: worker %d out of range", w)
		}
	}
	return nil
}

// solveLocked runs Algorithm A2 for one worker on the accumulated counters
// and returns its interval; the caller holds mu.
func (a *StatsAccumulator) solveLocked(worker int, opts EvalOptions, s *Solver) WorkerEstimate {
	return finishEstimate(s.solveWorker(a.stats, a.workers, worker, opts), opts.Confidence)
}
