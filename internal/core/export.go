package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"crowdassess/internal/mat"
)

// StatsExport is the serialization-neutral form of the streaming sufficient
// statistics: the symmetric pairwise agree/common counters and per-worker
// attendance bitsets that Algorithm A2's streaming path accumulates.
// Everything in it is an integer, and exports built from disjoint task sets
// merge exactly — summing counters and unioning bitsets yields the same
// statistics, bit for bit, as ingesting the union of the responses into one
// evaluator. That additivity is what lets a distributed deployment ship
// per-machine exports to a coordinator and still evaluate exactly.
//
// An export is a deep copy: mutating it never affects the evaluator it came
// from, and vice versa.
type StatsExport struct {
	// Workers is the crowd size the counters are indexed by.
	Workers int
	// Tasks is the number of distinct task indices seen (max index + 1).
	Tasks int
	// Responses is the total number of responses behind the counters.
	Responses int
	// Agree[i][j] counts tasks where workers i and j gave the same answer;
	// symmetric, diagonal unused.
	Agree [][]int
	// Common[i][j] counts tasks both i and j answered; symmetric, diagonal
	// unused.
	Common [][]int
	// Responded[i] is worker i's attendance bitset over task indices
	// (little-endian 64-bit words).
	Responded [][]uint64
}

// exportStats deep-copies a streamStats into the exported form.
func exportStats(s *streamStats, workers, tasks, responses int) *StatsExport {
	e := &StatsExport{
		Workers:   workers,
		Tasks:     tasks,
		Responses: responses,
		Agree:     make([][]int, workers),
		Common:    make([][]int, workers),
		Responded: make([][]uint64, workers),
	}
	for i := 0; i < workers; i++ {
		e.Agree[i] = append([]int(nil), s.agree[i]...)
		e.Common[i] = append([]int(nil), s.common[i]...)
		e.Responded[i] = append([]uint64(nil), s.responded[i]...)
	}
	return e
}

// ExportStats snapshots the merged sufficient statistics across every
// shard. Like Evaluate, it reflects each shard's responses as of the moment
// the lazy merge visited that shard, totals included; it is safe to call
// concurrently with Add and with evaluations.
func (s *ShardedIncremental) ExportStats() *StatsExport {
	// The merged snapshot is immutable once published, so copying it out
	// needs no locks.
	return s.snapshot().Export()
}

// validate checks the structural invariants a well-formed export satisfies.
// It guards the merge path against corrupted or truncated wire payloads;
// it cannot detect a peer that lies consistently.
func (e *StatsExport) validate() error {
	if e.Workers < 3 {
		return fmt.Errorf("core: export needs at least 3 workers, has %d: %w", e.Workers, ErrInsufficientData)
	}
	if e.Tasks < 0 || e.Responses < 0 {
		return fmt.Errorf("core: export has negative totals (tasks %d, responses %d)", e.Tasks, e.Responses)
	}
	if len(e.Agree) != e.Workers || len(e.Common) != e.Workers || len(e.Responded) != e.Workers {
		return fmt.Errorf("core: export row counts (%d, %d, %d) do not match %d workers",
			len(e.Agree), len(e.Common), len(e.Responded), e.Workers)
	}
	for i := 0; i < e.Workers; i++ {
		if len(e.Agree[i]) != e.Workers || len(e.Common[i]) != e.Workers {
			return fmt.Errorf("core: export counter row %d has length (%d, %d), want %d",
				i, len(e.Agree[i]), len(e.Common[i]), e.Workers)
		}
		for j := 0; j < e.Workers; j++ {
			a, c := e.Agree[i][j], e.Common[i][j]
			if a < 0 || c < 0 {
				return fmt.Errorf("core: export counter (%d,%d) is negative", i, j)
			}
			if i != j && a > c {
				return fmt.Errorf("core: export agree[%d][%d]=%d exceeds common=%d", i, j, a, c)
			}
			if e.Agree[j][i] != a || e.Common[j][i] != c {
				return fmt.Errorf("core: export counters (%d,%d) are not symmetric", i, j)
			}
		}
	}
	return nil
}

// toStreamStats adapts a validated export for the addFrom reducer. The
// returned streamStats aliases the export's slices; addFrom only reads its
// argument, so no copy is needed. Exports carry no answer bitsets, so the
// adapted stats contribute none — a StatsAccumulator therefore cannot be
// compact-checkpointed, only evaluated (see compact.go).
func (e *StatsExport) toStreamStats() *streamStats {
	s := &streamStats{
		agree:     e.Agree,
		common:    e.Common,
		responded: make([]dynBitset, len(e.Responded)),
	}
	for i, words := range e.Responded {
		s.responded[i] = dynBitset(words)
	}
	return s
}

// StatsAccumulator merges stream-statistics exports through the same
// addFrom reducer the sharded evaluator uses, then evaluates once on the
// merged counters. It is the coordinator half of a distributed deployment:
// workers ingest responses for disjoint task sets, export their statistics,
// and the accumulator's intervals are bit-identical to a single
// ShardedIncremental fed every response — the merge is exact integer
// addition, and evaluation runs the very same Algorithm A2 code path. Once
// seeded, it can also be kept current with deltas (ApplyDelta) instead of
// re-merged from scratch.
//
// All methods are safe for concurrent use. An evaluation holds the
// accumulator for its whole solve (fanning the workers out across cores
// itself); Merge and ApplyDelta wait for it.
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

	wsPool sync.Pool
}

// NewStatsAccumulator returns an empty accumulator for a crowd of the given
// size. Every merged export must carry the same worker count.
func NewStatsAccumulator(workers int) (*StatsAccumulator, error) {
	if workers < 3 {
		return nil, fmt.Errorf("core: need at least 3 workers, have %d: %w", workers, ErrInsufficientData)
	}
	return &StatsAccumulator{
		workers:     workers,
		stats:       newStreamStats(workers, false),
		digest:      headerTerm(workers, 0, 0),
		digestValid: true,
		wsPool:      sync.Pool{New: func() any { return mat.NewWorkspace() }},
	}, nil
}

// Workers returns the crowd size the accumulator is indexed by.
func (a *StatsAccumulator) Workers() int { return a.workers }

// Tasks returns the largest task count over the merged exports.
func (a *StatsAccumulator) Tasks() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tasks
}

// Responses returns the total responses over the merged exports.
func (a *StatsAccumulator) Responses() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.responses
}

// Merge folds one export into the accumulator: counter sums and attendance
// unions, exactly as the sharded evaluator merges its stripes. The task
// sets behind the merged exports must be disjoint (each task's responses
// ingested on exactly one exporter) for the result to equal a single
// evaluator's statistics; that partitioning is the distributed layer's
// routing contract.
func (a *StatsAccumulator) Merge(e *StatsExport) error {
	if e.Workers != a.workers {
		return fmt.Errorf("core: export for %d workers cannot merge into accumulator for %d", e.Workers, a.workers)
	}
	if err := e.validate(); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats.addFrom(e.toStreamStats())
	if e.Tasks > a.tasks {
		a.tasks = e.Tasks
	}
	a.responses += e.Responses
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
	stats := newStreamStats(a.workers, false)
	stats.addFrom(a.stats)
	return &StatsAccumulator{
		workers:     a.workers,
		stats:       stats,
		tasks:       a.tasks,
		responses:   a.responses,
		digest:      a.digest,
		digestValid: a.digestValid,
		wsPool:      sync.Pool{New: func() any { return mat.NewWorkspace() }},
	}
}

// Export re-exports the merged statistics, so accumulators can themselves
// feed a higher tier of aggregation.
func (a *StatsAccumulator) Export() *StatsExport {
	a.mu.Lock()
	defer a.mu.Unlock()
	return exportStats(a.stats, a.workers, a.tasks, a.responses)
}

// Evaluate returns the error-rate interval for one worker from the merged
// statistics. The computation is the exact Algorithm A2 path
// ShardedIncremental runs, so on equal counters the result is bit-identical.
func (a *StatsAccumulator) Evaluate(worker int, opts EvalOptions) (WorkerEstimate, error) {
	ests, err := a.EvaluateSubset([]int{worker}, opts)
	if err != nil {
		return WorkerEstimate{}, err
	}
	return ests[0], nil
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
// goroutines, each with its own pooled workspace; a worker's result depends
// only on the counters, so the output is bit-identical to solving the
// workers one at a time.
func (a *StatsAccumulator) EvaluateSubset(workers []int, opts EvalOptions) ([]WorkerEstimate, error) {
	if err := checkConfidence(opts.Confidence); err != nil {
		return nil, err
	}
	for _, w := range workers {
		if w < 0 || w >= a.workers {
			return nil, fmt.Errorf("core: worker %d out of range", w)
		}
	}
	minCommon := opts.MinCommon
	if minCommon <= 0 {
		minCommon = 1
	}
	// ApplyDelta and Merge mutate a.stats in place, so unlike
	// ShardedIncremental's immutable snapshots the solves hold the lock
	// against them.
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]WorkerEstimate, len(workers))
	goroutines := min(runtime.GOMAXPROCS(0), len(workers))
	solve := func(g int) {
		ws := a.wsPool.Get().(*mat.Workspace)
		defer func() {
			ws.Reset()
			a.wsPool.Put(ws)
		}()
		for i := g; i < len(workers); i += goroutines {
			out[i] = finishEstimate(evaluateOne(a.stats, a.workers, workers[i], opts, minCommon, ws), opts.Confidence)
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
