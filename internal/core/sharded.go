package core

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"crowdassess/internal/crowd"
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
}

var _ StreamingEvaluator = (*ShardedIncremental)(nil)

// ShardedIncremental maintains the sufficient statistics of Algorithm A2
// online, realizing the paper's closing remark that the method "can be
// easily modified to be incremental, to keep efficiently updating worker
// error rates as more tasks get done." Each added response updates
// pairwise agreement counts against the task's previous responders, found
// in the task's attendance column, in O(workers/64 + responders); triple
// common-task counts are answered from per-worker attendance bitsets, so
// no response is ever rescanned.
//
// The task space is hash-partitioned into N stripes, each owned by a shard
// with its own lock, task columns, agree/common counters and attendance
// bitsets. Because every response for a task lands in exactly one
// shard, a shard's counters are the exact statistics of its stripe, and
// the integer counters are additive across stripes — so ingestion scales
// with shards while evaluation, which runs on the merged counters,
// produces intervals bit-identical to the batch EvaluateWorkers on the
// same responses.
//
// Concurrency contract: Add is safe from any number of goroutines (two
// Adds contend only when their tasks hash to the same shard). The reads are
// safe concurrently with Add and with each other, and run on one merge of
// the shards: a StatsAccumulator, so a local read takes the very solve
// path of a cluster read. The merge reflects, per shard, every response
// ingested up to the moment it visited that shard. Merges are lazy: each
// shard carries an epoch advanced by Add, and the merge is rebuilt only
// when some shard's epoch moved, so repeated reads of a quiescent pool
// reuse it. A rebuild does not wait for solves (see snapshot): it
// rebuilds the published merge in place when no solve holds it, else a
// spare that it then publishes, so a steady Add-then-read stream merges
// into the same two accumulators. One solve runs at a time, fanned out
// over GOMAXPROCS inside the accumulator.
type ShardedIncremental struct {
	workers int
	words   int // ⌈workers/64⌉: the attendance (and answer) words of a task column
	shards  []*incShard

	// mergeMu guards the lazy merge state below; see snapshot. merged is
	// the published merge, built on the first read, and spare the other
	// one, built when a rebuild first finds merged under a solve. An
	// evaluator that is only ever cut holds neither. mergedSlot is the
	// merge slot (the index into each shard's marks, 0 or 1) of merged;
	// spare's is the other.
	mergeMu      sync.Mutex
	merged       *StatsAccumulator
	spare        *StatsAccumulator
	mergedSlot   int
	mergedEpochs []uint64

	// solveMu lets one solve run at a time, which also keeps the two
	// accumulators' solves off the solvers they share. It is held
	// around the accumulator call, which holds that accumulator's mu for
	// the whole solve. Each solve already fans out over every core; two at
	// once, one per accumulator, raised a gateway's ingest p99 about
	// 2.5-fold (docs/performance.md).
	solveMu sync.Mutex

	// base is the statistics of the last cut (CutStats), advanced only by
	// each cut's delta: nil until the first one, then guarded by holding
	// every shard lock.
	base *StatsAccumulator
}

// incShard owns one task-stripe of a ShardedIncremental.
type incShard struct {
	// mu guards every ingestion field below it.
	mu    sync.Mutex
	epoch uint64 // advanced by every successful Add; drives lazy re-merges
	// cols is a slab of per-task columns, found through colOf (see
	// colIndex). A column is words attendance words (bit w set when worker
	// w answered the task) followed by words answer words (bit w set when
	// that answer was Yes): each response is stored once, as two bits.
	colOf     colIndex
	cols      []uint64
	stats     *streamStats
	tasks     int // highest task index seen in this stripe + 1
	responses int // running response count for this stripe

	// marks[j][w] marks the words of stats.responded[w] (bit k for word
	// k) that gained bits since reader j last read this shard, and
	// whole[j] asks reader j to read the bitsets whole instead: set for a
	// new or restored shard. Readers 0 and 1 are the merge slots (see
	// snapshot), reader cutReader the statistics cut (see CutStats), and
	// cutWorkers marks the workers w whose marks[cutReader][w] are not
	// empty, so that a cut visits only them.
	marks      [3][]dynBitset
	whole      [3]bool
	cutWorkers dynBitset

	// seen is AddBatch's repeat check (see passOver); its storage is kept
	// from one batch to the next.
	seen pairSet
}

// cutReader is the index of the statistics cut's marks in incShard.marks.
const cutReader = 2

// newIncShard returns an empty shard for the given crowd size.
func newIncShard(workers int) *incShard {
	sh := &incShard{stats: newStreamStats(workers), whole: [3]bool{true, true, true}}
	for j := range sh.marks {
		sh.marks[j] = make([]dynBitset, workers)
	}
	return sh
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
		words:        (workers + 63) / 64,
		shards:       make([]*incShard, shards),
		mergedEpochs: make([]uint64, shards),
	}
	for i := range s.shards {
		s.shards[i] = newIncShard(workers)
	}
	return s, nil
}

// NewIncremental returns an empty one-shard streaming evaluator.
func NewIncremental(workers int) (*ShardedIncremental, error) {
	return NewShardedIncremental(workers, 1)
}

// shardOf routes task t to its stripe.
func (s *ShardedIncremental) shardOf(t int) *incShard {
	return s.shards[s.shardIndex(t)]
}

// shardIndex is the index of task t's stripe. The multiplicative hash
// spreads clustered task ids (batch uploads use contiguous ranges) evenly
// across shards so contiguous ingestion doesn't serialize on one lock.
func (s *ShardedIncremental) shardIndex(t int) int {
	h := uint64(t)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % uint64(len(s.shards)))
}

// Workers returns the number of workers tracked.
func (s *ShardedIncremental) Workers() int { return s.workers }

// Shards returns the number of task-stripe shards.
func (s *ShardedIncremental) Shards() int { return len(s.shards) }

// Tasks returns the task horizon: the highest task index seen plus one.
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

// Add records worker w's response r on task t, which must lie in
// 0…MaxTask. It is safe to call from any number of goroutines; responses
// to tasks in different stripes never contend.
func (s *ShardedIncremental) Add(w, t int, r crowd.Response) error {
	if err := s.checkResponse(w, t, r); err != nil {
		return err
	}
	sh := s.shardOf(t)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.checkNew(w, t); err != nil {
		return err
	}
	sh.record(w, t, r, s.words)
	return nil
}

// Response is one response of a batch: worker Worker answered task Task
// with Answer.
type Response struct {
	Worker int
	Task   int
	Answer crowd.Response
}

// AddBatch records the responses of rs as that many Adds would, but takes
// each shard's lock twice per batch instead of once per response, so two
// concurrent batches, or a batch and a read's merge, meet once per shard
// rather than once per response. Under a contended lock, each meeting can
// park the goroutine behind whatever holds the CPUs.
//
// The batch is checked whole before any of it is recorded: when a response
// is invalid, repeats one already recorded or repeats a worker–task pair
// of the batch itself, AddBatch records nothing and returns that
// response's error. Only a concurrent Add of one of the batch's pairs,
// landing between the check and the record, is refused when recording
// reaches it, and the batch is then recorded only in part.
func (s *ShardedIncremental) AddBatch(rs []Response) error {
	for i, x := range rs {
		if err := s.checkResponse(x.Worker, x.Task, x.Answer); err != nil {
			return fmt.Errorf("core: batch response %d: %w", i, err)
		}
	}
	// Each response is routed to its shard once, and each shard's passes
	// walk only its own responses.
	var order []int32
	var end []int
	if len(s.shards) > 1 {
		order, end = s.routeBatch(rs)
	}
	// The first pass only checks; the second checks again, since the
	// locks were released in between, and records.
	for _, recording := range []bool{false, true} {
		lo := 0
		for i, sh := range s.shards {
			var idx []int32
			if order != nil {
				idx, lo = order[lo:end[i]], end[i]
			}
			if err := s.passOver(rs, idx, sh, recording); err != nil {
				return err
			}
		}
	}
	return nil
}

// routeBatch groups the indices of rs by the shard that owns their task,
// in batch order within a shard: shard i's are order[end[i-1]:end[i]],
// with end[-1] taken as 0.
func (s *ShardedIncremental) routeBatch(rs []Response) (order []int32, end []int) {
	buf := make([]int32, 2*len(rs))
	shard, order := buf[:len(rs)], buf[len(rs):]
	end = make([]int, len(s.shards)+1)
	for j, x := range rs {
		shard[j] = int32(s.shardIndex(x.Task))
		end[shard[j]+1]++
	}
	for i := range s.shards {
		end[i+1] += end[i]
	}
	// end[i] is where shard i's run begins; placing each index advances
	// it to where the run ends.
	for j, i := range shard {
		order[end[i]] = int32(j)
		end[i]++
	}
	return order, end[:len(s.shards)]
}

// passOver checks, in batch order, the responses of rs at the indices idx
// (every response when idx is nil), and records each when recording is
// set, holding sh.mu. It stops at the first one already recorded. The
// check pass also stops at one that repeats a worker–task pair of the run
// before it; every response of the batch with that pair routes to this
// shard, so no repeat escapes.
func (s *ShardedIncremental) passOver(rs []Response, idx []int32, sh *incShard, recording bool) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n := len(rs)
	if idx != nil {
		n = len(idx)
	}
	var seen pairSet
	if !recording {
		seen = sh.seen.reset(n)
	}
	for k := range n {
		j := k
		if idx != nil {
			j = int(idx[k])
		}
		x := rs[j]
		if err := sh.checkNew(x.Worker, x.Task); err != nil {
			return fmt.Errorf("core: batch response %d: %w", j, err)
		}
		if recording {
			sh.record(x.Worker, x.Task, x.Answer, s.words)
		} else if !seen.add(x.Worker, x.Task) {
			return fmt.Errorf("core: batch response %d: worker %d already answered task %d earlier in the batch", j, x.Worker, x.Task)
		}
	}
	return nil
}

// pairSet is an open-addressing hash set of worker–task pairs, AddBatch's
// repeat check. A pair's key is task<<32 | worker, plus one so that 0
// marks an empty slot; task and worker both fit in 31 bits (checkResponse,
// checkStreamingWorkers). Sorting the run's keys instead, as the gateway's
// check does, added about a quarter to a replica's cost per response
// (BenchmarkShardedIncrementalAdd/dense64: 64-response runs, sorted
// under the shard lock).
type pairSet []uint64

// reset empties the set and sizes it to hold n pairs at most half full,
// keeping its storage when that is large enough, so a shard checking a
// steady stream of batches allocates nothing.
func (p *pairSet) reset(n int) pairSet {
	size := 1 << bits.Len(uint(2*n))
	if cap(*p) < size {
		*p = make(pairSet, size)
	}
	*p = (*p)[:size]
	clear(*p)
	return *p
}

// add inserts worker w's pair with task t and reports whether it was not
// in the set yet.
func (p pairSet) add(w, t int) bool {
	key := (uint64(t)<<32 | uint64(w)) + 1
	mask := uint64(len(p) - 1)
	for h := mix64(key) & mask; ; h = (h + 1) & mask {
		switch p[h] {
		case 0:
			p[h] = key
			return true
		case key:
			return false
		}
	}
}

// checkResponse validates a response against the crowd: the checks that
// need no shard lock.
func (s *ShardedIncremental) checkResponse(w, t int, r crowd.Response) error {
	if w < 0 || w >= s.workers {
		return fmt.Errorf("core: worker %d out of range 0…%d", w, s.workers-1)
	}
	if t < 0 {
		return fmt.Errorf("core: negative task index %d", t)
	}
	if t > MaxTask {
		return fmt.Errorf("core: task index %d past the streaming limit of %d", t, MaxTask)
	}
	if r != crowd.Yes && r != crowd.No {
		return fmt.Errorf("core: streaming evaluator is binary; response %d: %w", r, crowd.ErrArity)
	}
	return nil
}

// checkNew refuses a response worker w already gave on task t. The caller
// holds sh.mu.
func (sh *incShard) checkNew(w, t int) error {
	if sh.stats.responded[w].get(t) {
		return fmt.Errorf("core: worker %d already answered task %d", w, t)
	}
	return nil
}

// record adds a checked response to the shard. The caller holds sh.mu.
func (sh *incShard) record(w, t int, r crowd.Response, words int) {
	attended, yes := sh.column(t, words)
	sh.stats.record(w, t, r, attended, yes)
	if len(sh.marks[cutReader][w]) == 0 {
		sh.cutWorkers.set(w)
	}
	for j := range sh.marks {
		sh.marks[j][w].set(t / 64)
	}
	sh.responses++
	if t+1 > sh.tasks {
		sh.tasks = t + 1
	}
	sh.epoch++
}

// column returns task t's attendance and answer words, giving the task a
// zeroed column first if it has none.
func (sh *incShard) column(t, words int) (attended, yes []uint64) {
	slot := sh.colOf.slot(t)
	if *slot == 0 {
		sh.cols = append(sh.cols, make([]uint64, 2*words)...)
		*slot = int32(len(sh.cols) / (2 * words))
	}
	off := int(*slot-1) * 2 * words
	return sh.cols[off : off+words], sh.cols[off+words : off+2*words]
}

// colPage is how many tasks one page of a colIndex covers.
const colPage = 1024

// colIndex maps a shard's tasks to their columns: entry t%colPage of page
// t/colPage is 1 + the number of task t's column in the slab, or 0 while
// t has none (as every task of another stripe). Task ids are dense, so a
// lookup is two loads where a map took a hashed probe; pages are
// allocated on first use, so a stray large id costs a directory entry per
// colPage tasks rather than one per task.
type colIndex []*[colPage]int32

// slot returns task t's entry, allocating its page if need be.
func (c *colIndex) slot(t int) *int32 {
	p := t / colPage
	if p >= len(*c) {
		*c = slices.Grow(*c, p+1-len(*c))[:p+1]
	}
	if (*c)[p] == nil {
		(*c)[p] = new([colPage]int32)
	}
	return &(*c)[p][t%colPage]
}

// each calls f on every task with a column and that column's number, in
// task order.
func (c colIndex) each(f func(t, col int)) {
	for p, page := range c {
		if page == nil {
			continue
		}
		for i, v := range page {
			if v != 0 {
				f(p*colPage+i, int(v-1))
			}
		}
	}
}

// snapshot returns the published merge of every shard, rebuilding it first
// if some shard ingested since the last merge. The totals are read under
// the same shard locks as the counters, so they describe exactly the
// merged responses.
//
// A rebuild does not wait for a solve. A solve holds its accumulator's mu
// throughout, so a rebuild that cannot TryLock the published merge
// rebuilds the spare instead and swaps the two. Only one solve runs at a
// time (solveMu), so when a solve holds the published merge the spare is
// under no solve. Only solves and rebuilds take an accumulator's mu, so
// locking the spare never waits for a solve.
func (s *ShardedIncremental) snapshot() *StatsAccumulator {
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
	m := s.merged
	switch {
	case m == nil:
		m = newStatsAccumulator(s.workers)
		m.mu.Lock()
	case m.mu.TryLock():
	default:
		if s.spare == nil {
			// Reads alternate between the two, so one set of solvers
			// serves both and stays warm; solveMu keeps their solves
			// apart. A set each cost ingest_http about 6% of ops_per_s
			// (docs/performance.md).
			s.spare = newStatsAccumulator(s.workers)
			s.spare.solvers = m.solvers
		}
		m, s.spare = s.spare, m
		s.mergedSlot = 1 - s.mergedSlot
		m.mu.Lock()
	}
	m.stats.clearCounters()
	m.tasks, m.responses, m.digestValid = 0, 0, false
	for i, sh := range s.shards {
		sh.mu.Lock()
		m.stats.addUpper(sh.stats)
		sh.mergeInto(m.stats, s.mergedSlot)
		m.tasks = max(m.tasks, sh.tasks)
		m.responses += sh.responses
		s.mergedEpochs[i] = sh.epoch
		sh.mu.Unlock()
	}
	m.stats.mirror()
	m.mu.Unlock()
	s.merged = m
	return m
}

// mergeInto brings the attendance bitsets of dst, merge slot j's
// accumulator, up to date with the shard's: it ORs in the words marked
// since slot j last read the shard, or every word when the slot must read
// the shard whole. Shards only gain bits — a restore replaces an empty
// shard — so dst never holds a bit the shard has lost, and the result is
// the union a rebuild from scratch would make, bitset lengths included.
// A merge thus costs O(words changed), not O(task horizon): under a steady
// stream a read pulls a few thousand words per shard instead of every
// worker's whole bitset. The caller holds sh.mu.
func (sh *incShard) mergeInto(dst *streamStats, j int) {
	if sh.whole[j] {
		for w, b := range sh.stats.responded {
			dst.responded[w].orWith(b)
		}
		for w := range sh.marks[j] {
			sh.marks[j][w] = sh.marks[j][w][:0]
		}
		sh.whole[j] = false
		return
	}
	for w, marks := range sh.marks[j] {
		if len(marks) == 0 {
			continue
		}
		src := sh.stats.responded[w]
		d := &dst.responded[w]
		d.grow(len(src))
		for i, m := range marks {
			for ; m != 0; m &= m - 1 {
				k := i*64 + bits.TrailingZeros64(m)
				(*d)[k] |= src[k]
			}
		}
		sh.marks[j][w] = marks[:0]
	}
}

// Evaluate returns the current error-rate interval for one worker.
func (s *ShardedIncremental) Evaluate(worker int, opts EvalOptions) (WorkerEstimate, error) {
	m := s.snapshot()
	s.solveMu.Lock()
	defer s.solveMu.Unlock()
	return m.Evaluate(worker, opts)
}

// EvaluateAll returns current intervals for every worker.
func (s *ShardedIncremental) EvaluateAll(opts EvalOptions) ([]WorkerEstimate, error) {
	m := s.snapshot()
	s.solveMu.Lock()
	defer s.solveMu.Unlock()
	return m.EvaluateAll(opts)
}

// EvaluateSubset returns current intervals for the given worker indices,
// aligned with the input slice. One merge serves the whole subset, and
// only the listed workers are solved.
func (s *ShardedIncremental) EvaluateSubset(workers []int, opts EvalOptions) ([]WorkerEstimate, error) {
	m := s.snapshot()
	s.solveMu.Lock()
	defer s.solveMu.Unlock()
	return m.EvaluateSubset(workers, opts)
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

// MajorityDisagreement runs the paper's spammer screen on the accumulated
// responses. Majorities are per task and each task lives in one stripe, so
// tallying shard by shard is exact.
func (s *ShardedIncremental) MajorityDisagreement() []float64 {
	return disagreementRates(s.DisagreementCounts())
}
