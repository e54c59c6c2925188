package core

import (
	"fmt"
	"slices"

	"crowdassess/internal/crowd"
)

// LoggedResponse is one recorded submission in a checkpoint's response
// log: worker Worker answered task Task with Answer. The log is what makes
// a checkpoint fully reconstructive — the sufficient statistics alone
// cannot pair a task's pre-checkpoint responders with its post-restore
// ones, but replaying the log rebuilds the per-task response lists
// exactly, so ingestion may resume mid-task with no loss.
type LoggedResponse struct {
	Worker int
	Task   int
	Answer crowd.Response
}

// Checkpoint snapshots the evaluator for persistence: the exported
// sufficient statistics plus the full response log behind them, taken from
// one consistent cut. The log is ordered by task index, then arrival order
// within each task — a deterministic order that replays to bit-identical
// state. The statistics are redundant given the log; a restore replays the
// log and verifies the re-exported statistics against them, so a corrupted
// or mismatched checkpoint is detected end to end rather than silently
// skewing estimates.
func (inc *Incremental) Checkpoint() (*StatsExport, []LoggedResponse) {
	return inc.ExportStats(), responseLog(inc.responses, inc.taskResponses)
}

// Checkpoint snapshots the sharded evaluator for persistence. It holds
// every shard lock for the duration (the same index-order multi-shard
// locking Snapshot uses), so the statistics and the log describe exactly
// the same set of responses even under concurrent Add traffic.
func (s *ShardedIncremental) Checkpoint() (*StatsExport, []LoggedResponse) {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	defer func() {
		for _, sh := range s.shards {
			sh.mu.Unlock()
		}
	}()
	m := newStreamStats(s.workers)
	tasks, responses := 0, 0
	maps := make([]map[int][]workerResponse, len(s.shards))
	for i, sh := range s.shards {
		m.addFrom(sh.stats)
		if sh.tasks > tasks {
			tasks = sh.tasks
		}
		responses += sh.responses
		maps[i] = sh.taskResponses
	}
	return exportStats(m, s.workers, tasks, responses), responseLog(responses, maps...)
}

// responseLog flattens task-response maps (task sets disjoint across maps)
// into the canonical log order: ascending task index, arrival order within
// a task. Counter updates commute across tasks and pair every responder of
// a task with all previous ones, so replaying this order — or any order —
// reproduces the same statistics; the canonical order exists so equal
// states always serialize to equal bytes.
func responseLog(responses int, maps ...map[int][]workerResponse) []LoggedResponse {
	tasks := make([]int, 0, len(maps[0]))
	for _, m := range maps {
		for t := range m {
			tasks = append(tasks, t)
		}
	}
	slices.Sort(tasks)
	log := make([]LoggedResponse, 0, responses)
	for _, t := range tasks {
		for _, m := range maps {
			for _, wr := range m[t] {
				log = append(log, LoggedResponse{Worker: int(wr.worker), Task: t, Answer: crowd.Response(wr.resp)})
			}
		}
	}
	return log
}

// restorable is the slice of the streaming API RestoreStats needs; both
// evaluators satisfy it with their ordinary public methods, so the replay
// path is the very same Add every live ingest takes.
type restorable interface {
	Add(w, t int, r crowd.Response) error
	Workers() int
	Responses() int
	ExportStats() *StatsExport
}

// restoreStats replays a checkpoint's response log into an empty evaluator
// and verifies the rebuilt statistics against the checkpointed export.
func restoreStats(ev restorable, e *StatsExport, log []LoggedResponse) error {
	if e == nil {
		return fmt.Errorf("core: nil statistics export")
	}
	if err := e.validate(); err != nil {
		return fmt.Errorf("core: invalid checkpoint statistics: %w", err)
	}
	if got, want := ev.Workers(), e.Workers; got != want {
		return fmt.Errorf("core: checkpoint covers a %d-worker crowd, evaluator tracks %d", want, got)
	}
	if n := ev.Responses(); n != 0 {
		return fmt.Errorf("core: cannot restore into an evaluator already holding %d responses", n)
	}
	if len(log) != e.Responses {
		return fmt.Errorf("core: checkpoint log carries %d responses, statistics claim %d", len(log), e.Responses)
	}
	for i, lr := range log {
		if err := ev.Add(lr.Worker, lr.Task, lr.Answer); err != nil {
			return fmt.Errorf("core: replaying checkpoint response %d of %d: %w", i, len(log), err)
		}
	}
	if got := ev.ExportStats(); !got.Equal(e) {
		return fmt.Errorf("core: restored statistics diverge from the checkpoint export (corrupt or inconsistent snapshot)")
	}
	return nil
}

// RestoreStats rebuilds an empty evaluator from a checkpoint: the response
// log is replayed through the ordinary Add path (rebuilding counters,
// attendance, per-task response lists and duplicate detection exactly),
// then the re-exported statistics are verified against the checkpointed
// export — a checkpoint whose log and statistics disagree is rejected
// rather than trusted. After a successful restore the evaluator is
// byte-identical to the one the checkpoint was taken from: EvaluateAll,
// MajorityDisagreement and duplicate rejection all resume exactly, even
// for tasks whose responses straddle the checkpoint cut.
//
// The evaluator must be freshly constructed (no responses); restoring over
// live state would double-count. On error the evaluator may hold a partial
// replay and must be discarded.
func (inc *Incremental) RestoreStats(e *StatsExport, log []LoggedResponse) error {
	return restoreStats(inc, e, log)
}

// RestoreStats rebuilds an empty sharded evaluator from a checkpoint; see
// Incremental.RestoreStats. The replay runs through the concurrent Add
// path, so the shard striping — and therefore every per-shard structure —
// matches a never-restarted evaluator exactly. Not safe to call
// concurrently with Add: restore first, then serve.
func (s *ShardedIncremental) RestoreStats(e *StatsExport, log []LoggedResponse) error {
	return restoreStats(s, e, log)
}

// Equal reports whether two exports describe the same statistics.
// Attendance bitsets compare with trailing zero words ignored, so capacity
// history never distinguishes equal states — the same normalization the
// wire codec's canonical form applies.
func (e *StatsExport) Equal(o *StatsExport) bool {
	if e.Workers != o.Workers || e.Tasks != o.Tasks || e.Responses != o.Responses {
		return false
	}
	for i := 0; i < e.Workers; i++ {
		if !slices.Equal(e.Agree[i], o.Agree[i]) || !slices.Equal(e.Common[i], o.Common[i]) {
			return false
		}
		if !slices.Equal(trimBitset(e.Responded[i]), trimBitset(o.Responded[i])) {
			return false
		}
	}
	return true
}

// trimBitset drops trailing zero words without copying.
func trimBitset(words []uint64) []uint64 {
	n := len(words)
	for n > 0 && words[n-1] == 0 {
		n--
	}
	return words[:n]
}

// DisagreementCounts returns the integer tallies behind
// MajorityDisagreement: per worker, the number of tasks attempted and the
// number where the worker disagreed with the task's majority. Unlike the
// rates, the tallies are additive across disjoint task sets — each task's
// majority is decided where its responses live — which is what lets a
// coordinator sum per-node tallies and run the paper's spammer screen over
// a cluster exactly.
func (inc *Incremental) DisagreementCounts() (attempted, disagree []int) {
	attempted = make([]int, inc.workers)
	disagree = make([]int, inc.workers)
	tallyDisagreement(attempted, disagree, inc.taskResponses)
	return attempted, disagree
}

// DisagreementCounts returns the spammer-screen tallies across every
// shard; see Incremental.DisagreementCounts.
func (s *ShardedIncremental) DisagreementCounts() (attempted, disagree []int) {
	attempted = make([]int, s.workers)
	disagree = make([]int, s.workers)
	for _, sh := range s.shards {
		sh.mu.Lock()
		tallyDisagreement(attempted, disagree, sh.taskResponses)
		sh.mu.Unlock()
	}
	return attempted, disagree
}
