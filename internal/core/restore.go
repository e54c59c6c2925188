package core

import (
	"fmt"
	"slices"

	"crowdassess/internal/crowd"
)

// loggedResponse is one submission of a replay log: worker Worker answered
// task Task with Answer. restoreCompact expands a compact state into such a
// log and replays it through the ordinary Add path.
type loggedResponse struct {
	Worker int
	Task   int
	Answer crowd.Response
}

// restorable is the slice of the streaming API a restore needs; both
// evaluators satisfy it with their ordinary public methods, so the replay
// path is the very same Add every live ingest takes.
type restorable interface {
	Add(w, t int, r crowd.Response) error
	Workers() int
	Responses() int
	ExportStats() *StatsExport
}

// restoreStats replays a response log into an empty evaluator and verifies
// the rebuilt statistics against the export the log was derived from.
func restoreStats(ev restorable, e *StatsExport, log []loggedResponse) error {
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
