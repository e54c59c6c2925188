package core

import (
	"fmt"
	"math/bits"

	"crowdassess/internal/crowd"
)

// CompactState is the O(statistics) checkpoint of a streaming evaluator:
// the exported sufficient statistics plus the per-worker answer bitsets.
// Unlike a response log — whose size grows with every response ever
// ingested — a CompactState's size is bounded by the counter matrix and the
// task-indexed bitsets, so writing one costs the same whether the evaluator
// holds a thousand responses or a hundred million.
//
// The two bitset families make the state fully reconstructive for binary
// crowds: every pairwise counter is derivable from them
// (common[i][j] = |responded_i ∩ responded_j|, agree[i][j] additionally
// masks tasks where the answer bits differ), and they are the worker-major
// transpose of the evaluator's per-task attendance and answer columns,
// which RestoreCompact rebuilds by replaying them. What a compact
// checkpoint deliberately forgets is the arrival ORDER of responses within
// a task — the counters, every decision (intervals, spammer screen,
// duplicate rejection) and all future ingestion are order-independent, so
// a restored evaluator is decision-identical to the original.
type CompactState struct {
	// Stats is the exported sufficient statistics at the checkpoint cut.
	Stats *StatsExport
	// Answers[w] is worker w's answer bitset over task indices: bit set
	// means Yes, clear means No; meaningful only where Stats.Responded[w]
	// has the bit set. Little-endian 64-bit words, same layout as
	// Stats.Responded.
	Answers [][]uint64
}

// CompactCheckpoint snapshots the evaluator in O(statistics) — independent
// of how many responses were ever ingested. Pair it with a write-ahead log
// of the post-checkpoint responses (internal/store) and the evaluator is
// fully recoverable: RestoreCompact rebuilds this exact state, and
// replaying the log tail through the ordinary Add path finishes the job.
// It holds every shard lock for the duration (the same index-order
// multi-shard locking CutStats uses), so the state is one consistent cut
// even under concurrent Add traffic. The answer bitsets are the shards'
// answer columns, transposed.
func (s *ShardedIncremental) CompactCheckpoint() *CompactState {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	defer func() {
		for _, sh := range s.shards {
			sh.mu.Unlock()
		}
	}()
	m := newStreamStats(s.workers)
	answers := make([]dynBitset, s.workers)
	tasks, responses := 0, 0
	for _, sh := range s.shards {
		m.addFrom(sh.stats)
		tasks = max(tasks, sh.tasks)
		responses += sh.responses
		for t, off := range sh.colOf {
			for k, word := range sh.cols[off+s.words : off+2*s.words] {
				for ; word != 0; word &= word - 1 {
					answers[k*64+bits.TrailingZeros64(word)].set(t)
				}
			}
		}
	}
	cs := &CompactState{Stats: exportStats(m, s.workers, tasks, responses), Answers: make([][]uint64, s.workers)}
	for i, words := range answers {
		cs.Answers[i] = words
	}
	return cs
}

// validateCompact cross-checks a compact state's internal consistency: the
// pairwise counters must equal the counts the bitsets derive, the answer
// bits must be confined to attended tasks, and the scalar totals must match
// the bitsets. A corrupted or hand-edited checkpoint fails here with a
// clear error instead of skewing every future estimate.
func validateCompact(cs *CompactState) error {
	e := cs.Stats
	if e == nil {
		return fmt.Errorf("core: compact state carries no statistics")
	}
	if err := e.validate(); err != nil {
		return fmt.Errorf("core: invalid compact statistics: %w", err)
	}
	if len(cs.Answers) != e.Workers {
		return fmt.Errorf("core: compact state has %d answer bitsets, statistics claim %d workers", len(cs.Answers), e.Workers)
	}
	totalResponses, maxTask := 0, -1
	for i := 0; i < e.Workers; i++ {
		ri := dynBitset(e.Responded[i])
		yi := dynBitset(cs.Answers[i])
		for w, word := range yi {
			var attended uint64
			if w < len(ri) {
				attended = ri[w]
			}
			if word&^attended != 0 {
				return fmt.Errorf("core: worker %d has answer bits on tasks it never attended", i)
			}
		}
		for w, word := range ri {
			totalResponses += bits.OnesCount64(word)
			if word != 0 {
				if t := w*64 + 63 - bits.LeadingZeros64(word); t > maxTask {
					maxTask = t
				}
			}
		}
	}
	if totalResponses != e.Responses {
		return fmt.Errorf("core: attendance bitsets hold %d responses, statistics claim %d", totalResponses, e.Responses)
	}
	if maxTask+1 != e.Tasks {
		return fmt.Errorf("core: attendance bitsets reach task %d, statistics claim %d tasks", maxTask, e.Tasks-1)
	}
	for i := 0; i < e.Workers; i++ {
		ri, yi := dynBitset(e.Responded[i]), dynBitset(cs.Answers[i])
		for j := i + 1; j < e.Workers; j++ {
			rj, yj := dynBitset(e.Responded[j]), dynBitset(cs.Answers[j])
			common, agree := 0, 0
			n := min(len(ri), len(rj))
			for w := 0; w < n; w++ {
				both := ri[w] & rj[w]
				common += bits.OnesCount64(both)
				var xw, yw uint64
				if w < len(yi) {
					xw = yi[w]
				}
				if w < len(yj) {
					yw = yj[w]
				}
				agree += bits.OnesCount64(both &^ (xw ^ yw))
			}
			if common != e.Common[i][j] || agree != e.Agree[i][j] {
				return fmt.Errorf("core: counters for pair (%d,%d) are (%d agree, %d common), bitsets derive (%d, %d) — corrupt or inconsistent compact state",
					i, j, e.Agree[i][j], e.Common[i][j], agree, common)
			}
		}
	}
	return nil
}

// loggedResponse is one submission of a replay log: worker Worker answered
// task Task with Answer.
type loggedResponse struct {
	Worker int
	Task   int
	Answer crowd.Response
}

// compactLog expands a validated compact state into a synthetic response
// log: ascending task index, ascending worker index within a task. The
// counters are order-independent, so replaying this canonical order through
// the ordinary Add path rebuilds the exact statistics; only the original
// arrival order within each task — which nothing downstream depends on —
// is normalized away.
func compactLog(cs *CompactState) []loggedResponse {
	e := cs.Stats
	log := make([]loggedResponse, 0, e.Responses)
	for t := 0; t < e.Tasks; t++ {
		word, bit := t/64, uint64(1)<<(uint(t)%64)
		for w := 0; w < e.Workers; w++ {
			ri := e.Responded[w]
			if word >= len(ri) || ri[word]&bit == 0 {
				continue
			}
			answer := crowd.No
			if yi := cs.Answers[w]; word < len(yi) && yi[word]&bit != 0 {
				answer = crowd.Yes
			}
			log = append(log, loggedResponse{Worker: w, Task: t, Answer: answer})
		}
	}
	return log
}

// RestoreCompact rebuilds an empty evaluator from a compact checkpoint:
// validate (including re-deriving every pairwise counter from the
// bitsets), expand to the canonical synthetic log, replay through the
// ordinary Add path — so shard striping and the per-task columns match a
// never-restarted evaluator exactly — and verify the re-exported
// statistics against the checkpointed ones. After a successful restore the
// evaluator is decision-identical to the one the checkpoint was taken
// from: every future Add pairs correctly against pre-checkpoint responders
// (the bitsets carry who answered what), duplicate rejection resumes
// exactly, and EvaluateAll / MajorityDisagreement produce bit-identical
// results. The evaluator must
// be freshly constructed; on error it may hold a partial replay and must
// be discarded. Not safe to call concurrently with Add: restore first,
// then serve.
func (s *ShardedIncremental) RestoreCompact(cs *CompactState) error {
	if err := validateCompact(cs); err != nil {
		return err
	}
	if got, want := s.Workers(), cs.Stats.Workers; got != want {
		return fmt.Errorf("core: checkpoint covers a %d-worker crowd, evaluator tracks %d", want, got)
	}
	if n := s.Responses(); n != 0 {
		return fmt.Errorf("core: cannot restore into an evaluator already holding %d responses", n)
	}
	log := compactLog(cs)
	for i, lr := range log {
		if err := s.Add(lr.Worker, lr.Task, lr.Answer); err != nil {
			return fmt.Errorf("core: replaying checkpoint response %d of %d: %w", i, len(log), err)
		}
	}
	if !s.ExportStats().Equal(cs.Stats) {
		return fmt.Errorf("core: restored statistics diverge from the checkpoint export (corrupt or inconsistent snapshot)")
	}
	return nil
}
