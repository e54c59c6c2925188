package core

import (
	"fmt"
	"math"
	"math/bits"

	"crowdassess/internal/crowd"
)

// streamStats holds the sufficient statistics of the streaming form of
// Algorithm A2: symmetric pairwise agree/common counters plus per-worker
// attendance bitsets over task indices. Everything in it is an integer
// count, so two streamStats built from disjoint response sets merge
// exactly — addFrom produces the same counters, bit for bit, as feeding
// the union of the responses into one instance. That additivity is what
// lets ShardedIncremental split ingestion across shards and still match
// the batch evaluator's intervals exactly.
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

// newStreamStats returns zeroed statistics for the given crowd size. Only
// the shards' own statistics and a compact checkpoint's merge carry answer
// bitsets; merges that are only evaluated or exported leave them out.
func newStreamStats(workers int, answers bool) *streamStats {
	s := &streamStats{
		agree:     make([][]int, workers),
		common:    make([][]int, workers),
		responded: make([]dynBitset, workers),
	}
	if answers {
		s.answers = make([]dynBitset, workers)
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

// addFrom accumulates o into s: counter sums and attendance unions, plus
// answer unions when both sides carry answer bitsets. The task sets behind
// s and o must be disjoint (each task's responses live in exactly one of
// them), which the sharded evaluator's task-striping guarantees.
func (s *streamStats) addFrom(o *streamStats) {
	for i := range s.agree {
		ai, oa := s.agree[i], o.agree[i]
		ci, oc := s.common[i], o.common[i]
		for j := range ai {
			ai[j] += oa[j]
			ci[j] += oc[j]
		}
		s.responded[i].orWith(o.responded[i])
		if i < len(s.answers) && i < len(o.answers) {
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

// workerResponse is one entry of a task's response list, packed to 8
// bytes: the lists hold every response ingested, so their size is the
// evaluator's memory floor. NewShardedIncremental rejects crowds whose
// worker indices would not fit.
type workerResponse struct {
	worker int32
	resp   int8 // a crowd.Response
	// cut marks the newest response a statistics cut (CutStats) covered;
	// it and every response before it in the list are covered. A task
	// whose last response is unmarked gained responses since the last cut
	// and, once cuts are tracked, is on its shard's dirty list. The mark
	// sits in the padding, so it costs Add no map operation and no memory.
	cut bool
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

// snapshotDataset builds a Dataset from the shards' task-response maps
// (their task sets must be disjoint).
func snapshotDataset(workers, tasks int, responseMaps []map[int][]workerResponse) (*crowd.Dataset, error) {
	if tasks == 0 {
		return nil, fmt.Errorf("core: no responses recorded: %w", ErrInsufficientData)
	}
	ds, err := crowd.NewDataset(workers, tasks, 2)
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
