package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"crowdassess/internal/crowd"
)

// streamStats holds the sufficient statistics of the streaming form of
// Algorithm A2: pairwise agree/common counters plus per-worker attendance
// bitsets over task indices. Everything in it is an integer count, so two
// streamStats built from disjoint response sets merge exactly — addFrom
// produces the same counters, bit for bit, as feeding the union of the
// responses into one instance. That additivity is what lets
// ShardedIncremental split ingestion across shards and still match the
// batch evaluator's intervals exactly.
//
// A shard's counters (the ones record writes) are upper-triangle: pair
// (i, j), i < j, is counted at [i][j] only, and [j][i] stays zero, so an
// Add writes each pair once. An accumulator's, which the solves read, are
// symmetric: it adds the upper triangle of every part (addFrom) and then
// mirrors it once (mirror).
type streamStats struct {
	// agree/common are the pairwise counters: upper-triangle in a shard,
	// symmetric in an accumulator.
	agree  [][]int
	common [][]int
	// responded[w] tracks whether worker w answered a given task (bitset
	// over global task indices).
	responded []dynBitset
}

// newStreamStats returns zeroed statistics for the given crowd size.
func newStreamStats(workers int) *streamStats {
	s := &streamStats{
		agree:     make([][]int, workers),
		common:    make([][]int, workers),
		responded: make([]dynBitset, workers),
	}
	for i := range s.agree {
		s.agree[i] = make([]int, workers)
		s.common[i] = make([]int, workers)
	}
	return s
}

// clearCounters zeroes the pairwise counters and keeps the attendance
// bitsets.
func (s *streamStats) clearCounters() {
	for i := range s.agree {
		clear(s.agree[i])
		clear(s.common[i])
	}
}

// record accounts for worker w answering r on task t, given the task's
// column: attended has bit p set when worker p already answered the task,
// yes when that answer was Yes. It pairs w with every earlier responder,
// counting the pair once in the upper triangle — at [p][w] for p < w, in
// row w for p > w — and adding its agreement bit without a branch, then
// adds w's own answer to the column.
func (s *streamStats) record(w, t int, r crowd.Response, attended, yes []uint64) {
	var mine uint64 // w's answer in every bit position
	if r == crowd.Yes {
		mine = ^uint64(0)
	}
	cw, aw := s.common[w], s.agree[w]
	for k, word := range attended {
		same := ^(yes[k] ^ mine)
		below := word // the responders p < w
		switch {
		case k == w/64:
			below &= 1<<(uint(w)%64) - 1
		case k > w/64:
			below = 0
		}
		for m := below; m != 0; m &= m - 1 {
			bit := bits.TrailingZeros64(m)
			p := k*64 + bit
			s.common[p][w]++
			s.agree[p][w] += int(same >> uint(bit) & 1)
		}
		for m := word &^ below; m != 0; m &= m - 1 {
			bit := bits.TrailingZeros64(m)
			p := k*64 + bit
			cw[p]++
			aw[p] += int(same >> uint(bit) & 1)
		}
	}
	attended[w/64] |= 1 << (uint(w) % 64)
	yes[w/64] |= mine & (1 << (uint(w) % 64))
	s.responded[w].set(t)
}

// addFrom accumulates o into s: the sums of their upper-triangle counters
// and the unions of their attendance. The task sets behind s and o must
// be disjoint (each task's responses live in exactly one of them), which
// the sharded evaluator's task-striping guarantees. The lower triangle of
// s is left as it was: mirror it once every part is in.
func (s *streamStats) addFrom(o *streamStats) {
	s.addUpper(o)
	for i := range s.responded {
		s.responded[i].orWith(o.responded[i])
	}
}

// addUpper adds o's upper-triangle counters into s's.
func (s *streamStats) addUpper(o *streamStats) {
	for i := range s.agree {
		ai, oa := s.agree[i], o.agree[i][:len(s.agree[i])]
		ci, oc := s.common[i], o.common[i][:len(ai)]
		for j := i + 1; j < len(ai); j++ {
			ai[j] += oa[j]
			ci[j] += oc[j]
		}
	}
}

// mirror copies the upper-triangle counters into the lower triangle,
// making them symmetric.
func (s *streamStats) mirror() {
	for i := range s.agree {
		ai, ci := s.agree[i], s.common[i]
		for j := i + 1; j < len(ai); j++ {
			s.agree[j][i], s.common[j][i] = ai[j], ci[j]
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

// counters implements agreementSource over the streaming counters.
func (s *streamStats) counters(w int) (agree, common []int) { return s.agree[w], s.common[w] }

// attendance implements agreementSource over the attendance bitsets.
func (s *streamStats) attendance(w int) []uint64 { return s.responded[w] }

// dynBitset is a growable bitset over task indices.
type dynBitset []uint64

func (b *dynBitset) set(i int) {
	b.grow(i/64 + 1)
	(*b)[i/64] |= 1 << (uint(i) % 64)
}

// grow extends b with zero words to at least n words, in one step and
// within its capacity when that suffices.
func (b *dynBitset) grow(n int) {
	if old := len(*b); old < n {
		*b = slices.Grow(*b, n-old)[:n]
		clear((*b)[old:])
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

// MaxTask is the largest task index a streaming evaluator records, the
// largest the response journal stores too. Attendance bitsets and the
// task→column index grow with the largest task id seen, so a larger id
// would cost memory in proportion to the id instead of to the responses.
const MaxTask = math.MaxInt32

// checkStreamingWorkers validates a streaming evaluator's crowd size: A2
// needs three workers, and a crowd past 32-bit worker indices could never
// hold its workers² counters, so it is refused with an error before the
// constructor tries to allocate them.
func checkStreamingWorkers(workers int) error {
	if workers < 3 {
		return fmt.Errorf("core: need at least 3 workers, have %d: %w", workers, ErrInsufficientData)
	}
	if workers > math.MaxInt32 {
		return fmt.Errorf("core: %d workers exceed the streaming limit of %d", workers, math.MaxInt32)
	}
	return nil
}

// tallyDisagreement accumulates per-worker attempted/disagree counts over
// one shard's task columns (see incShard), words attendance words then
// words answer words each. Majorities are per task, so tallying a shard at
// a time is exact.
func tallyDisagreement(attempted, disagree []int, cols []uint64, words int) {
	for off := 0; off < len(cols); off += 2 * words {
		attended, yes := cols[off:off+words], cols[off+words:off+2*words]
		n, y := 0, 0
		for k := range attended {
			n += bits.OnesCount64(attended[k])
			y += bits.OnesCount64(yes[k])
		}
		// A tie goes to Yes, matching MajorityVote.
		majorityYes := 2*y >= n
		for k, word := range attended {
			wrong := yes[k]
			if majorityYes {
				wrong = word &^ yes[k]
			}
			for ; word != 0; word &= word - 1 {
				attempted[k*64+bits.TrailingZeros64(word)]++
			}
			for ; wrong != 0; wrong &= wrong - 1 {
				disagree[k*64+bits.TrailingZeros64(wrong)]++
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
