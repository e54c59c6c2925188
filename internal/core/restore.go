package core

import "slices"

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
// a cluster exactly. Each task's tally takes two popcounts of its column.
func (s *ShardedIncremental) DisagreementCounts() (attempted, disagree []int) {
	attempted = make([]int, s.workers)
	disagree = make([]int, s.workers)
	for _, sh := range s.shards {
		sh.mu.Lock()
		tallyDisagreement(attempted, disagree, sh.cols, s.words)
		sh.mu.Unlock()
	}
	return attempted, disagree
}
