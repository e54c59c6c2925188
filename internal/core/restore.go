package core

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

// WorkerResponses returns how many responses each worker has recorded:
// the attempted half of DisagreementCounts. It never fails; the error is
// there so a cluster evaluator can offer the same method.
func (s *ShardedIncremental) WorkerResponses() ([]int, error) {
	attempted, _ := s.DisagreementCounts()
	return attempted, nil
}
