package core

import (
	"fmt"
	"math/bits"
)

// CompactState is the O(statistics) checkpoint of a streaming evaluator:
// each worker's attendance and answer bitsets, and the digest of the
// statistics they hold. Unlike a response log — whose size grows with
// every response ever ingested — a CompactState's size is bounded by the
// task-indexed bitsets, so writing one costs the same whether the
// evaluator holds a thousand responses or a hundred million.
//
// The two bitset families make the state fully reconstructive for binary
// crowds: every pairwise counter is derivable from them
// (common[i][j] = |responded_i ∩ responded_j|, agree[i][j] additionally
// masks tasks where the answer bits differ), and so are the task horizon
// (the highest attended task plus one) and the response total (the
// attendance bits set). They are the worker-major transpose of the
// evaluator's per-task attendance and answer columns, which
// RestoreCompact rebuilds by transposing them back. The digest
// (statsDigest, the one a statistics cut reports) checks the rebuilt
// statistics against the ones the checkpoint was cut from. What a compact
// checkpoint deliberately forgets is the arrival ORDER of responses within
// a task — the counters, every decision (intervals, spammer screen,
// duplicate rejection) and all future ingestion are order-independent, so
// a restored evaluator is decision-identical to the original.
type CompactState struct {
	// Responded[w] is worker w's attendance bitset over task indices:
	// little-endian 64-bit words, bit t set when w answered task t.
	// Workers is len(Responded).
	Responded [][]uint64
	// Answers[w] is worker w's answer bitset over task indices: bit set
	// means Yes, clear means No; meaningful only where Responded[w] has
	// the bit set. Same layout as Responded.
	Answers [][]uint64
	// Digest is the statistics digest at the checkpoint cut.
	Digest uint64
}

// CompactCheckpoint snapshots the evaluator in O(statistics) — independent
// of how many responses were ever ingested. Pair it with a write-ahead log
// of the post-checkpoint responses (internal/store) and the evaluator is
// fully recoverable: RestoreCompact rebuilds this exact state, and
// replaying the log tail through the ordinary Add path finishes the job.
// It holds every shard lock while it merges the counters and copies the
// answer words out of the task columns (the same index-order multi-shard
// locking CutStats uses), so the state is one consistent cut even under
// concurrent Add traffic. The digest and the answer bitsets, the
// transpose of those words taken 64 tasks × 64 workers at a time, are
// computed after the locks are released.
func (s *ShardedIncremental) CompactCheckpoint() *CompactState {
	merged, tasks, responses, yes := s.checkpointCut()
	answers := bitRows(s.workers, (tasks+63)/64)
	columnsToRows(answers, yes, s.words, 0)
	responded := make([][]uint64, s.workers)
	for w := range answers {
		answers[w] = trimBitset(answers[w])
		responded[w] = trimBitset(merged.responded[w])
	}
	return &CompactState{
		Responded: responded,
		Answers:   answers,
		Digest:    statsDigest(merged, s.workers, tasks, responses),
	}
}

// checkpointCut merges the shards' statistics into a new, upper-triangle
// streamStats with their totals, and copies every task's answer words out
// task-major: yes[t*words:(t+1)*words] is task t's answer column, zero for
// a task no one answered. It holds every shard lock, taken in index order.
func (s *ShardedIncremental) checkpointCut() (merged *streamStats, tasks, responses int, yes []uint64) {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	defer func() {
		for _, sh := range s.shards {
			sh.mu.Unlock()
		}
	}()
	merged = newStreamStats(s.workers)
	for _, sh := range s.shards {
		merged.addFrom(sh.stats)
		tasks = max(tasks, sh.tasks)
		responses += sh.responses
	}
	yes = make([]uint64, tasks*s.words)
	for _, sh := range s.shards {
		sh.colOf.each(func(t, col int) {
			off := col * 2 * s.words
			copy(yes[t*s.words:(t+1)*s.words], sh.cols[off+s.words:off+2*s.words])
		})
	}
	return merged, tasks, responses, yes
}

// bitRows returns n zeroed rows of the given number of words, carved
// from one allocation; each row's capacity ends where the next begins.
func bitRows(n, words int) [][]uint64 {
	slab := make([]uint64, n*words)
	rows := make([][]uint64, n)
	for i := range rows {
		rows[i] = slab[i*words : (i+1)*words : (i+1)*words]
	}
	return rows
}

// columnsToRows transposes a slab of bit columns into worker-major rows:
// column j is the words cols[j*stride+off:], and bit i of its word b
// becomes bit j of rows[64b+i]. Each row holds one word per 64 columns.
func columnsToRows(rows [][]uint64, cols []uint64, stride, off int) {
	n := len(cols) / stride
	var blk [64]uint64
	for q := 0; 64*q < n; q++ {
		for b := 0; 64*b < len(rows); b++ {
			var set uint64
			for j := range blk {
				blk[j] = 0
				if c := 64*q + j; c < n {
					blk[j] = cols[c*stride+off+b]
					set |= blk[j]
				}
			}
			if set == 0 {
				continue
			}
			transpose64(&blk)
			for i, word := range blk[:min(64, len(rows)-64*b)] {
				rows[64*b+i][q] = word
			}
		}
	}
}

// transpose64 transposes a 64×64 bit matrix in place: bit j of a[i]
// becomes bit i of a[j]. Round s swaps the off-diagonal s×s blocks of
// every 2s×2s block, for s = 32, 16, …, 1 (Hacker's Delight, §7-3).
func transpose64(a *[64]uint64) {
	for s, m := 32, uint64(0x00000000ffffffff); s > 0; s, m = s>>1, m^m<<uint(s>>1) {
		for base := 0; base < 64; base += 2 * s {
			for i := base; i < base+s; i++ {
				t := (a[i]>>uint(s) ^ a[i+s]) & m
				a[i+s] ^= t
				a[i] ^= t << uint(s)
			}
		}
	}
}

// validateCompact checks a compact state's structure — one attendance and
// one answer bitset per worker, answer bits confined to attended tasks —
// and returns the task horizon its attendance reaches. The statistics the
// bitsets derive are checked by the restore, against the state's digest.
// A corrupted or hand-edited checkpoint fails one of the two with a clear
// error instead of skewing every future estimate.
func validateCompact(cs *CompactState) (tasks int, err error) {
	if cs == nil || cs.Responded == nil {
		return 0, fmt.Errorf("core: compact state carries no attendance bitsets")
	}
	if len(cs.Answers) != len(cs.Responded) {
		return 0, fmt.Errorf("core: compact state has %d answer bitsets for %d attendance bitsets", len(cs.Answers), len(cs.Responded))
	}
	for i, ri := range cs.Responded {
		for w, word := range cs.Answers[i] {
			if word&^dynBitset(ri).word(w) != 0 {
				return 0, fmt.Errorf("core: worker %d has answer bits on tasks it never attended", i)
			}
		}
	}
	tasks, _ = attendanceTotals(cs.Responded)
	return tasks, nil
}

// attendanceTotals returns the task horizon and the response total a
// family of attendance bitsets holds: its highest set bit plus one, and
// the number of bits set (every accepted response sets exactly one).
func attendanceTotals(responded [][]uint64) (tasks, responses int) {
	for _, row := range responded {
		for k, word := range row {
			if word != 0 {
				responses += bits.OnesCount64(word)
				tasks = max(tasks, 64*k+64-bits.LeadingZeros64(word))
			}
		}
	}
	return tasks, responses
}

// RestoreCompact installs a compact checkpoint into an empty evaluator.
// It validates the state's structure, then builds each shard directly
// from the payload:
//
//   - each answered task is hashed once into its shard's task mask;
//   - a shard's attendance bitsets are the payload's ANDed with its mask;
//   - its task columns are the bitsets' transpose, 64 tasks × 64 workers
//     at a time, allocated in ascending task order;
//   - its counters are popcounts over its columns, transposed back into
//     bitsets over the shard's own tasks.
//
// The digest of the built shards' merged counters over the payload's
// attendance bitsets must equal the checkpoint's. Only then does the
// restore take every shard lock, in index order, check under those locks
// that the evaluator holds no response, and install the shards. The
// installed shards are the ones replaying the checkpoint's canonical log
// (ascending task, then worker) through Add would build, column offsets
// included, so the evaluator is decision-identical to the one the
// checkpoint was taken from: every future Add pairs correctly against
// pre-checkpoint responders (the bitsets carry who answered what),
// duplicate rejection resumes exactly, and EvaluateAll /
// MajorityDisagreement produce bit-identical results.
//
// A restore racing Adds either refuses, because an Add landed first, or
// lands whole before any of them. On every error the evaluator is left as
// it was.
func (s *ShardedIncremental) RestoreCompact(cs *CompactState) error {
	tasks, err := validateCompact(cs)
	if err != nil {
		return err
	}
	if got, want := s.Workers(), len(cs.Responded); got != want {
		return fmt.Errorf("core: checkpoint covers a %d-worker crowd, evaluator tracks %d", want, got)
	}
	built := s.restoredShards(cs, tasks)
	if got := shardsDigest(built, cs.Responded); got != cs.Digest {
		return fmt.Errorf("core: the statistics the bitsets derive have digest %016x, the checkpoint claims %016x — corrupt or inconsistent compact state", got, cs.Digest)
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	defer func() {
		for _, sh := range s.shards {
			sh.mu.Unlock()
		}
	}()
	held := 0
	for _, sh := range s.shards {
		held += sh.responses
	}
	if held != 0 {
		return fmt.Errorf("core: cannot restore into an evaluator already holding %d responses", held)
	}
	for i, sh := range s.shards {
		b := built[i]
		sh.colOf, sh.cols, sh.stats = b.colOf, b.cols, b.stats
		sh.tasks, sh.responses = b.tasks, b.responses
		sh.epoch += b.epoch
		sh.marks, sh.whole, sh.cutWorkers = b.marks, b.whole, b.cutWorkers
	}
	return nil
}

// shardsDigest is statsDigest of the statistics made of the shards'
// summed counters and the given attendance bitsets, with the totals those
// bitsets hold. It reads each counter pair across the shards in place
// rather than merging them into a new matrix.
func shardsDigest(shards []*incShard, responded [][]uint64) uint64 {
	workers := len(responded)
	tasks, responses := attendanceTotals(responded)
	d := headerTerm(workers, tasks, responses)
	for i := 0; i < workers; i++ {
		for j := i + 1; j < workers; j++ {
			agree, common := 0, 0
			for _, sh := range shards {
				agree += sh.stats.agree[i][j]
				common += sh.stats.common[i][j]
			}
			d += cellTerm(i, j, agree, common)
		}
		for k, word := range responded[i] {
			d += wordTerm(i, k, word)
		}
	}
	return d
}

// restoredShards builds the shards a restore installs, one per shard of s,
// from a validated compact state of s's crowd size whose attendance
// reaches the given task horizon.
func (s *ShardedIncremental) restoredShards(cs *CompactState, tasks int) []*incShard {
	taskWords := (tasks + 63) / 64
	responded := make([][]uint64, s.workers)
	answers := make([][]uint64, s.workers)
	touched := make([]uint64, taskWords) // the tasks with a response
	for w := range responded {
		responded[w] = fitWords(cs.Responded[w], taskWords)
		answers[w] = fitWords(cs.Answers[w], taskWords)
		for k, word := range responded[w] {
			touched[k] |= word
		}
	}
	masks := [][]uint64{touched}
	if len(s.shards) > 1 {
		masks = make([][]uint64, len(s.shards))
		for i := range masks {
			masks[i] = make([]uint64, taskWords)
		}
		for k, word := range touched {
			for ; word != 0; word &= word - 1 {
				j := bits.TrailingZeros64(word)
				masks[s.shardIndex(64*k+j)][k] |= 1 << uint(j)
			}
		}
	}
	shards := make([]*incShard, len(s.shards))
	for i, mask := range masks {
		shards[i] = s.maskedShard(responded, mask)
	}

	// The columns, one task word at a time: att[b][j] and yes[b][j] are
	// attendance and answer word b of task 64k+j.
	att := make([][64]uint64, s.words)
	yes := make([][64]uint64, s.words)
	for k, word := range touched {
		if word == 0 {
			continue
		}
		for b := range att {
			gatherTranspose(&att[b], responded, k, b)
			gatherTranspose(&yes[b], answers, k, b)
		}
		for i, sh := range shards {
			for m := masks[i][k]; m != 0; m &= m - 1 {
				j := bits.TrailingZeros64(m)
				*sh.colOf.slot(64*k + j) = int32(len(sh.cols)/(2*s.words)) + 1
				for b := range att {
					sh.cols = append(sh.cols, att[b][j])
				}
				for b := range yes {
					sh.cols = append(sh.cols, yes[b][j])
				}
			}
		}
	}
	for _, sh := range shards {
		s.columnCounters(sh)
	}
	return shards
}

// maskedShard returns the shard holding the tasks in mask, with its
// counters and columns still to fill: the attendance bitsets masked, and
// trimmed to the length Add's growth leaves, and the totals and epoch a
// replay through Add leaves. Like a new shard, it is read whole by the
// next merge into either slot and by the next cut. Every row of responded
// is one word per mask word.
func (s *ShardedIncremental) maskedShard(responded [][]uint64, mask []uint64) *incShard {
	n := 0
	for _, word := range mask {
		n += bits.OnesCount64(word)
	}
	sh := newIncShard(s.workers)
	sh.cols = make([]uint64, 0, 2*s.words*n)
	for w, row := range responded {
		last := -1
		for k, word := range row {
			if word&mask[k] != 0 {
				last = k
			}
		}
		if last < 0 {
			continue
		}
		b := make(dynBitset, last+1)
		for k := range b {
			b[k] = row[k] & mask[k]
			sh.responses += bits.OnesCount64(b[k])
		}
		sh.stats.responded[w] = b
	}
	for k, word := range mask {
		if word != 0 {
			sh.tasks = 64*k + 64 - bits.LeadingZeros64(word)
		}
	}
	sh.epoch = uint64(sh.responses)
	return sh
}

// columnCounters sets a shard's upper-triangle agree/common counters by
// popcount over its task columns. It transposes the columns back, 64 at a
// time, into worker-major attendance and answer bitsets over the shard's
// own tasks, so each pair takes one pass over ⌈tasks/64⌉ words of the
// shard, not of the whole task horizon.
func (s *ShardedIncremental) columnCounters(sh *incShard) {
	n := len(sh.cols) / (2 * s.words)
	att, yes := bitRows(s.workers, (n+63)/64), bitRows(s.workers, (n+63)/64)
	columnsToRows(att, sh.cols, 2*s.words, 0)
	columnsToRows(yes, sh.cols, 2*s.words, s.words)
	st := sh.stats
	for i := 0; i < s.workers; i++ {
		// Every row has the same length; the reslices let the compiler
		// drop the inner loop's bounds checks.
		ri, yi := att[i], yes[i][:len(att[i])]
		for j := i + 1; j < s.workers; j++ {
			rj, yj := att[j][:len(ri)], yes[j][:len(ri)]
			agree, common := 0, 0
			for k := range ri {
				both := ri[k] & rj[k]
				common += bits.OnesCount64(both)
				agree += bits.OnesCount64(both &^ (yi[k] ^ yj[k]))
			}
			st.agree[i][j], st.common[i][j] = agree, common
		}
	}
}

// gatherTranspose sets blk to the transpose of word k of rows
// 64b…64b+63: bit i of blk[j] becomes bit j of rows[64b+i][k], rows past
// the end reading as zero.
func gatherTranspose(blk *[64]uint64, rows [][]uint64, k, b int) {
	*blk = [64]uint64{}
	var set uint64
	for i, row := range rows[64*b : min(len(rows), 64*b+64)] {
		blk[i] = row[k]
		set |= row[k]
	}
	if set != 0 {
		transpose64(blk)
	}
}

// fitWords returns words cut or zero-padded to exactly n words, aliasing
// them when they are long enough. A validated state's bitsets hold no bit
// past its task horizon, so the cut drops only zero words.
func fitWords(words []uint64, n int) []uint64 {
	if len(words) >= n {
		return words[:n]
	}
	out := make([]uint64, n)
	copy(out, words)
	return out
}
