package core

import (
	"fmt"
	"math/bits"
)

// Digest terms live in separate domains per kind, so a counter pair can
// never cancel an attendance word.
const (
	digestTagHeader uint64 = 0x4353_4448_0000_0001
	digestTagCell   uint64 = 0x4353_4443_0000_0002
	digestTagWord   uint64 = 0x4353_4457_0000_0003
)

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func digestTerm(tag, a, b, c uint64) uint64 {
	return mix64(mix64(mix64(tag^a)^b) ^ c)
}

func headerTerm(workers, tasks, responses int) uint64 {
	return digestTerm(digestTagHeader, uint64(workers), uint64(tasks), uint64(responses))
}

// cellTerm is a counter pair's contribution; an all-zero pair contributes
// nothing.
func cellTerm(i, j, agree, common int) uint64 {
	if agree == 0 && common == 0 {
		return 0
	}
	return digestTerm(digestTagCell, uint64(i)<<32|uint64(j), uint64(agree), uint64(common))
}

// wordTerm is an attendance word's contribution; a zero word contributes
// nothing, so bitset capacity never changes a digest.
func wordTerm(worker, index int, word uint64) uint64 {
	if word == 0 {
		return 0
	}
	return digestTerm(digestTagWord, uint64(worker), uint64(index), word)
}

// statsDigest is the canonical digest of a statistics state: the wrapping
// sum of one mixed term for the dimensions and totals, one per non-zero
// upper-triangle counter pair and one per non-zero attendance word. Equal
// states have equal digests whatever their bitset capacity, and because the
// digest is a sum of per-position terms it updates in O(change) as counters
// grow. It detects accidental divergence, not a forger: it is no
// cryptographic commitment.
func statsDigest(s *streamStats, workers, tasks, responses int) uint64 {
	d := headerTerm(workers, tasks, responses)
	for i := 0; i < workers; i++ {
		ai, ci := s.agree[i], s.common[i]
		for j := i + 1; j < workers; j++ {
			d += cellTerm(i, j, ai[j], ci[j])
		}
		for k, word := range s.responded[i] {
			d += wordTerm(i, k, word)
		}
	}
	return d
}

// StatsDelta is the exact integer difference from an older statistics
// state of one evaluator to a newer one (see CutStats). Counters only grow
// and attendance bits are only ever set, so the difference is a list of
// counter increments and newly set bits, and adding it to the older state
// gives the newer one exactly (StatsAccumulator.ApplyDelta).
type StatsDelta struct {
	// Workers is the crowd size both states are indexed by.
	Workers int
	// Tasks and Responses are the task horizon and response total of the
	// newer state.
	Tasks     int
	Responses int
	// Cells lists the counter pairs that grew, in strictly ascending (I, J)
	// order over the upper triangle.
	Cells []CellDelta
	// Words lists the attendance words that gained bits, in strictly
	// ascending (Worker, Index) order.
	Words []WordDelta
}

// CellDelta is the growth of one upper-triangle counter pair (I < J).
type CellDelta struct {
	I, J   int
	Agree  int // agree increment, 0 ≤ Agree ≤ Common
	Common int // common increment, at least 1
}

// WordDelta is the attendance bits worker Worker gained in bitset word
// Index: new &^ old, never zero.
type WordDelta struct {
	Worker int
	Index  int
	Bits   uint64
}

// Validate checks the structural invariants every delta CutStats produces
// satisfies: cells inside the upper triangle, strictly ascending, with a
// non-zero common increment and an agree increment no larger than it;
// attendance words of in-range workers, strictly ascending, non-zero and
// below the task horizon; and no more newly set bits than the newer state
// holds responses.
func (d *StatsDelta) Validate() error {
	if d.Workers < 3 {
		return fmt.Errorf("core: delta needs at least 3 workers, has %d: %w", d.Workers, ErrInsufficientData)
	}
	if d.Tasks < 0 || d.Responses < 0 {
		return fmt.Errorf("core: delta has negative totals (tasks %d, responses %d)", d.Tasks, d.Responses)
	}
	pi, pj := -1, -1
	for _, c := range d.Cells {
		if c.I < 0 || c.I >= c.J || c.J >= d.Workers {
			return fmt.Errorf("core: delta cell (%d,%d) is outside the upper triangle of a %d-worker crowd", c.I, c.J, d.Workers)
		}
		if c.I < pi || (c.I == pi && c.J <= pj) {
			return fmt.Errorf("core: delta cell (%d,%d) does not follow (%d,%d) in ascending order", c.I, c.J, pi, pj)
		}
		if c.Common < 1 {
			return fmt.Errorf("core: delta cell (%d,%d) has a zero common increment", c.I, c.J)
		}
		if c.Agree < 0 || c.Agree > c.Common {
			return fmt.Errorf("core: delta cell (%d,%d) agree increment %d exceeds common increment %d", c.I, c.J, c.Agree, c.Common)
		}
		pi, pj = c.I, c.J
	}
	words := (d.Tasks + 63) / 64
	set := 0
	pw, pk := -1, -1
	for _, w := range d.Words {
		if w.Worker < 0 || w.Worker >= d.Workers {
			return fmt.Errorf("core: delta word for worker %d of a %d-worker crowd", w.Worker, d.Workers)
		}
		if w.Index < 0 || w.Index >= words {
			return fmt.Errorf("core: delta word %d of worker %d lies past the task horizon %d", w.Index, w.Worker, d.Tasks)
		}
		if w.Worker < pw || (w.Worker == pw && w.Index <= pk) {
			return fmt.Errorf("core: delta word (%d,%d) does not follow (%d,%d) in ascending order", w.Worker, w.Index, pw, pk)
		}
		if w.Bits == 0 {
			return fmt.Errorf("core: delta word (%d,%d) sets no bits", w.Worker, w.Index)
		}
		if rem := d.Tasks % 64; w.Index == words-1 && rem != 0 && w.Bits>>uint(rem) != 0 {
			return fmt.Errorf("core: delta word (%d,%d) sets bits past the task horizon %d", w.Worker, w.Index, d.Tasks)
		}
		set += bits.OnesCount64(w.Bits)
		pw, pk = w.Worker, w.Index
	}
	if set > d.Responses {
		return fmt.Errorf("core: delta sets %d attendance bits, but the state holds only %d responses", set, d.Responses)
	}
	return nil
}

// word returns bitset word k, or 0 past the end.
func (b dynBitset) word(k int) uint64 {
	if k < len(b) {
		return b[k]
	}
	return 0
}

// StatsCut is one cut of an evaluator's statistics (CutStats): the delta
// to the statistics at the cut, and their digest.
type StatsCut struct {
	// Delta is the exact difference from the previous cut, or from the
	// empty state when Reset is set.
	Delta *StatsDelta
	// Reset marks a delta from the empty state: the whole of the
	// statistics at the cut.
	Reset  bool
	Digest uint64
}

// CutStats cuts the evaluator's statistics and returns what a puller
// holding the previous cut needs to reach this one. When cursor is the
// digest of the previous cut, that is the exact delta from the previous
// cut — counter increments and newly set attendance bits, in canonical
// order. Its attendance words are built in O(change): each response
// since the previous cut marked its worker's word in its shard, and only
// the marked words of the marked workers are visited; its counter pairs
// are those with a worker who responded, re-summed across the shards.
// Otherwise (the first cut, a puller holding no state with cursor 0, or a
// cursor naming any other state) it is a reset: the delta from the empty
// state, built by the same code with every word below the horizon of
// every worker visited, as is the whole of a shard restored since the
// previous cut. Either way the cut becomes the base of the next delta as
// soon as it is taken: a puller that never receives it sends a cursor
// that no longer matches and gets a reset next time.
//
// The base belongs to the evaluator, so an evaluator has exactly one cut
// consumer: a second one would receive deltas against the first one's
// cuts. The cut holds every shard lock, in index order, so it is one
// consistent point in time even under concurrent Add, and two cuts never
// interleave.
func (s *ShardedIncremental) CutStats(cursor uint64) (StatsCut, error) {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	defer func() {
		for _, sh := range s.shards {
			sh.mu.Unlock()
		}
	}()
	tasks, responses := 0, 0
	for _, sh := range s.shards {
		tasks = max(tasks, sh.tasks)
		responses += sh.responses
	}
	reset := cursor == 0 || s.base == nil || cursor != s.base.Digest()
	if reset {
		s.base = newStatsAccumulator(s.workers)
	}
	d := s.deltaCutLocked(tasks, responses, reset)
	if err := s.base.ApplyDelta(d); err != nil {
		s.base = nil
		return StatsCut{}, fmt.Errorf("core: statistics cut does not extend its own base: %w", err)
	}
	return StatsCut{Delta: d, Reset: reset, Digest: s.base.Digest()}, nil
}

// deltaCutLocked returns the exact delta from the base to the current
// statistics, leaving the base for the caller to advance; the caller holds
// every shard lock. A delta's new attendance bits are the merged words
// minus the base's, and a word can differ only where some shard marked it
// for the cut (see incShard), so only the workers some shard marked are
// visited, and of each only the marked words: worker by worker, in
// ascending word order, which is the delta's canonical order. A reset, or
// a shard to be read whole, instead has every word below the horizon of
// every worker visited. The cut's marks are then cleared, keeping their
// storage. Cells are visited last, in (i, j) order.
func (s *ShardedIncremental) deltaCutLocked(tasks, responses int, reset bool) *StatsDelta {
	workers, b := s.workers, s.base.stats
	whole := reset
	var marked dynBitset // the workers some shard marked
	for _, sh := range s.shards {
		whole = whole || sh.whole[cutReader]
		marked.orWith(sh.cutWorkers)
	}

	var words []WordDelta
	horizon := (tasks + 63) / 64
	if whole && horizon > 0 {
		// A reset carries nearly every worker's every word.
		words = make([]WordDelta, 0, workers*horizon)
	}
	visit := func(w, k int) {
		var now uint64
		for _, sh := range s.shards {
			now |= sh.stats.responded[w].word(k)
		}
		if old := b.responded[w].word(k); now != old {
			words = append(words, WordDelta{Worker: w, Index: k, Bits: now &^ old})
		}
	}
	var responders []int // workers with a new response, ascending
	var union dynBitset  // the words of one worker some shard marked
	for w := 0; w < workers; w++ {
		n := len(words)
		switch {
		case whole:
			for k := range horizon {
				visit(w, k)
			}
		case marked.get(w):
			union = union[:0]
			for _, sh := range s.shards {
				union.orWith(sh.marks[cutReader][w])
			}
			for x, m := range union {
				for ; m != 0; m &= m - 1 {
					visit(w, x*64+bits.TrailingZeros64(m))
				}
			}
		}
		if len(words) > n {
			responders = append(responders, w)
		}
	}
	for _, sh := range s.shards {
		for x, m := range sh.cutWorkers {
			for ; m != 0; m &= m - 1 {
				w := x*64 + bits.TrailingZeros64(m)
				sh.marks[cutReader][w] = sh.marks[cutReader][w][:0]
			}
		}
		clear(sh.cutWorkers)
		sh.whole[cutReader] = false
	}

	// Counter cells. Only a pair with a responder in it can have grown:
	// visit row i whole when i responded, else only its responder columns.
	var cells []CellDelta
	grow := func(i, j int) {
		agree, common := 0, 0
		for _, sh := range s.shards {
			agree += sh.stats.agree[i][j]
			common += sh.stats.common[i][j]
		}
		if ba, bc := b.agree[i][j], b.common[i][j]; agree != ba || common != bc {
			cells = append(cells, CellDelta{I: i, J: j, Agree: agree - ba, Common: common - bc})
		}
	}
	r := 0 // responders[r:] are ≥ i
	for i := 0; i < workers; i++ {
		if r < len(responders) && responders[r] == i {
			for j := i + 1; j < workers; j++ {
				grow(i, j)
			}
			r++
			continue
		}
		for _, j := range responders[r:] {
			grow(i, j)
		}
	}
	return &StatsDelta{Workers: workers, Tasks: tasks, Responses: responses, Cells: cells, Words: words}
}
