package core

import (
	"fmt"
	"math"
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

// StatsCut is one cut of an evaluator's statistics (CutStats): exactly one
// of Delta and Full is set, and Digest is the digest of the statistics at
// the cut either way.
type StatsCut struct {
	// Delta is the exact difference from the previous cut.
	Delta *StatsDelta
	// Full is the whole of the statistics at the cut.
	Full   *StatsExport
	Digest uint64
}

// cutBase is what the next delta needs of the last cut: the upper-triangle
// counters (row i holds pair (i, j) at index j-i-1), the totals and the
// digest. Attendance words need no base: every response sets exactly one
// new bit, so a delta's words are its new responses.
type cutBase struct {
	agree, common    [][]int
	tasks, responses int
	digest           uint64
}

func newCutBase(workers int) *cutBase {
	b := &cutBase{agree: make([][]int, workers), common: make([][]int, workers)}
	cells := make([]int, workers*(workers-1))
	for i := range b.agree {
		n := workers - i - 1
		b.agree[i], cells = cells[:n:n], cells[n:]
		b.common[i], cells = cells[:n:n], cells[n:]
	}
	return b
}

// CutStats cuts the evaluator's statistics and returns what a puller
// holding the previous cut needs to reach this one. When resume is set and
// cursor is the digest of the previous cut, that is the exact delta from the
// previous cut — counter increments and newly set attendance bits, in
// canonical order — built in O(change): only the tasks that gained
// responses since the previous cut are visited, and only the counter pairs
// of the workers who gave those responses are re-summed. Otherwise (the
// first cut, a puller holding no state, or a cursor naming any other state)
// it is the full statistics. Either way the cut becomes the base of the
// next delta as soon as it is taken: a puller that never receives it sends
// a cursor that no longer matches and gets the full statistics next time.
//
// The base belongs to the evaluator, so an evaluator has exactly one cut
// consumer: a second one would receive deltas against the first one's
// cuts. The cut holds every shard lock, in index order, so it is one
// consistent point in time even under concurrent Add, and two cuts never
// interleave.
func (s *ShardedIncremental) CutStats(cursor uint64, resume bool) StatsCut {
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
	if !resume || s.base == nil || cursor != s.base.digest {
		return s.fullCutLocked(tasks, responses)
	}
	return s.deltaCutLocked(tasks, responses)
}

// fullCutLocked merges every shard into fresh statistics, makes them the
// base of the next delta and returns them whole; the caller holds every
// shard lock.
func (s *ShardedIncremental) fullCutLocked(tasks, responses int) StatsCut {
	m := newStreamStats(s.workers, false)
	for _, sh := range s.shards {
		m.addFrom(sh.stats)
		if !sh.tracking {
			// The first cut: no dirty list was kept, so mark every task.
			for _, rs := range sh.taskResponses {
				rs[len(rs)-1].cut = true
			}
			sh.tracking = true
		}
		for _, t := range sh.dirty {
			rs := sh.taskResponses[t]
			rs[len(rs)-1].cut = true
		}
		sh.dirty = sh.dirty[:0]
	}
	if s.base == nil {
		s.base = newCutBase(s.workers)
	}
	b := s.base
	for i := range b.agree {
		copy(b.agree[i], m.agree[i][i+1:])
		copy(b.common[i], m.common[i][i+1:])
	}
	b.tasks, b.responses = tasks, responses
	b.digest = statsDigest(m, s.workers, tasks, responses)
	// m is private to this cut, so the export takes its slices uncopied.
	full := &StatsExport{
		Workers:   s.workers,
		Tasks:     tasks,
		Responses: responses,
		Agree:     m.agree,
		Common:    m.common,
		Responded: make([][]uint64, s.workers),
	}
	for i, words := range m.responded {
		full.Responded[i] = words
	}
	return StatsCut{Full: full, Digest: b.digest}
}

// deltaCutLocked returns the exact delta from the base to the current
// statistics, deriving the new digest from the base's in O(change), and
// advances the base; the caller holds every shard lock. No step sorts:
// the dirty tasks are visited in ascending order through a bitset over
// their span, each word of which is one attendance word of the delta;
// words are then bucketed per worker, and cells visited in (i, j) order.
func (s *ShardedIncremental) deltaCutLocked(tasks, responses int) StatsCut {
	workers, b := s.workers, s.base
	lo, hi := math.MaxInt, -1
	for _, sh := range s.shards {
		for _, t := range sh.dirty {
			lo, hi = min(lo, t), max(hi, t)
		}
	}
	first := lo / 64 // the attendance word span[0] stands for
	var span dynBitset
	if hi >= 0 {
		span = make(dynBitset, hi/64-first+1)
	}
	for _, sh := range s.shards {
		for _, t := range sh.dirty {
			span.set(t - first*64)
		}
		sh.dirty = sh.dirty[:0]
	}
	change := headerTerm(workers, tasks, responses) - headerTerm(workers, b.tasks, b.responses)

	// Attendance words, in (index, worker) order first: gained[w]
	// collects worker w's new bits within the current word. Every new
	// response sets one bit, so there are at most as many words as new
	// responses; pairs bounds the cells by the new co-responder pairs.
	gained := make([]uint64, workers)
	var touched []int
	byIndex := make([]WordDelta, 0, min(responses-b.responses, workers*len(span)))
	next := make([]int, workers+1) // per-worker word counts, then offsets
	pairs := 0
	for x, dirtyWord := range span {
		k := first + x
		for ; dirtyWord != 0; dirtyWord &= dirtyWord - 1 {
			bit := bits.TrailingZeros64(dirtyWord)
			t := k*64 + bit
			// The responses the previous cut did not cover follow the
			// newest marked one; mark the newest of all for this cut.
			rs := s.shardOf(t).taskResponses[t]
			covered := len(rs)
			for ; covered > 0 && !rs[covered-1].cut; covered-- {
				w := int(rs[covered-1].worker)
				if gained[w] == 0 {
					touched = append(touched, w)
				}
				gained[w] |= 1 << uint(bit)
			}
			rs[len(rs)-1].cut = true
			pairs += (len(rs)*(len(rs)-1) - covered*(covered-1)) / 2
		}
		for _, w := range touched {
			byIndex = append(byIndex, WordDelta{Worker: w, Index: k, Bits: gained[w]})
			next[w+1]++
			gained[w] = 0
		}
		touched = touched[:0]
	}
	var responders []int // workers with a new response, ascending
	for w := 0; w < workers; w++ {
		if next[w+1] > 0 {
			responders = append(responders, w)
		}
		next[w+1] += next[w]
	}
	var words []WordDelta
	if len(byIndex) > 0 {
		words = make([]WordDelta, len(byIndex))
	}
	for _, wd := range byIndex {
		words[next[wd.Worker]] = wd
		next[wd.Worker]++
	}
	for _, wd := range words {
		var now uint64
		for _, sh := range s.shards {
			now |= sh.stats.responded[wd.Worker].word(wd.Index)
		}
		change += wordTerm(wd.Worker, wd.Index, now) - wordTerm(wd.Worker, wd.Index, now&^wd.Bits)
	}

	// Counter cells. Only a pair with a responder in it can have grown:
	// visit row i whole when i responded, else only its responder columns.
	// Every new co-responder pair grows its cell, so cells stays nil
	// exactly when pairs is 0.
	var cells []CellDelta
	if pairs > 0 {
		cells = make([]CellDelta, 0, min(pairs, workers*(workers-1)/2))
	}
	grow := func(i, j int) {
		agree, common := 0, 0
		for _, sh := range s.shards {
			agree += sh.stats.agree[i][j]
			common += sh.stats.common[i][j]
		}
		ba, bc := &b.agree[i][j-i-1], &b.common[i][j-i-1]
		if agree == *ba && common == *bc {
			return
		}
		cells = append(cells, CellDelta{I: i, J: j, Agree: agree - *ba, Common: common - *bc})
		change += cellTerm(i, j, agree, common) - cellTerm(i, j, *ba, *bc)
		*ba, *bc = agree, common
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

	b.tasks, b.responses = tasks, responses
	b.digest += change
	d := &StatsDelta{Workers: workers, Tasks: tasks, Responses: responses, Cells: cells, Words: words}
	return StatsCut{Delta: d, Digest: b.digest}
}
