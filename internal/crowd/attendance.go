package crowd

import "math/bits"

// Attendance is a bitset index over the dataset's responses: per worker, a
// bitset of attempted tasks plus one bitset per response class. The
// m-worker algorithm (A2) needs pairwise agreement statistics and triple
// common-task counts for every pair of triples it aggregates; word-wise
// popcounts make those counts O(tasks/64) per class instead of a branchy
// O(tasks) scan per pair.
type Attendance struct {
	tasks int
	words int
	arity int
	sets  [][]uint64 // per worker: attempted-task bitset
	class [][]uint64 // per worker*arity: tasks answered with that class
}

// Attendance builds the bitset index for the dataset's current responses.
// The index is a snapshot: it does not track later mutations.
func (d *Dataset) Attendance() *Attendance {
	words := (d.numTasks + 63) / 64
	a := &Attendance{
		tasks: d.numTasks,
		words: words,
		arity: d.arity,
		sets:  make([][]uint64, d.numWorkers),
		class: make([][]uint64, d.numWorkers*d.arity),
	}
	// One backing array for all bitsets keeps them cache-adjacent.
	backing := make([]uint64, d.numWorkers*(d.arity+1)*words)
	for w := 0; w < d.numWorkers; w++ {
		bs := backing[:words:words]
		backing = backing[words:]
		row := d.resp[w*d.numTasks : (w+1)*d.numTasks]
		cls := make([][]uint64, d.arity)
		for c := 0; c < d.arity; c++ {
			cls[c] = backing[:words:words]
			backing = backing[words:]
		}
		for t, r := range row {
			if r != None {
				bit := uint64(1) << (uint(t) % 64)
				bs[t/64] |= bit
				cls[int(r)-1][t/64] |= bit
			}
		}
		a.sets[w] = bs
		copy(a.class[w*d.arity:(w+1)*d.arity], cls)
	}
	return a
}

// Count returns the number of tasks worker w attempted.
func (a *Attendance) Count(w int) int {
	n := 0
	for _, word := range a.sets[w] {
		n += bits.OnesCount64(word)
	}
	return n
}

// Attempted returns worker w's attempted-task bitset: bit t of word t/64 is
// set when w answered task t. The slice is the index's own storage, shared
// with every caller; it must not be modified.
func (a *Attendance) Attempted(w int) []uint64 { return a.sets[w] }

// Common2 returns c_{i,j}: tasks attempted by both workers.
func (a *Attendance) Common2(i, j int) int {
	bi, bj := a.sets[i], a.sets[j]
	n := 0
	for w := 0; w < a.words; w++ {
		n += bits.OnesCount64(bi[w] & bj[w])
	}
	return n
}

// Common3 returns c_{i,j,k}: tasks attempted by all three workers.
func (a *Attendance) Common3(i, j, k int) int {
	bi, bj, bk := a.sets[i], a.sets[j], a.sets[k]
	n := 0
	for w := 0; w < a.words; w++ {
		n += bits.OnesCount64(bi[w] & bj[w] & bk[w])
	}
	return n
}

// Pair returns the agreement statistics for workers i and j by popcount:
// Common from the attendance intersection and Agree from the per-class
// intersections (two workers agree on a task exactly when some class
// bitset contains it for both).
func (a *Attendance) Pair(i, j int) PairStats {
	var st PairStats
	bi, bj := a.sets[i], a.sets[j]
	for w := 0; w < a.words; w++ {
		st.Common += bits.OnesCount64(bi[w] & bj[w])
	}
	ci := a.class[i*a.arity : (i+1)*a.arity]
	cj := a.class[j*a.arity : (j+1)*a.arity]
	for c := 0; c < a.arity; c++ {
		bic, bjc := ci[c], cj[c]
		for w := 0; w < a.words; w++ {
			st.Agree += bits.OnesCount64(bic[w] & bjc[w])
		}
	}
	return st
}

// PairMatrix returns the full m×m table of pairwise statistics, computed
// from the bitsets. Entry (i,j) equals entry (j,i); the diagonal holds each
// worker's self-agreement.
func (a *Attendance) PairMatrix() [][]PairStats {
	m := len(a.sets)
	out := make([][]PairStats, m)
	rows := make([]PairStats, m*m)
	for i := range out {
		out[i] = rows[i*m : (i+1)*m : (i+1)*m]
	}
	for i := 0; i < m; i++ {
		for j := i; j < m; j++ {
			st := a.Pair(i, j)
			out[i][j] = st
			out[j][i] = st
		}
	}
	return out
}
