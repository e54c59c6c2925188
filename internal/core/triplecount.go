package core

import (
	"math/bits"

	"crowdassess/internal/mat"
)

// sparseAttendance is the crossover between the two ways tripleCounts
// answers c_{i,j,k}: the restricted count runs when worker i attended at
// most 1/sparseAttendance of the task bits its attendance bitset spans.
// Gathering costs a pass over i's words per partner plus one scatter per
// shared task, so it grows with density while the saving shrinks with it;
// and the gather is O(m) per solve where the saving is O(m²), so small
// crowds gain less. BenchmarkEvaluateSparse measures the crossover at
// m = 128, where the restricted solve stays ahead to about density 0.4;
// a quarter keeps a margin for smaller crowds.
const sparseAttendance = 4

// tripleMode selects how a solve counts c_{i,j,k}.
type tripleMode int

const (
	// triplesAuto restricts the counts to worker i's tasks when i's
	// attendance is sparse (see sparseAttendance) and reads the whole
	// horizon otherwise. Every production solve uses it.
	triplesAuto tripleMode = iota
	// triplesRestricted always gathers; triplesFull never does. Tests and
	// benchmarks pin the two paths with them.
	triplesRestricted
	triplesFull
)

// tripleCounts answers Lemma 4's triple common-task counts c_{i,j,k} for
// the one worker i a solve evaluates. Every count it is asked for has i
// in it, and c_{i,j,k} only depends on the tasks in R_i, the set i
// attended. So for a sparse worker it first gathers, for each partner j
// in one of i's pairs, the tasks i and j share, packed by their rank
// within R_i into a row of ⌈|R_i|/64⌉ words; c_{i,j,k} is then a two-way
// popcount over two such rows, where the full-horizon count ANDs three
// bitsets over every task. The counts are integers either way, so the
// path never changes an interval.
type tripleCounts struct {
	src agreementSource
	i   int
	own []uint64 // src.attendance(i)

	// packed selects the restricted count. rows then holds one row of
	// words words per gathered partner, partner j's starting at row[j].
	packed bool
	words  int
	row    []int
	rows   []uint64
}

// init prepares the counts for worker i of an m-worker crowd, gathering a
// row for every worker in partners (each listed at most once) when mode
// restricts. Rows and the partner index come from ws scratch.
func (tc *tripleCounts) init(src agreementSource, m, i int, partners []int, mode tripleMode, ws *mat.Workspace) {
	own := src.attendance(i)
	*tc = tripleCounts{src: src, i: i, own: own}
	n := 0
	for _, word := range own {
		n += bits.OnesCount64(word)
	}
	if mode == triplesFull || (mode == triplesAuto && sparseAttendance*n > 64*len(own)) {
		return
	}
	tc.packed = true
	tc.words = (n + 63) / 64
	tc.row = ws.GetInts(m)
	tc.rows = ws.GetWords(len(partners) * tc.words)
	for k, j := range partners {
		tc.row[j] = k * tc.words
		gatherRow(tc.rows[k*tc.words:(k+1)*tc.words], own, src.attendance(j))
	}
}

// gatherRow packs own ∩ other into dst by rank within own: bit r of dst is
// set when the task behind own's r-th set bit is also set in other. The
// bitsets may differ in length; missing words are zero. dst must be zeroed
// and hold at least ⌈|own|/64⌉ words.
func gatherRow(dst, own, other []uint64) {
	rank := 0 // set bits of own before word w
	for w, a := range own[:min(len(own), len(other))] {
		for x := a & other[w]; x != 0; x &= x - 1 {
			r := rank + bits.OnesCount64(a&(x&-x-1))
			dst[r>>6] |= 1 << (r & 63)
		}
		rank += bits.OnesCount64(a)
	}
}

// common3 returns c_{i,j,k}.
func (tc *tripleCounts) common3(j, k int) int {
	if !tc.packed {
		return and3Count(tc.own, tc.src.attendance(j), tc.src.attendance(k))
	}
	a := tc.rows[tc.row[j]:][:tc.words]
	b := tc.rows[tc.row[k]:][:len(a)]
	n := 0
	for w, x := range a {
		n += bits.OnesCount64(x & b[w])
	}
	return n
}

// and3Count returns |a ∩ b ∩ c| over the words all three bitsets have.
func and3Count(a, b, c []uint64) int {
	n := min(len(a), len(b), len(c))
	a, b, c = a[:n], b[:n], c[:n]
	total := 0
	for i := range a {
		total += bits.OnesCount64(a[i] & b[i] & c[i])
	}
	return total
}
