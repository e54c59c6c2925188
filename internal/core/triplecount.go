package core

import (
	"math/bits"

	"crowdassess/internal/mat"
)

// sparsePartners sets the crossover between the two ways tripleCounts
// answers c_{i,j,k}: with p partners in worker i's pairs, the restricted
// count runs when i attended at most p/sparsePartners of the task bits its
// attendance bitset spans (restricts). In the Go loop (gatherRowGo),
// gathering costs a pass over i's words per partner plus one scatter per
// shared task, so it grows with density while the saving shrinks with
// it; and the gather is O(p) per solve where the saving is O(p²), so the
// fewer the partners, the sparser i must be for the gather to pay.
// BenchmarkEvaluateSparse measured the Go loop's crossover near density
// 0.30 at 128 workers (126 partners), near 0.15 at 64 (62), near 0.07 at
// 32 (30) and below 0.03 at 21; p/420 is 0.30, 0.148 and 0.071 at the
// first three. The PEXT kernel's gather costs the same at every density,
// and with it the restricted count ties or beats the full one up to
// density 0.8 at 128 and 64 workers, so there the switch forgoes some of
// the saving above the crossover; the constant stays that of the Go loop,
// which CPUs without the kernel run.
const sparsePartners = 420

// restricts reports whether triplesAuto restricts the counts of a worker
// who attended n of the 64·words task bits its attendance bitset spans and
// has the given number of partners.
func restricts(n, words, partners int) bool {
	return sparsePartners*n <= partners*64*words
}

// tripleMode selects how a solve counts c_{i,j,k}.
type tripleMode int

const (
	// triplesAuto restricts the counts to worker i's tasks when i's
	// attendance is sparse for its partner count (see sparsePartners) and
	// reads the whole horizon otherwise. Every production solve uses it.
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
	// words words per gathered partner, partner j's starting at rowAt[j].
	// Otherwise masks holds pairRows' two scratch rows.
	packed bool
	words  int
	rowAt  []int
	rows   []uint64
	masks  []uint64
}

// init prepares the counts for worker i of an m-worker crowd, gathering a
// row for every worker in partners (each listed at most once) when mode
// restricts. Rows, the partner index and the mask rows come from ws
// scratch.
func (tc *tripleCounts) init(src agreementSource, m, i int, partners []int, mode tripleMode, ws *mat.Workspace) {
	own := src.attendance(i)
	*tc = tripleCounts{src: src, i: i, own: own}
	n := 0
	for _, word := range own {
		n += bits.OnesCount64(word)
	}
	if mode == triplesFull || (mode == triplesAuto && !restricts(n, len(own), len(partners))) {
		tc.masks = ws.GetWords(2 * len(own))
		return
	}
	tc.packed = true
	tc.words = (n + 63) / 64
	tc.rowAt = ws.GetInts(m)
	tc.rows = ws.GetWords(len(partners) * tc.words)
	for k, j := range partners {
		tc.rowAt[j] = k * tc.words
		gatherRow(tc.rows[k*tc.words:(k+1)*tc.words], own, src.attendance(j))
	}
}

// gatherRowGo packs own ∩ other into dst by rank within own: bit r of dst
// is set when the task behind own's r-th set bit is also set in other. The
// bitsets may differ in length; missing words are zero. dst must be zeroed
// and hold at least ⌈|own|/64⌉ words. It is gatherRow's portable form and
// the reference its PEXT kernel is tested against: one scatter per shared
// task, behind a branch on each.
func gatherRowGo(dst, own, other []uint64) {
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
	a := tc.row(j)
	return and2Count(a, tc.row(k)[:len(a)])
}

// row returns the row common3Block reads for the partner j of a later
// triple: its gathered row when the counts are restricted, else its
// attendance bitset.
func (tc *tripleCounts) row(j int) []uint64 {
	if tc.packed {
		return tc.rows[tc.rowAt[j]:][:tc.words]
	}
	return tc.src.attendance(j)
}

// pairRows returns the rows common3Block reads for the partners a and b
// of an earlier triple: their gathered rows when the counts are
// restricted, else own ∧ attendance(a) and own ∧ attendance(b), written
// into two scratch rows that the next call overwrites. With them each
// count ANDs two words, not three. Masking every partner once per solve
// instead would copy all their bitsets into scratch, which slowed worker
// queries on a dense 64-worker crowd of 100 000 tasks served while it
// ingested (docs/performance.md).
func (tc *tripleCounts) pairRows(a, b int) (ra, rb []uint64) {
	if tc.packed {
		return tc.row(a), tc.row(b)
	}
	ra, rb = tc.masks[:len(tc.own)], tc.masks[len(tc.own):]
	maskRow(ra, tc.own, tc.src.attendance(a))
	maskRow(rb, tc.own, tc.src.attendance(b))
	return ra, rb
}

// maskRow writes own ∩ other into dst, which has len(own) words; words
// other lacks are zero.
func maskRow(dst, own, other []uint64) {
	n := min(len(own), len(other))
	for w, o := range own[:n] {
		dst[w] = o & other[w]
	}
	clear(dst[n:])
}

// common3Block returns the four counts c_{i,a,x}, c_{i,a,y}, c_{i,b,x}
// and c_{i,b,y} that the Lemma 4 entry of triples (i, a, b) and (i, x, y)
// needs, in one pass over ra and rb (from pairRows, one length) and rx
// and ry (from row, possibly shorter or longer; missing words are zero).
// Four and2Count passes would do the same popcounts, but they read rx
// and ry twice, and on the dense crowd pairRows describes they slowed
// the queries (docs/performance.md). The words all four rows have go to
// common3Words, which is an assembly kernel on amd64 with POPCNT.
func common3Block(ra, rb, rx, ry []uint64) (ax, ay, bx, by int) {
	n := min(len(ra), len(rx), len(ry))
	ax, ay, bx, by = common3Words(ra[:n], rb[:n], rx[:n], ry[:n])
	if n < len(ra) {
		// rx or ry ends first; the other may go on.
		ra, rb = ra[n:], rb[n:]
		ax += and2Count(ra, rx[n:])
		ay += and2Count(ra, ry[n:])
		bx += and2Count(rb, rx[n:])
		by += and2Count(rb, ry[n:])
	}
	return ax, ay, bx, by
}

// common3WordsGo returns |a∩x|, |a∩y|, |b∩x| and |b∩y| over len(a)
// words; b, x and y must be at least as long. It is the portable form of
// common3Words and the reference its assembly kernel is tested against.
func common3WordsGo(a, b, x, y []uint64) (ax, ay, bx, by int) {
	b, x, y = b[:len(a)], x[:len(a)], y[:len(a)]
	for w, wa := range a {
		wb, wx, wy := b[w], x[w], y[w]
		ax += bits.OnesCount64(wa & wx)
		ay += bits.OnesCount64(wa & wy)
		bx += bits.OnesCount64(wb & wx)
		by += bits.OnesCount64(wb & wy)
	}
	return ax, ay, bx, by
}

// and2Count returns |a ∩ b| over the words both bitsets have.
func and2Count(a, b []uint64) int {
	n := min(len(a), len(b))
	a, b = a[:n], b[:n]
	total := 0
	for i := range a {
		total += bits.OnesCount64(a[i] & b[i])
	}
	return total
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
