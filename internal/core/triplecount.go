package core

import (
	"math/bits"

	"crowdassess/internal/cpufeat"
	"crowdassess/internal/mat"
)

// sparsePartners sets the crossover between the two ways tripleCounts
// answers c_{i,j,k}: with p partners in worker i's pairs, the restricted
// count runs when i attended at most p/sparsePartners of the task bits its
// attendance bitset spans (restricts). The restricted count pays a gather
// per partner to shrink every partner row to i's tasks; the full-horizon
// count keeps i's non-zero words whole. The gather is O(p) per solve where
// the saving is O(p²), so the fewer the partners, the sparser i must be
// for the gather to pay. How much sparser depends mostly on the gather,
// so the constant is chosen once per process: sparsePartnersPEXT where
// the gather is the PEXT kernel (cpufeat.FastPEXT), else
// sparsePartnersGo. BenchmarkEvaluateSparse holds the tables behind both.
var sparsePartners = sparsePartnersFor(cpufeat.FastPEXT)

const (
	// sparsePartnersPEXT: with the PEXT gather, BenchmarkEvaluateSparse
	// puts the crossover near density 0.65 at 64 workers (62 partners),
	// where 62/95 = 0.65, and at or above 0.8 at 128 (126 partners), with
	// the VPOPCNTQ counts; with the per-entry POPCNT counts the restricted
	// count still ties or wins at 0.8 on both shapes. With the VPOPCNTQ
	// counts, the same benchmark on 32 workers over 24 000 tasks puts it
	// near 0.62 and on 21 workers over 2 000 near 0.45, so the partner
	// scaling of restricts does not fit small crowds: their switch (p/95 =
	// 0.32 and 0.21) runs the full count between those densities, up to
	// 1.5× the restricted one at 32 workers and density 0.4.
	sparsePartnersPEXT = 95
	// sparsePartnersGo: the Go gather costs a pass over i's words per
	// partner plus one scatter per shared task, so it grows with density
	// while the saving shrinks with it. BenchmarkEvaluateSparse puts the
	// crossover near density 0.30 at 128 workers and near 0.15 at 64, and
	// an older run of it near 0.07 at 32; p/420 is 0.30, 0.148 and 0.071
	// there.
	sparsePartnersGo = 420
)

// sparsePartnersFor returns sparsePartners for a CPU whose gather is the
// PEXT kernel (pext) or the Go loop.
func sparsePartnersFor(pext bool) int {
	if pext {
		return sparsePartnersPEXT
	}
	return sparsePartnersGo
}

// restricts reports whether triplesAuto restricts the counts of a worker
// who attended n of the 64·words task bits its attendance bitset spans and
// has the given number of partners.
func restricts(n, words, partners int) bool {
	return restrictsAt(sparsePartners, n, words, partners)
}

// restrictsAt is restricts at the given sparsePartners.
func restrictsAt(per, n, words, partners int) bool {
	return per*n <= partners*64*words
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
	packed bool
	words  int
	rowAt  []int
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
	if mode == triplesFull || (mode == triplesAuto && !restricts(n, len(own), len(partners))) {
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

// row returns partner j's gathered row when the counts are restricted,
// else its attendance bitset. It is the row common3Block reads for the
// partner of a later triple.
func (tc *tripleCounts) row(j int) []uint64 {
	if tc.packed {
		return tc.rows[tc.rowAt[j]:][:tc.words]
	}
	return tc.src.attendance(j)
}

// pairRows returns the rows common3Block reads for the partners a and b
// of an earlier triple: their gathered rows when the counts are
// restricted, else own ∧ attendance(a) and own ∧ attendance(b), written
// into masks, 2·len(own) words of scratch that the next call overwrites.
// With them each count ANDs two words, not three.
func (tc *tripleCounts) pairRows(a, b int, masks []uint64) (ra, rb []uint64) {
	if tc.packed {
		return tc.row(a), tc.row(b)
	}
	ra, rb = masks[:len(tc.own)], masks[len(tc.own):][:len(tc.own)]
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
// and ry twice. The words all four rows have go to common3Words, which is
// an assembly kernel on amd64 with POPCNT.
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

// blockWords writes into words, which must hold len(tc.own) ints, the
// word of every row putLane reads, and returns it cut to their number:
// all of a gathered row's words when restricted, else own's non-zero
// words, since a word i did not attend adds nothing to any count.
func (tc *tripleCounts) blockWords(words []int) []int {
	words = words[:0]
	if tc.packed {
		for w := range tc.words {
			words = append(words, w)
		}
		return words
	}
	for w, o := range tc.own {
		if o != 0 {
			words = append(words, w)
		}
	}
	return words
}

// putLane writes partner j's row at the given words (from blockWords)
// into lane lane of a word-major block of stride words per row, one row
// per word: its gathered row when the counts are restricted, else own ∧
// attendance(j). Each word of it ANDed with another partner's and
// popcounted adds up to c_{i,j,k}.
func (tc *tripleCounts) putLane(block []uint64, stride, lane, j int, words []int) {
	row := tc.row(j)
	if tc.packed {
		for r, w := range words {
			block[r*stride+lane] = row[w]
		}
		return
	}
	for r, w := range words {
		var x uint64
		if w < len(row) {
			x = tc.own[w] & row[w]
		}
		block[r*stride+lane] = x
	}
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
