package core

import "crowdassess/internal/cpufeat"

// countRowAVX512 is countRowGo in assembly, eight lanes per ZMM vector:
// per word one VPANDQ, VPOPCNTQ and VPADDQ for each of the four counts,
// with row k1's two words broadcast, and the sums added to counts. It needs AVX512F and
// AVX512VPOPCNTDQ, block of words·2·half words, counts of 4·half, k1 <
// half, and from and half multiples of 8 with from ≤ half.
//
//go:noescape
func countRowAVX512(block []uint64, words, half, k1, from int, counts []int)

// entryRowAVX2 is entryRowGo in assembly, four lanes per YMM vector. Each
// lane gathers the four agreement rows' entries (VPGATHERQQ), converts
// every count to a double exactly (exact for counts below 2⁵¹ in
// magnitude: it adds the bits of 2⁵²+2⁵¹ and subtracts that double), and
// then does lemma4Term's float operations in its order: q = agree/common
// (0 where common is 0), 2q−1 as q+q−1, c3·p·(1−p)·(2q−1) and the
// division by c_{i,j}·c_{i,j′}, zeroed by a mask where any of the three
// counts is 0. The four terms are weighted and added to a zero in entry's
// order, a zeroed term multiplied in as Go does, so an infinite gradient
// still makes the entry NaN. It needs AVX2, the slice lengths entryRowGo
// reads, every index in tri's two first halves inside the four counter
// rows, and from and half multiples of 4 with from ≤ half.
//
//go:noescape
func entryRowAVX2(out []float64, counts, tri []int, grad []float64, agreeA, commonA, agreeB, commonB []int, half, from, cia, cib int, da, db, pI float64)

// countRow runs countRowAVX512 when the CPU has AVX512F and
// AVX512VPOPCNTDQ, else the Go loop.
func countRow(block []uint64, words, half, k1, from int, counts []int) {
	if !cpufeat.AVX512VPOPCNTDQ {
		countRowGo(block, words, half, k1, from, counts)
		return
	}
	if half%8 != 0 || from%8 != 0 || from < 0 || from > half || k1 < 0 || k1 >= half || words < 0 ||
		len(block) < words*2*half || len(counts) < 4*half {
		panic("core: countRow tables out of shape")
	}
	countRowAVX512(block, words, half, k1, from, counts)
}

// entryRow runs entryRowAVX2 when the CPU has AVX2, else the Go loop. It
// checks that every partner index the kernel will gather with lies inside
// the counter rows.
func entryRow(out []float64, counts, tri []int, grad []float64, agreeA, commonA, agreeB, commonB []int, half, from, cia, cib int, da, db, pI float64) {
	if !cpufeat.AVX2 {
		entryRowGo(out, counts, tri, grad, agreeA, commonA, agreeB, commonB, half, from, cia, cib, da, db, pI)
		return
	}
	if half%4 != 0 || from%4 != 0 || from < 0 || from > half ||
		len(out) < half || len(counts) < 4*half || len(tri) < 4*half || len(grad) < 2*half {
		panic("core: entryRow tables out of shape")
	}
	rows := uint(min(len(agreeA), len(commonA), len(agreeB), len(commonB)))
	for _, j := range tri[from:half] {
		if uint(j) >= rows {
			panic("core: entryRow partner outside the counter rows")
		}
	}
	for _, j := range tri[half+from : 2*half] {
		if uint(j) >= rows {
			panic("core: entryRow partner outside the counter rows")
		}
	}
	entryRowAVX2(out, counts, tri, grad, agreeA, commonA, agreeB, commonB, half, from, cia, cib, da, db, pI)
}
