package core

import (
	"math/bits"

	"crowdassess/internal/cpufeat"
)

// blockCounts selects how Lemma4Cov.MaterializeInto counts: over the
// word-major block below where the CPU runs the VPOPCNTQ kernel, else
// entry by entry with common3Block. Scalar counts over the block's
// strided lanes ran at half the per-entry kernel's speed or worse
// (BenchmarkEvaluateSparse, docs/performance.md).
var blockCounts = cpufeat.AVX512VPOPCNTDQ

// Materializing Lemma 4's covariance runs row by row, and each row k1 of
// the upper triangle takes two kinds of call: countRow adds up the four
// triple overlaps of every later entry over a block of words, and
// entryRow turns them into entries. Both read per-solve tables laid out
// in lanes, one lane per triple k, in a "half" of h lanes, h being the
// triple count rounded up to a multiple of 8; lanes past the last triple
// are zero padding:
//
//   - block, word-major: one word of every partner row per block row,
//     the triples' first partners (j1) in lanes [0, h) of block[r·2h:]
//     and their second partners (j2) in lanes [h, 2h). A partner row is a
//     gathered row of the restricted counts or own ∧ attendance on the
//     full horizon, so two rows' popcount is c_{i,j,j′} either way; a
//     block holds at most lemma4Chunk of its words.
//   - tri: j1 | j2 | c_{i,j1} | c_{i,j2}, four halves of ints.
//   - grad: ∂p_i/∂q_{i,j1} | ∂p_i/∂q_{i,j2}, two halves of floats.
//   - counts, row k1's sums: c_{i,a,x} | c_{i,a,y} | c_{i,b,x} |
//     c_{i,b,y} for row k1's partners a, b and each lane's x, y.
//
// The row calls start at a lane from at or below k1+1, a multiple of 8 for
// countRow and of 4 for entryRow, and run to h, so the amd64 kernels
// work in whole vectors; the lanes before k1+1 and past the last triple
// come out as values nobody reads.

// countRowGo adds to counts, for every lane k in [from, half), the
// overlaps of row k1's two partner rows (lanes k1 and half+k1 of block)
// with lane k's (lanes k and half+k) over words words, so a row's counts
// can be summed over blocks of words. It is countRow's portable form and
// the reference its kernel is tested against.
func countRowGo(block []uint64, words, half, k1, from int, counts []int) {
	ax, ay := counts[from:half], counts[half+from:2*half]
	bx, by := counts[2*half+from:3*half], counts[3*half+from:4*half]
	stride := 2 * half
	for w := range words {
		row := block[w*stride:][:stride]
		a, b := row[k1], row[half+k1]
		xs, ys := row[from:half], row[half+from:]
		ys, ay, bx, by = ys[:len(xs)], ay[:len(xs)], bx[:len(xs)], by[:len(xs)]
		for k, x := range xs {
			y := ys[k]
			ax[k] += bits.OnesCount64(a & x)
			ay[k] += bits.OnesCount64(a & y)
			bx[k] += bits.OnesCount64(b & x)
			by[k] += bits.OnesCount64(b & y)
		}
	}
}

// entryRowGo writes into out, for every lane k in [from, half), the
// Lemma 4 entry between row k1's triple (i, a, b) and lane k's: entry's
// four lemma4Term values in entry's order, weighted by the gradients da,
// db of row k1 and grad's of lane k. agreeA, commonA, agreeB and commonB
// are a's and b's counter rows, and cia, cib are c_{i,a} and c_{i,b}. It
// is entryRow's portable form and the reference its kernel is tested
// against.
func entryRowGo(out []float64, counts, tri []int, grad []float64, agreeA, commonA, agreeB, commonB []int, half, from, cia, cib int, da, db, pI float64) {
	for k := from; k < half; k++ {
		x, y := tri[k], tri[half+k]
		cix, ciy := tri[2*half+k], tri[3*half+k]
		dx, dy := grad[k], grad[half+k]
		var v float64
		v += da * dx * lemma4Term(counts[k], pI, agreeA[x], commonA[x], cia, cix)
		v += da * dy * lemma4Term(counts[half+k], pI, agreeA[y], commonA[y], cia, ciy)
		v += db * dx * lemma4Term(counts[2*half+k], pI, agreeB[x], commonB[x], cib, cix)
		v += db * dy * lemma4Term(counts[3*half+k], pI, agreeB[y], commonB[y], cib, ciy)
		out[k] = v
	}
}
