package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"crowdassess/internal/crowd"
	"crowdassess/internal/mat"
	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
)

// sameFloat reports whether a and b have the same bits, or are both NaN.
// Go leaves the operand order of a commutative float operation to the
// compiler, and x86 returns the first operand's payload when both are
// NaN, so two compiled forms of one expression, entry and entryRowGo
// among them, may give NaNs of different payloads: the payload is not
// part of the contract, every other bit is.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// countRowNaive is countRowGo bit by bit: the reference neither the Go
// loop nor the kernel shares code with.
func countRowNaive(block []uint64, words, half, k1, from int) []int {
	counts := make([]int, 4*half)
	stride := 2 * half
	for k := from; k < half; k++ {
		for w := range words {
			row := block[w*stride:]
			for q, pair := range [4][2]uint64{{row[k1], row[k]}, {row[k1], row[half+k]}, {row[half+k1], row[k]}, {row[half+k1], row[half+k]}} {
				counts[q*half+k] += andNaive([]uint64{pair[0]}, []uint64{pair[1]})
			}
		}
	}
	return counts
}

// checkCountRow holds count to the Go loop and the bit-by-bit count on
// every lane in [from, half): both must add the count to what counts held
// and leave the lanes before from as they were.
func checkCountRow(t *testing.T, name string, count func(block []uint64, words, half, k1, from int, counts []int), block []uint64, words, half, k1, from int) {
	t.Helper()
	const base = 5
	got, goLoop := make([]int, 4*half), make([]int, 4*half)
	for i := range got {
		got[i], goLoop[i] = base, base
	}
	count(block, words, half, k1, from, got)
	countRowGo(block, words, half, k1, from, goLoop)
	want := countRowNaive(block, words, half, k1, from)
	for q := range 4 {
		for k := range half {
			i := q*half + k
			if got[i]-base != want[i] || goLoop[i]-base != want[i] {
				t.Fatalf("%s words=%d half=%d k1=%d from=%d: count %d lane %d adds %d, Go loop %d, bit by bit %d", name, words, half, k1, from, q, k, got[i]-base, goLoop[i]-base, want[i])
			}
		}
	}
}

// countCases calls f on word-major blocks of 0–70 words and 8–32 lanes a
// half at densities from sparse to full, for several rows k1 and every
// tile start at or below k1+1.
func countCases(f func(block []uint64, words, half, k1, from int)) {
	src := randx.NewSource(41)
	for _, words := range []int{0, 1, 2, 3, 7, 70} {
		for _, half := range []int{8, 16, 32} {
			for _, density := range []float64{0.03, 0.5, 0.97} {
				block := randomWords(src, words*2*half, density)
				for _, k1 := range []int{0, 1, 7, half / 2, half - 1} {
					for from := 0; from <= k1+1 && from <= half; from += 8 {
						f(block, words, half, k1, from)
					}
				}
			}
		}
	}
}

// TestCountRowMatchesGo holds countRow (the VPOPCNTQ kernel on amd64 CPUs
// with AVX-512 VPOPCNTDQ) and its Go loop to a bit-by-bit count.
func TestCountRowMatchesGo(t *testing.T) {
	countCases(func(block []uint64, words, half, k1, from int) {
		checkCountRow(t, "countRow", countRow, block, words, half, k1, from)
	})
}

// wholeBlock lays the triples (j1[k], j2[k]) of tc's worker out in a
// word-major block of every word blockWords lists, as one chunk of
// MaterializeInto's would be, and returns it with its row count and
// half.
func wholeBlock(tc *tripleCounts, j1, j2 []int) (block []uint64, words, half int) {
	l := len(j1)
	half = (l + 7) &^ 7
	rows := tc.blockWords(make([]int, len(tc.own)))
	block = make([]uint64, len(rows)*2*half)
	for k := range l {
		tc.putLane(block, 2*half, k, j1[k], rows)
		tc.putLane(block, 2*half, half+k, j2[k], rows)
	}
	return block, len(rows), half
}

// checkCountRows requires countRow's counts of every row of the triples
// (j1[k], j2[k]) to equal tc.common3 for every later triple, counted over
// the whole block at once and summed over blocks of three words.
func checkCountRows(t *testing.T, tc *tripleCounts, j1, j2 []int) {
	t.Helper()
	block, words, h := wholeBlock(tc, j1, j2)
	whole, chunked := make([]int, 4*h), make([]int, 4*h)
	for k1 := range j1 {
		clear(whole)
		clear(chunked)
		countRow(block, words, h, k1, (k1+1)&^7, whole)
		for w0 := 0; w0 < words; w0 += 3 {
			countRow(block[w0*2*h:], min(3, words-w0), h, k1, (k1+1)&^7, chunked)
		}
		a, b := j1[k1], j2[k1]
		for k2 := k1 + 1; k2 < len(j1); k2++ {
			x, y := j1[k2], j2[k2]
			want := [4]int{tc.common3(a, x), tc.common3(a, y), tc.common3(b, x), tc.common3(b, y)}
			for _, c := range [][]int{whole, chunked} {
				if got := [4]int{c[k2], c[h+k2], c[2*h+k2], c[3*h+k2]}; got != want {
					t.Fatalf("worker %d packed=%v: row (%d,%d) × (%d,%d) counts %v, common3 %v", tc.i, tc.packed, a, b, x, y, got, want)
				}
			}
		}
	}
}

// pairsOf splits partners into the triples' first and second partners.
func pairsOf(partners []int) (j1, j2 []int) {
	for k := 0; k+1 < len(partners); k += 2 {
		j1, j2 = append(j1, partners[k]), append(j2, partners[k+1])
	}
	return j1, j2
}

// TestCountRowRagged checks the full-horizon block on attendance bitsets
// shorter and longer than the evaluated worker's, and on a worker whose
// bitset has zero words that putLane leaves out.
func TestCountRowRagged(t *testing.T) {
	src := randx.NewSource(43)
	lens := []int{0, 1, 2, 5, 6, 130}
	for _, n := range lens {
		att := bitsetSource{randomWords(src, n, 0.5)}
		if n > 2 {
			att[0][1] = 0
		}
		for _, nx := range lens {
			att = append(att, randomWords(src, nx, 0.5))
		}
		partners := make([]int, 0, len(lens))
		for j := 1; j < len(att); j++ {
			partners = append(partners, j)
		}
		for _, mode := range []tripleMode{triplesFull, triplesRestricted} {
			var tc tripleCounts
			tc.init(att, len(att), 0, partners, mode, mat.NewWorkspace())
			j1, j2 := pairsOf(partners)
			checkCountRows(t, &tc, j1, j2)
		}
	}
}

// entryCase is one entryRow call's inputs.
type entryCase struct {
	counts, tri                      []int
	grad                             []float64
	agreeA, commonA, agreeB, commonB []int
	half, from, cia, cib             int
	da, db, pI                       float64
}

// specialFloats are gradients and diagonal values the kernels must carry
// as Go does: NaN, both infinities and zeros, subnormals and the largest
// finite values.
var specialFloats = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.MaxFloat64, math.MaxFloat64, 1, -0.5,
}

// byteStream hands out a fuzzer's bytes one at a time, repeating them;
// with none it hands out zeros.
type byteStream struct {
	data []byte
	pos  int
}

func (s *byteStream) next() int {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[s.pos%len(s.data)]
	s.pos++
	return int(b)
}

// word returns the next eight bytes as a word: none, all or some of its
// bits set.
func (s *byteStream) word() uint64 {
	switch s.next() % 4 {
	case 0:
		return 0
	case 1:
		return ^uint64(0)
	}
	var b [8]byte
	for i := range b {
		b[i] = byte(s.next())
	}
	return binary.LittleEndian.Uint64(b[:])
}

// float returns a special value, a small ratio or a float's raw bits.
func (s *byteStream) float() float64 {
	switch sel := s.next(); {
	case sel < 64:
		return specialFloats[sel%len(specialFloats)]
	case sel < 160:
		return float64(int8(s.next())) / float64(1+s.next())
	default:
		var b [8]byte
		for i := range b {
			b[i] = byte(s.next())
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	}
}

// entryCases returns entryRow inputs over four-worker counter rows: halves
// of 8–24 lanes, every from, counts, commons and c_{i,j} that are zero
// in some lanes, special gradients, and p of 0, 0.3, 1 and NaN.
func entryCases(t *testing.T) []entryCase {
	t.Helper()
	s := &byteStream{data: []byte("entry rows: zeros, infinities, NaN and plain counts 0123456789")}
	var cases []entryCase
	for _, half := range []int{8, 16, 24} {
		for from := 0; from <= half; from += 4 {
			for _, pI := range []float64{0, 0.3, 1, math.NaN()} {
				const m = 9
				c := entryCase{half: half, from: from, pI: pI, cia: s.next() % 5, cib: s.next() % 40, da: s.float(), db: s.float()}
				c.counts, c.tri, c.grad = make([]int, 4*half), make([]int, 4*half), make([]float64, 2*half)
				for i := range c.counts {
					c.counts[i] = s.next() % 6
				}
				for k := range half {
					c.tri[k], c.tri[half+k] = s.next()%m, s.next()%m
					c.tri[2*half+k], c.tri[3*half+k] = s.next()%4, s.next()%100
					c.grad[k], c.grad[half+k] = s.float(), s.float()
				}
				rows := make([][]int, 4)
				for r := range rows {
					rows[r] = make([]int, m)
				}
				for j := range m {
					rows[1][j], rows[3][j] = s.next()%3, s.next()%50
					rows[0][j], rows[2][j] = s.next()%(rows[1][j]+1), s.next()%(rows[3][j]+1)
				}
				c.agreeA, c.commonA, c.agreeB, c.commonB = rows[0], rows[1], rows[2], rows[3]
				cases = append(cases, c)
			}
		}
	}
	return cases
}

// checkEntryRow holds entry to the Go loop on every lane in [from, half)
// and requires the lanes before from to stay as they were.
func checkEntryRow(t *testing.T, name string, entry func(out []float64, counts, tri []int, grad []float64, agreeA, commonA, agreeB, commonB []int, half, from, cia, cib int, da, db, pI float64), c entryCase) {
	t.Helper()
	const guard = -12345.5
	got, want := make([]float64, c.half), make([]float64, c.half)
	for i := range got {
		got[i] = guard
	}
	entry(got, c.counts, c.tri, c.grad, c.agreeA, c.commonA, c.agreeB, c.commonB, c.half, c.from, c.cia, c.cib, c.da, c.db, c.pI)
	entryRowGo(want, c.counts, c.tri, c.grad, c.agreeA, c.commonA, c.agreeB, c.commonB, c.half, c.from, c.cia, c.cib, c.da, c.db, c.pI)
	for k := range c.half {
		if k < c.from {
			if got[k] != guard {
				t.Fatalf("%s half=%d from=%d: wrote lane %d", name, c.half, c.from, k)
			}
			continue
		}
		if !sameFloat(got[k], want[k]) {
			t.Fatalf("%s half=%d from=%d p=%v da=%v db=%v: lane %d is %v (%#x), Go loop %v (%#x)", name, c.half, c.from, c.pI, c.da, c.db,
				k, got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
		}
	}
}

// TestEntryRowMatchesGo holds entryRow (the AVX2 kernel on amd64 CPUs with
// AVX2) to its Go loop.
func TestEntryRowMatchesGo(t *testing.T) {
	for _, c := range entryCases(t) {
		checkEntryRow(t, "entryRow", entryRow, c)
	}
}

// fuzzSource is an agreementSource whose counters need not agree with
// its attendance: the kernels must match Go on any counts.
type fuzzSource struct {
	att           [][]uint64
	agree, common [][]int
}

func (s *fuzzSource) pair(i, j int) crowd.PairStats {
	return crowd.PairStats{Common: s.common[i][j], Agree: s.agree[i][j]}
}
func (s *fuzzSource) counters(w int) (agree, common []int) { return s.agree[w], s.common[w] }
func (s *fuzzSource) attendance(w int) []uint64            { return s.att[w] }

// fuzzCov builds worker 0's Lemma 4 covariance over a crowd drawn from
// the bytes: 3–42 workers, attendance of up to 6 words (some bitsets
// shorter), counters with zero commons, triples of consecutive partners
// with special gradients, and p from 0 to 1 or NaN.
func fuzzCov(data []byte, mode tripleMode, ws *mat.Workspace) Lemma4Cov {
	s := &byteStream{data: data}
	m := 3 + s.next()%40
	horizon := 1 + s.next()%6
	src := &fuzzSource{att: make([][]uint64, m), agree: make([][]int, m), common: make([][]int, m)}
	for w := range m {
		n := horizon
		if s.next()%4 == 0 {
			n = s.next() % (horizon + 1)
		}
		src.att[w] = make([]uint64, n)
		for i := range src.att[w] {
			src.att[w][i] = s.word()
		}
		src.agree[w], src.common[w] = make([]int, m), make([]int, m)
		for j := range m {
			src.common[w][j] = s.next() % 40
			src.agree[w][j] = s.next() % (src.common[w][j] + 1)
		}
	}
	partners := make([]int, 0, m-1)
	for j := 1; j+1 < m; j += 2 {
		partners = append(partners, j, j+1)
	}
	var tc tripleCounts
	tc.init(src, m, 0, partners, mode, ws)
	cov := newLemma4Cov(tc, len(partners)/2, ws)
	for k := 0; k < len(partners); k += 2 {
		cov.add(s.float(), s.float(), partners[k], s.float(), partners[k+1])
	}
	if p := s.next(); p == 255 {
		cov.pPool = math.NaN()
	} else {
		cov.pPool = float64(p) / 254
	}
	return cov
}

// checkCov holds the counts countRow makes for cov's triples to common3
// (checkCountRows), then materializes cov with each count path and holds
// every entry to entry (sameFloat) and the diagonal to diag bit for bit.
func checkCov(t *testing.T, cov *Lemma4Cov) {
	t.Helper()
	checkCountRows(t, &cov.counts, cov.j1, cov.j2)
	for _, block := range []bool{true, false} {
		checkMaterialized(t, cov, block)
	}
}

// checkMaterialized is checkCov's check of one count path.
func checkMaterialized(t *testing.T, cov *Lemma4Cov, block bool) {
	t.Helper()
	l := cov.Dim()
	dense := mat.New(l, l)
	cov.materialize(dense, block)
	for k1 := range l {
		if got, want := dense.At(k1, k1), cov.diag[k1]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Σ[%d][%d] = %v, diag %v", k1, k1, got, want)
		}
		for k2 := range l {
			if k1 == k2 {
				continue
			}
			if got, want := dense.At(k1, k2), cov.entry(k1, k2); !sameFloat(got, want) {
				t.Fatalf("block=%v packed=%v l=%d p=%v: Σ[%d][%d] = %v (%#x), entry %v (%#x)", block, cov.counts.packed, l, cov.pPool,
					k1, k2, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestLemma4RowMatchesEntry runs checkCov on both row kinds over crowds
// drawn from fixed byte strings: small and large crowds, attendance of
// every length, zero counts and special gradients.
func TestLemma4RowMatchesEntry(t *testing.T) {
	src := randx.NewSource(47)
	for trial := range 40 {
		data := make([]byte, 64+trial*37)
		for i := range data {
			data[i] = byte(src.Intn(256))
		}
		data[0] = byte(trial * 7)
		for _, mode := range []tripleMode{triplesRestricted, triplesFull} {
			cov := fuzzCov(data, mode, mat.NewWorkspace())
			checkCov(t, &cov)
		}
	}
}

// TestLemma4ChunkedMatchesEntry runs checkCov where the block takes
// several chunks of lemma4Chunk words: workers attending up to 18 000 of
// 20 000 tasks, on both row kinds. It checks each covariance twice: a
// repeat MaterializeInto must count its chunks from zero again.
func TestLemma4ChunkedMatchesEntry(t *testing.T) {
	ds, _, err := sim.Binary{Tasks: 20000, Workers: 21, Density: 0.9, ErrorRateChoices: []float64{0.1, 0.2}}.Generate(randx.NewSource(49))
	if err != nil {
		t.Fatal(err)
	}
	src := datasetStats(ds)
	ws := mat.NewWorkspace()
	for _, mode := range []tripleMode{triplesRestricted, triplesFull} {
		for _, i := range []int{0, 7} {
			cov := solveCov(src, 21, i, mode, ws)
			if n := len(cov.counts.blockWords(make([]int, len(cov.counts.own)))); n <= 2*lemma4Chunk {
				t.Fatalf("worker %d packed=%v: %d block words, want more than two chunks", i, cov.counts.packed, n)
			}
			checkCov(t, &cov)
			checkCov(t, &cov)
		}
	}
}

// FuzzLemma4Row feeds checkCov, on both row kinds, the covariance fuzzCov
// draws from the fuzzer's bytes.
func FuzzLemma4Row(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{20, 3, 1, 0, 64, 9, 200, 1, 2, 3, 4, 5, 6, 7, 8, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mode := range []tripleMode{triplesRestricted, triplesFull} {
			cov := fuzzCov(data, mode, mat.NewWorkspace())
			checkCov(t, &cov)
		}
	})
}

// BenchmarkLemma4Row times the row calls of one worker's covariance,
// countRow over the whole block and entryRow for every row of the upper
// triangle, as dispatched
// ("kernel": the VPOPCNTQ and AVX2 kernels on amd64 CPUs with them) and
// as the Go loops alone ("go"), on review_sparse's crowd shape (128
// workers over 24 000 tasks at density 0.1, restricted counts) and on a
// dense 64-worker crowd over 108 000 tasks (full-horizon counts).
func BenchmarkLemma4Row(b *testing.B) {
	for _, c := range []struct {
		workers, tasks int
		density        float64
		mode           tripleMode
	}{{128, 24000, 0.1, triplesRestricted}, {64, 108000, 0.8, triplesFull}} {
		ds, _, err := sim.Binary{Tasks: c.tasks, Workers: c.workers, Density: c.density, ErrorRateChoices: []float64{0.1, 0.2}}.Generate(randx.NewSource(7))
		if err != nil {
			b.Fatal(err)
		}
		cov := solveCov(datasetStats(ds), c.workers, 0, c.mode, mat.NewWorkspace())
		tab := cov.tables()
		block, words, _ := wholeBlock(&cov.counts, cov.j1, cov.j2)
		_, own := cov.counts.src.counters(0)
		for _, k := range []struct {
			name  string
			count func(block []uint64, words, half, k1, from int, counts []int)
			entry func(out []float64, counts, tri []int, grad []float64, agreeA, commonA, agreeB, commonB []int, half, from, cia, cib int, da, db, pI float64)
		}{{"kernel", countRow, entryRow}, {"go", countRowGo, entryRowGo}} {
			b.Run(fmt.Sprintf("m=%d/density=%.2f/%s", c.workers, c.density, k.name), func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					for k1 := 0; k1+1 < cov.Dim(); k1++ {
						a, bb := cov.j1[k1], cov.j2[k1]
						agreeA, commonA := cov.counts.src.counters(a)
						agreeB, commonB := cov.counts.src.counters(bb)
						clear(tab.counts)
						k.count(block, words, tab.half, k1, (k1+1)&^7, tab.counts)
						k.entry(tab.out, tab.counts, tab.tri, tab.grad, agreeA, commonA, agreeB, commonB, tab.half, (k1+1)&^3, own[a], own[bb], cov.d1[k1], cov.d2[k1], cov.pPool)
					}
				}
			})
		}
	}
}
