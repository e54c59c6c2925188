package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"crowdassess/internal/randx"
)

// andNaive counts |p ∩ q| bit by bit over the words both have: the
// reference neither the Go loop nor the assembly kernel shares code with.
func andNaive(p, q []uint64) int {
	n := 0
	for w := range min(len(p), len(q)) {
		for bit := range 64 {
			n += int(p[w] & q[w] >> bit & 1)
		}
	}
	return n
}

func four(ax, ay, bx, by int) [4]int { return [4]int{ax, ay, bx, by} }

// randomWords draws n words, each all zeros, all ones, or bits set at the
// given density, so counts hit 0, 64 and everything between.
func randomWords(src *randx.Source, n int, density float64) []uint64 {
	out := make([]uint64, n)
	for w := range out {
		switch src.Intn(8) {
		case 0:
		case 1:
			out[w] = ^uint64(0)
		default:
			for bit := range 64 {
				if src.Float64() < density {
					out[w] |= 1 << bit
				}
			}
		}
	}
	return out
}

// checkCommon3Words holds common3Words (the assembly kernel on amd64 with
// POPCNT) to the Go loop over four rows of one length.
func checkCommon3Words(t *testing.T, a, b, x, y []uint64) {
	t.Helper()
	if got, want := four(common3Words(a, b, x, y)), four(common3WordsGo(a, b, x, y)); got != want {
		t.Fatalf("rows of %d words: common3Words %v, Go loop %v", len(a), got, want)
	}
}

// checkCommon3Block holds common3Block to a bit-by-bit count of each pair
// of rows over the words the two share.
func checkCommon3Block(t *testing.T, ra, rb, rx, ry []uint64) {
	t.Helper()
	want := [4]int{andNaive(ra, rx), andNaive(ra, ry), andNaive(rb, rx), andNaive(rb, ry)}
	if got := four(common3Block(ra, rb, rx, ry)); got != want {
		t.Fatalf("rows of %d, %d, %d, %d words: common3Block %v, bit by bit %v", len(ra), len(rb), len(rx), len(ry), got, want)
	}
}

// TestCommon3WordsMatchesGo holds common3Words to the Go loop, and both to
// the bit-by-bit count: lengths 0, 1, odd, even and long (1 688 words span
// ingest_http's 108 000-task horizon), over rows that start at every word
// offset 0–3 of a larger buffer, so no alignment is assumed.
func TestCommon3WordsMatchesGo(t *testing.T) {
	src := randx.NewSource(29)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 63, 64, 65, 1001, 1688} {
		for _, density := range []float64{0.05, 0.5, 0.95} {
			var buf [4][]uint64
			for r := range buf {
				buf[r] = randomWords(src, n+3, density)
			}
			for off := range 4 {
				a, b := buf[0][off:][:n], buf[1][(off+1)%4:][:n]
				x, y := buf[2][(off+2)%4:][:n], buf[3][(off+3)%4:][:n]
				checkCommon3Words(t, a, b, x, y)
				checkCommon3Block(t, a, b, x, y)
			}
		}
	}
}

// TestCommon3BlockRagged checks common3Block's Go tail: rx and ry may each
// be shorter or longer than ra and rb.
func TestCommon3BlockRagged(t *testing.T) {
	src := randx.NewSource(31)
	lens := []int{0, 1, 2, 5, 6, 130}
	for _, n := range lens {
		ra, rb := randomWords(src, n, 0.5), randomWords(src, n, 0.5)
		for _, nx := range lens {
			for _, ny := range lens {
				checkCommon3Block(t, ra, rb, randomWords(src, nx, 0.5), randomWords(src, ny, 0.5))
			}
		}
	}
}

// FuzzCommon3Block feeds common3Block rows cut from the fuzzer's bytes: ra
// and rb share a length, rx and ry take their own, and each row starts at
// its own word offset, ra and ry inside one shared buffer. The first four
// bytes set the lengths and offsets; the rest are the words, repeated as
// needed. It also holds common3Words to the Go loop over the words all
// four rows have.
func FuzzCommon3Block(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add(append([]byte{1, 1, 1, 0}, make([]byte, 64)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n, nx, ny, offs := int(data[0]%40), int(data[1]%40), int(data[2]%40), int(data[3])
		words := make([]uint64, (len(data)-4)/8)
		for w := range words {
			words[w] = binary.LittleEndian.Uint64(data[4+8*w:])
		}
		row := func(from, length int) []uint64 {
			out := make([]uint64, length)
			if len(words) > 0 {
				for w := range out {
					out[w] = words[(from+w)%len(words)]
				}
			}
			return out
		}
		buf := row(0, n+ny+8)
		ra := buf[offs&3:][:n]
		rb := row(offs>>2&3, n)
		rx := row(offs>>4&3+n, nx)
		ry := buf[len(buf)-ny-offs>>6:][:ny]
		checkCommon3Block(t, ra, rb, rx, ry)
		m := min(n, nx, ny)
		checkCommon3Words(t, ra[:m], rb[:m], rx[:m], ry[:m])
	})
}

// gatherNaive packs own ∩ other by rank within own bit by bit, into the
// ⌈|own|/64⌉ words a gathered row has: the reference neither gather path
// shares code with.
func gatherNaive(own, other []uint64) []uint64 {
	var bitsSet []bool
	for w, a := range own {
		for bit := range 64 {
			if a>>bit&1 == 1 {
				bitsSet = append(bitsSet, w < len(other) && other[w]>>bit&1 == 1)
			}
		}
	}
	out := make([]uint64, (len(bitsSet)+63)/64)
	for r, set := range bitsSet {
		if set {
			out[r/64] |= 1 << (r % 64)
		}
	}
	return out
}

// gatherGuard fills the words past a gathered row in checkGather's
// buffers: a gather that writes past its row changes them.
const gatherGuard = 0x5a5a_a5a5_5a5a_a5a5

// checkGather holds gather to the bit-by-bit reference on one own and
// other, through a zeroed row of exactly ⌈|own|/64⌉ words followed by two
// guard words that must come back unchanged.
func checkGather(t *testing.T, name string, gather func(dst, own, other []uint64), own, other []uint64) {
	t.Helper()
	want := gatherNaive(own, other)
	buf := make([]uint64, len(want)+2)
	buf[len(want)], buf[len(want)+1] = gatherGuard, gatherGuard
	gather(buf[:len(want)], own, other)
	if !slices.Equal(buf[:len(want)], want) {
		t.Fatalf("own of %d words, other of %d: %s gathers %x, bit by bit %x", len(own), len(other), name, buf[:len(want)], want)
	}
	if buf[len(want)] != gatherGuard || buf[len(want)+1] != gatherGuard {
		t.Fatalf("own of %d words, other of %d: %s wrote past the row", len(own), len(other), name)
	}
}

// gatherCases calls f on own and other of 0–40 words at densities from 0
// to 1, with own both longer and shorter than other, and again with own's
// last word zeroed; the ranks of most rows straddle dst words at many
// offsets.
func gatherCases(f func(own, other []uint64)) {
	src := randx.NewSource(32)
	densities := []float64{0, 0.02, 0.1, 0.5, 0.9, 1}
	for _, n := range []int{0, 1, 2, 3, 5, 8, 13, 21, 40} {
		for _, m := range []int{0, 1, n / 2, n, n + 3, 40} {
			for _, da := range densities {
				for _, db := range densities {
					own, other := randomWords(src, n, da), randomWords(src, m, db)
					f(own, other)
					if n > 1 {
						own[n-1] = 0
						f(own, other)
					}
				}
			}
		}
	}
}

// TestGatherRowMatchesGo holds gatherRow (the PEXT kernel on amd64 CPUs
// that run PEXT in hardware) and its Go loop to the bit-by-bit gather.
func TestGatherRowMatchesGo(t *testing.T) {
	gatherCases(func(own, other []uint64) {
		checkGather(t, "gatherRow", gatherRow, own, other)
		checkGather(t, "the Go loop", gatherRowGo, own, other)
	})
}

// FuzzGatherRow feeds gatherRow and its Go loop an own and an other cut
// from the fuzzer's bytes: the first three bytes set own's length (up to
// 40 words), other's, and where other starts among the words; the rest
// are the words, repeated as needed, with own's last word set to zero
// when the third byte is odd.
func FuzzGatherRow(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add(append([]byte{3, 2, 1}, make([]byte, 24)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n, m, off := int(data[0]%41), int(data[1]%41), int(data[2])
		words := make([]uint64, (len(data)-3)/8)
		for w := range words {
			words[w] = binary.LittleEndian.Uint64(data[3+8*w:])
		}
		row := func(from, length int) []uint64 {
			out := make([]uint64, length)
			if len(words) > 0 {
				for w := range out {
					out[w] = words[(from+w)%len(words)]
				}
			}
			return out
		}
		own, other := row(0, n), row(off>>1, m)
		if off&1 == 1 && n > 0 {
			own[n-1] = 0
		}
		checkGather(t, "gatherRow", gatherRow, own, other)
		checkGather(t, "the Go loop", gatherRowGo, own, other)
	})
}

var common3Sink [4]int

// BenchmarkCommon3Block times common3Words over four rows of 1 688 words,
// the attendance bitsets of ingest_http's 108 000-task horizon, as
// dispatched ("kernel": the assembly kernel on amd64 with POPCNT) and as
// the Go loop alone ("go").
func BenchmarkCommon3Block(b *testing.B) {
	const words = 1688
	src := randx.NewSource(3)
	var rows [4][]uint64
	for r := range rows {
		rows[r] = randomWords(src, words, 0.8)
	}
	for _, k := range []struct {
		name string
		f    func(a, b, x, y []uint64) (int, int, int, int)
	}{{"kernel", common3Words}, {"go", common3WordsGo}} {
		b.Run(k.name, func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				common3Sink = four(k.f(rows[0], rows[1], rows[2], rows[3]))
			}
		})
	}
}

var gatherSink uint64

// BenchmarkGatherRow times the gathers of one restricted solve on
// review_sparse's shape, 128 workers over 24 000 tasks with every task
// attended at the given density: each op gathers one worker's row against
// each of the other 127, cycling through the workers, as dispatched
// ("kernel": the PEXT kernel on amd64 CPUs that run PEXT in hardware) and
// as the Go loop alone ("go").
func BenchmarkGatherRow(b *testing.B) {
	const workers, tasks = 128, 24000
	for _, density := range []float64{0.05, 0.1, 0.3, 0.8} {
		src := randx.NewSource(5)
		att := make([][]uint64, workers)
		for w := range att {
			att[w] = make([]uint64, (tasks+63)/64)
			for task := range tasks {
				if src.Float64() < density {
					att[w][task/64] |= 1 << (task % 64)
				}
			}
		}
		dst := make([]uint64, len(att[0]))
		for _, k := range []struct {
			name   string
			gather func(dst, own, other []uint64)
		}{{"kernel", gatherRow}, {"go", gatherRowGo}} {
			b.Run(fmt.Sprintf("density=%.2f/%s", density, k.name), func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					i := n % workers
					for j, other := range att {
						if j != i {
							clear(dst)
							k.gather(dst, att[i], other)
						}
					}
					gatherSink += dst[0]
				}
			})
		}
	}
}
