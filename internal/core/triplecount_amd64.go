package core

import "crowdassess/internal/cpufeat"

// common3POPCNT is common3Words in assembly: one AND and one POPCNT per
// count and word, with no CPU-feature check inside the loop. It needs
// cpufeat.POPCNT, and b, x and y at least as long as a.
//
//go:noescape
func common3POPCNT(a, b, x, y []uint64) (ax, ay, bx, by int)

// common3Words runs common3POPCNT when the CPU has POPCNT, else the Go
// loop.
func common3Words(a, b, x, y []uint64) (ax, ay, bx, by int) {
	if cpufeat.POPCNT {
		return common3POPCNT(a, b, x, y)
	}
	return common3WordsGo(a, b, x, y)
}

// gatherPEXT is gatherRow in assembly for own and other of one length
// whose last own word is non-zero: one PEXT of each other word under its
// own word, appended without a branch at the running rank. It needs
// cpufeat.POPCNT and cpufeat.BMI2, and reports false, having stopped
// before writing past dst, when dst is shorter than ⌈|own|/64⌉ words.
//
//go:noescape
func gatherPEXT(dst, own, other []uint64) (ok bool)

// gatherRow packs own ∩ other into dst by rank within own, as gatherRowGo
// documents: with the PEXT kernel when cpufeat.FastPEXT, else with the
// Go loop.
func gatherRow(dst, own, other []uint64) {
	if !cpufeat.FastPEXT {
		gatherRowGo(dst, own, other)
		return
	}
	if !gatherRowPEXT(dst, own, other) {
		panic("core: gatherRow destination shorter than the gathered row")
	}
}

// gatherRowPEXT is gatherRow on the PEXT kernel, reporting false when dst
// is too short. The kernel stores the current dst word once per own word,
// so own is cut after its last non-zero word in reach of other: the rank
// of every word left is below |own|, and no store lands past ⌈|own|/64⌉
// words.
func gatherRowPEXT(dst, own, other []uint64) bool {
	n := min(len(own), len(other))
	for n > 0 && own[n-1] == 0 {
		n--
	}
	return gatherPEXT(dst, own[:n], other[:n])
}
