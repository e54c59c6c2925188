package core

// hasPOPCNT reports whether the CPU has the POPCNT instruction
// (CPUID.01H:ECX bit 23), read once when the package initializes.
var hasPOPCNT = cpuid(1)&(1<<23) != 0

// cpuid returns ECX of CPUID leaf leaf, subleaf 0.
func cpuid(leaf uint32) (ecx uint32)

// common3POPCNT is common3Words in assembly: one AND and one POPCNT per
// count and word, with no CPU-feature check inside the loop. It needs
// hasPOPCNT, and b, x and y at least as long as a.
//
//go:noescape
func common3POPCNT(a, b, x, y []uint64) (ax, ay, bx, by int)

// common3Words runs common3POPCNT when the CPU has POPCNT, else the Go
// loop.
func common3Words(a, b, x, y []uint64) (ax, ay, bx, by int) {
	if hasPOPCNT {
		return common3POPCNT(a, b, x, y)
	}
	return common3WordsGo(a, b, x, y)
}
