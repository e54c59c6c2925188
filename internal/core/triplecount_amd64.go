package core

// The CPU features the kernels below need, read once when the package
// initializes: hasPOPCNT (CPUID.01H:ECX bit 23), hasBMI2
// (CPUID.(EAX=07H,ECX=0):EBX bit 8, which brings PEXT), and fastPEXT, set
// when the CPU has both and runs PEXT in hardware.
var hasPOPCNT, hasBMI2, fastPEXT = cpuFeatures()

// cpuid returns EAX, EBX and ECX of CPUID leaf leaf, subleaf 0.
func cpuid(leaf uint32) (eax, ebx, ecx uint32)

func cpuFeatures() (popcnt, bmi2, pext bool) {
	maxLeaf, vendor, vendorECX := cpuid(0)
	version, _, features := cpuid(1)
	popcnt = features&(1<<23) != 0
	if maxLeaf >= 7 {
		_, ext, _ := cpuid(7)
		bmi2 = ext&(1<<8) != 0
	}
	family := version >> 8 & 0xf
	if family == 0xf {
		family += version >> 20 & 0xff
	}
	// AMD before Zen 3 (family 19h) and Hygon's Zen-based parts run PEXT
	// in microcode, at a cost that grows with the mask's set bits, so they
	// keep the Go loop. The vendor string is EBX, EDX, ECX of leaf 0:
	// "AuthenticAMD" or "HygonGenuine".
	const auth, camd, hygo, uine = 0x68747541, 0x444d4163, 0x6f677948, 0x656e6975
	microcoded := (vendor == auth && vendorECX == camd || vendor == hygo && vendorECX == uine) && family < 0x19
	return popcnt, bmi2, popcnt && bmi2 && !microcoded
}

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

// gatherPEXT is gatherRow in assembly for own and other of one length
// whose last own word is non-zero: one PEXT of each other word under its
// own word, appended without a branch at the running rank. It needs
// hasPOPCNT and hasBMI2, and reports false, having stopped before writing
// past dst, when dst is shorter than ⌈|own|/64⌉ words.
//
//go:noescape
func gatherPEXT(dst, own, other []uint64) (ok bool)

// gatherRow packs own ∩ other into dst by rank within own, as gatherRowGo
// documents: with the PEXT kernel when fastPEXT, else with the Go loop.
func gatherRow(dst, own, other []uint64) {
	if !fastPEXT {
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
