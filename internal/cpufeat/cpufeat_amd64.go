package cpufeat

// cpuid returns EAX, EBX and ECX of CPUID leaf leaf, subleaf 0.
func cpuid(leaf uint32) (eax, ebx, ecx uint32)

// xgetbv returns the low word of XCR0, the state components the OS saves.
// It may only run where CPUID.01H:ECX reports OSXSAVE.
func xgetbv() uint32

func init() {
	maxLeaf, vendor, vendorECX := cpuid(0)
	version, _, features := cpuid(1)
	var ext, extECX uint32
	if maxLeaf >= 7 {
		_, ext, extECX = cpuid(7)
	}
	POPCNT = features&(1<<23) != 0
	BMI2 = ext&(1<<8) != 0

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
	FastPEXT = POPCNT && BMI2 && !microcoded

	// YMM registers need AVX (ECX bit 28) and the OS saving the SSE and
	// AVX state (XCR0 bits 1 and 2); ZMM registers also need the opmask,
	// ZMM_Hi256 and Hi16_ZMM state (XCR0 bits 5, 6 and 7).
	const osxsave, avx = 1 << 27, 1 << 28
	if features&(osxsave|avx) != osxsave|avx {
		return
	}
	xcr0 := xgetbv()
	if xcr0&0x6 != 0x6 {
		return
	}
	AVX2 = ext&(1<<5) != 0
	if xcr0&0xe6 != 0xe6 {
		return
	}
	AVX512F = ext&(1<<16) != 0
	AVX512DQ = AVX512F && ext&(1<<17) != 0
	AVX512VPOPCNTDQ = AVX512F && extECX&(1<<14) != 0
}
