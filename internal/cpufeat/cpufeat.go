// Package cpufeat reports, once per process, which CPU instructions the
// assembly kernels of internal/core and internal/mat may use. Every flag
// is false off amd64, and on amd64 a vector flag is set only when the
// operating system also saves the registers it needs (XGETBV), so a
// kernel chosen by a flag never faults.
package cpufeat

// The flags, read when the package initializes and never changed after.
var (
	// POPCNT: CPUID.01H:ECX bit 23.
	POPCNT bool
	// BMI2: CPUID.(EAX=07H,ECX=0):EBX bit 8, which brings PEXT.
	BMI2 bool
	// FastPEXT: the CPU has POPCNT and BMI2 and runs PEXT in hardware.
	FastPEXT bool
	// AVX2: CPUID.(EAX=07H,ECX=0):EBX bit 5, with the OS saving the
	// XMM and YMM state.
	AVX2 bool
	// AVX512F, AVX512DQ and AVX512VPOPCNTDQ: CPUID.(EAX=07H,ECX=0) EBX bits
	// 16 and 17 and ECX bit 14, with the OS also saving the opmask and
	// ZMM state.
	AVX512F, AVX512DQ, AVX512VPOPCNTDQ bool
)
