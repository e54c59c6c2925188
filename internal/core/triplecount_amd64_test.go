package core

import (
	"testing"

	"crowdassess/internal/cpufeat"
)

// TestLemma4RowTakesAssembly checks that countRow and entryRow run their
// kernels on the CPUs that have the instructions, and runs each kernel
// directly against its Go loop wherever the CPU has it, so a kernel stays
// tested even if its dispatcher stops calling it. The flags themselves
// are checked against /proc/cpuinfo in internal/cpufeat.
func TestLemma4RowTakesAssembly(t *testing.T) {
	if cpufeat.AVX512VPOPCNTDQ && !cpufeat.AVX512F {
		t.Fatal("countRow would take the VPOPCNTQ kernel on a CPU without AVX512F")
	}
	ran := false
	if cpufeat.AVX512VPOPCNTDQ {
		ran = true
		countCases(func(block []uint64, words, half, k1, from int) {
			checkCountRow(t, "countRowAVX512", countRowAVX512, block, words, half, k1, from)
		})
	}
	if cpufeat.AVX2 {
		ran = true
		for _, c := range entryCases(t) {
			checkEntryRow(t, "entryRowAVX2", entryRowAVX2, c)
		}
	}
	if !ran {
		t.Skip("CPU has neither AVX-512 VPOPCNTDQ nor AVX2; countRow and entryRow run the Go loops")
	}
}

// TestCommon3WordsTakesAssembly checks that common3Words takes the POPCNT
// kernel exactly where cpufeat reports POPCNT (checked against
// /proc/cpuinfo in internal/cpufeat), and runs common3POPCNT directly
// against the Go loop, so the kernel stays tested even if common3Words
// stops calling it.
func TestCommon3WordsTakesAssembly(t *testing.T) {
	if !cpufeat.POPCNT {
		t.Skip("CPU has no POPCNT; common3Words runs the Go loop")
	}
	rows := [4][]uint64{{1, 3, 7, ^uint64(0), 0}, {3, 3, 3, 3, 3}, {^uint64(0), 1, 6, 1 << 63, 5}, {0, 2, 7, ^uint64(0), 1}}
	for n := range 6 {
		a, b, x, y := rows[0][:n], rows[1][:n], rows[2][:n], rows[3][:n]
		if got, want := four(common3POPCNT(a, b, x, y)), four(common3WordsGo(a, b, x, y)); got != want {
			t.Fatalf("%d words: common3POPCNT %v, Go loop %v", n, got, want)
		}
	}
}

// TestGatherTakesAssembly checks that gatherRow takes the PEXT kernel only
// on a CPU with BMI2 and POPCNT. Wherever the CPU has both, it runs the
// kernel directly against the bit-by-bit gather, so the kernel stays
// tested on CPUs where gatherRow runs the Go loop, and requires a
// destination one word short to stop the kernel before it writes past it.
func TestGatherTakesAssembly(t *testing.T) {
	if cpufeat.FastPEXT && !(cpufeat.BMI2 && cpufeat.POPCNT) {
		t.Fatal("gatherRow takes the PEXT kernel on a CPU without BMI2 and POPCNT")
	}
	if !cpufeat.BMI2 || !cpufeat.POPCNT {
		t.Skip("CPU has no BMI2 or no POPCNT; gatherRow runs the Go loop")
	}
	kernel := func(dst, own, other []uint64) {
		if !gatherRowPEXT(dst, own, other) {
			t.Fatalf("the PEXT kernel refused a row of %d words", len(dst))
		}
	}
	gatherCases(func(own, other []uint64) {
		checkGather(t, "the PEXT kernel", kernel, own, other)
	})
	own := []uint64{^uint64(0), 1}
	dst := []uint64{0, gatherGuard}
	if gatherPEXT(dst[:1], own, own) || dst[1] != gatherGuard {
		t.Fatalf("gatherPEXT into a row one word short: want a refusal and the next word intact, got %x", dst)
	}
}
