package core

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// cpuinfoLists reports whether the flags of /proc/cpuinfo list flag; ok
// is false where there is no such file to read (off Linux).
func cpuinfoLists(t *testing.T, flag string) (listed, ok bool) {
	t.Helper()
	if runtime.GOOS != "linux" {
		return false, false
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Logf("no CPU flags to compare with: %v", err)
		return false, false
	}
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, found := strings.Cut(line, ":"); found && strings.TrimSpace(name) == "flags" {
			listed = listed || strings.Contains(flags+" ", " "+flag+" ")
		}
	}
	return listed, true
}

// TestCommon3WordsTakesAssembly checks that an amd64 CPU with POPCNT runs
// the assembly kernel: common3Words takes the assembly path exactly when
// hasPOPCNT is set, so the CPUID stub must report POPCNT exactly when the
// operating system lists it (on Linux, in the flags of /proc/cpuinfo). It also runs common3POPCNT directly against the Go
// loop, so the kernel stays tested even if common3Words stops calling it.
func TestCommon3WordsTakesAssembly(t *testing.T) {
	if listed, ok := cpuinfoLists(t, "popcnt"); ok && listed != hasPOPCNT {
		t.Fatalf("/proc/cpuinfo lists popcnt: %v; CPUID stub reports POPCNT: %v", listed, hasPOPCNT)
	}
	if !hasPOPCNT {
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

// TestGatherTakesAssembly checks that the CPUID stub reports BMI2 exactly
// when the operating system lists it and that gatherRow takes the PEXT
// kernel only on a CPU with BMI2 and POPCNT. Wherever the CPU has both, it
// runs the kernel directly against the bit-by-bit gather, so the kernel
// stays tested on CPUs where gatherRow runs the Go loop, and requires a
// destination one word short to stop the kernel before it writes past it.
func TestGatherTakesAssembly(t *testing.T) {
	if listed, ok := cpuinfoLists(t, "bmi2"); ok && listed != hasBMI2 {
		t.Fatalf("/proc/cpuinfo lists bmi2: %v; CPUID stub reports BMI2: %v", listed, hasBMI2)
	}
	if fastPEXT && !(hasBMI2 && hasPOPCNT) {
		t.Fatal("gatherRow takes the PEXT kernel on a CPU without BMI2 and POPCNT")
	}
	if !hasBMI2 || !hasPOPCNT {
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
