package core

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestCommon3WordsTakesAssembly checks that an amd64 CPU with POPCNT runs
// the assembly kernel: common3Words takes the assembly path exactly when
// hasPOPCNT is set, so the CPUID stub must report POPCNT exactly when the
// operating system lists it (on Linux, in the flags of /proc/cpuinfo). It also runs common3POPCNT directly against the Go
// loop, so the kernel stays tested even if common3Words stops calling it.
func TestCommon3WordsTakesAssembly(t *testing.T) {
	if runtime.GOOS == "linux" {
		info, err := os.ReadFile("/proc/cpuinfo")
		if err != nil {
			t.Skipf("no CPU flags to compare with: %v", err)
		}
		listed := false
		for _, line := range strings.Split(string(info), "\n") {
			if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
				listed = listed || strings.Contains(flags+" ", " popcnt ")
			}
		}
		if listed != hasPOPCNT {
			t.Fatalf("/proc/cpuinfo lists popcnt: %v; CPUID stub reports POPCNT: %v", listed, hasPOPCNT)
		}
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
