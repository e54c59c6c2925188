package cpufeat

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestFlagsMatchCPUInfo checks every flag the kernels are chosen by
// against the flags Linux lists in /proc/cpuinfo, which the kernel lists
// only for features it has enabled. It skips where there is no such file
// to read (off Linux); off amd64 the file lists none of these names and
// every flag is false.
func TestFlagsMatchCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("no /proc/cpuinfo off Linux")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no CPU flags to compare with: %v", err)
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, found := strings.Cut(line, ":"); found && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(flags) {
				listed[f] = true
			}
		}
	}
	for _, c := range []struct {
		name string
		flag bool
	}{
		{"popcnt", POPCNT},
		{"bmi2", BMI2},
		{"avx2", AVX2},
		{"avx512f", AVX512F},
		{"avx512dq", AVX512DQ},
		{"avx512_vpopcntdq", AVX512VPOPCNTDQ},
	} {
		if c.flag != listed[c.name] {
			t.Errorf("/proc/cpuinfo lists %s: %v; the flag reads %v", c.name, listed[c.name], c.flag)
		}
	}
	if FastPEXT && !(BMI2 && POPCNT) {
		t.Error("FastPEXT set on a CPU without BMI2 and POPCNT")
	}
	if (AVX512DQ || AVX512VPOPCNTDQ) && !AVX512F {
		t.Error("an AVX-512 extension is set without AVX512F")
	}
}
