package eval

import (
	"math"
	"reflect"
	"testing"
)

func testSpec(kernel string, reps int) SweepSpec {
	return SweepSpec{Kernel: kernel, Workers: 5, Tasks: 60, Density: 0.8, Replicates: reps, Seed: 11}
}

// TestSweepGolden pins every point of both kernels, serial and parallel,
// to its Float64bits: a change to the replicate seeding, the kernels or
// the order of the fold shows up here as a changed bit.
func TestSweepGolden(t *testing.T) {
	golden := map[string][]uint64{
		SweepWidth: {
			0x3f7ea7fb357655a7, 0x3f8ec38e35de14f5, 0x3f9726ca063d6bcd, 0x3f9f037255bba1ab,
			0x3fa380b7571ec843, 0x3fa7957822416005, 0x3fabc5cec009f2a8, 0x3fb00d3621273cae,
			0x3fb24c9d3c8f5a40, 0x3fb4a582424b4264, 0x3fb71f42ce142b70, 0x3fb9c25ea9b3b3bd,
			0x3fbc9a6eced72b1c, 0x3fbfb6575acfabc3, 0x3fc19647b63f093c, 0x3fc39272becfb2d0,
			0x3fc5f4917d05ad54, 0x3fc907e8b67f941b, 0x3fcda74712a5ba25,
		},
		SweepCoverage: {
			0x3fa5f15f15f15f16, 0x3fb4b94b94b94b95, 0x3fc2e52e52e52e53, 0x3fc7297297297297,
			0x3fcc09c09c09c09c, 0x3fd15f15f15f15f1, 0x3fd5555555555555, 0x3fd999999999999a,
			0x3fdcf3cf3cf3cf3d, 0x3fe0270270270270, 0x3fe1861861861862, 0x3fe2702702702702,
			0x3fe4444444444444, 0x3fe68d68d68d68d7, 0x3fe8888888888889, 0x3fe9e79e79e79e7a,
			0x3feb46b46b46b46b, 0x3fec7ec7ec7ec7ec, 0x3feec7ec7ec7ec7f,
		},
	}
	confs := Confidences()
	for _, kernel := range SweepKernels() {
		want := golden[kernel]
		if len(want) != len(confs) {
			t.Fatalf("%s: %d golden points for %d confidence levels", kernel, len(want), len(confs))
		}
		spec := SweepSpec{Kernel: kernel, Workers: 7, Tasks: 100, Replicates: 30, Seed: 1}
		for _, parallel := range []bool{false, true} {
			res, err := RunSweep(spec, parallel)
			if err != nil {
				t.Fatalf("%s parallel=%v: %v", kernel, parallel, err)
			}
			if res.Failures != 0 {
				t.Fatalf("%s parallel=%v: %d failures, want 0", kernel, parallel, res.Failures)
			}
			if len(res.Series) != 1 || len(res.Series[0].Points) != len(want) {
				t.Fatalf("%s parallel=%v: unexpected result shape %+v", kernel, parallel, res.Series)
			}
			for i, p := range res.Series[0].Points {
				if p.X != confs[i] {
					t.Errorf("%s parallel=%v point %d: x = %v, want %v", kernel, parallel, i, p.X, confs[i])
				}
				if got := math.Float64bits(p.Y); got != want[i] {
					t.Errorf("%s parallel=%v point %d: y bits %#x, want %#x", kernel, parallel, i, got, want[i])
				}
			}
		}
	}
}

// TestSweepParallelIdentical: the in-process parallel fan-out returns the
// same Result as the serial loop.
func TestSweepParallelIdentical(t *testing.T) {
	for _, kernel := range SweepKernels() {
		spec := testSpec(kernel, 8)
		serial, err := RunSweep(spec, false)
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := RunSweep(spec, true)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("%s: parallel sweep differs from serial", kernel)
		}
	}
}

// TestSweepValidate rejects malformed specs, both in Validate and before
// RunSweep runs a replicate.
func TestSweepValidate(t *testing.T) {
	bad := []SweepSpec{
		{Kernel: "nope"},
		{Kernel: SweepWidth, Workers: 2},
		{Kernel: SweepWidth, Tasks: -1},
		{Kernel: SweepWidth, Density: 1.5},
		{Kernel: SweepWidth, Density: -0.1},
		{Kernel: SweepWidth, Density: math.NaN()},
		{Kernel: SweepCoverage, Replicates: -3},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", s)
		}
		if _, err := RunSweep(s, false); err == nil {
			t.Errorf("RunSweep accepted %+v", s)
		}
	}
}
