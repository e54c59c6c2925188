package eval

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"crowdassess/internal/randx"
)

// testProcs are the GOMAXPROCS values the fan-out tests compare: 1 is the
// reference, where one goroutine runs the replicates in order.
var testProcs = []int{1, 2, 8}

// atProcs sets GOMAXPROCS to procs for the rest of the test; the value the
// test started with is restored when it ends.
func atProcs(t *testing.T, procs int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// requireSameAtProcs runs run at each of testProcs and fails unless the
// results at 2 and 8 equal the one at 1 under reflect.DeepEqual, which
// compares float64s bitwise.
func requireSameAtProcs[T any](t *testing.T, run func() (T, error)) {
	t.Helper()
	var want T
	for _, procs := range testProcs {
		atProcs(t, procs)
		got, err := run()
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if procs == testProcs[0] {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS=%d: result differs from GOMAXPROCS=%d", procs, testProcs[0])
		}
	}
}

// TestRunReplicatesOrderAndSeeds checks the engine's two contracts: result
// r comes from the source seeded seed+r, and the slice is in replicate
// order — at every GOMAXPROCS.
func TestRunReplicatesOrderAndSeeds(t *testing.T) {
	const seed, reps = 17, 23
	want := make([]float64, reps)
	for r := 0; r < reps; r++ {
		want[r] = randx.NewSource(seed + int64(r)).Float64()
	}
	for _, procs := range testProcs {
		atProcs(t, procs)
		got, err := runReplicates(seed, reps, func(src *randx.Source) (float64, error) {
			return src.Float64(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS=%d: results out of order or misseeded", procs)
		}
	}
}

// TestRunReplicatesFirstError checks that the error surfaced is the one of
// the lowest-numbered failing replicate, regardless of scheduling.
func TestRunReplicatesFirstError(t *testing.T) {
	// Replicates 4 and 7 fail; 4 must win at every GOMAXPROCS.
	failAt := map[int]bool{4: true, 7: true}
	for _, procs := range testProcs {
		atProcs(t, procs)
		_, err := runReplicates(100, 10, func(src *randx.Source) (int, error) {
			// Identify the replicate by matching its seed draw.
			v := src.Float64()
			for r := 0; r < 10; r++ {
				if randx.NewSource(100+int64(r)).Float64() == v {
					if failAt[r] {
						return 0, fmt.Errorf("replicate %d failed", r)
					}
					return r, nil
				}
			}
			return -1, nil
		})
		if err == nil {
			t.Fatalf("GOMAXPROCS=%d: expected an error", procs)
		}
		if err.Error() != "replicate 4 failed" {
			t.Errorf("GOMAXPROCS=%d: got %q, want the lowest failing replicate", procs, err)
		}
	}
}

// TestRunReplicatesLowFailureAfterHighDispatch pins the dispatcher's
// determinism guarantee in the adversarial schedule: replicate 7 fails
// first, and only then does replicate 2 — already dispatched — fail.
// The engine must still surface replicate 2's error, not 7's: a failure
// only stops dispatch of replicates above the lowest failure seen so far,
// never the ones below it.
func TestRunReplicatesLowFailureAfterHighDispatch(t *testing.T) {
	const seed, reps = 200, 10
	atProcs(t, 8)
	// The body only receives its seeded source, so recover the replicate
	// index by matching the first draw.
	idOf := func(src *randx.Source) int {
		v := src.Float64()
		for r := 0; r < reps; r++ {
			if randx.NewSource(seed+int64(r)).Float64() == v {
				return r
			}
		}
		return -1
	}
	highFailed := make(chan struct{})
	var once sync.Once
	_, err := runReplicates(seed, reps, func(src *randx.Source) (int, error) {
		switch r := idOf(src); r {
		case 7:
			once.Do(func() { close(highFailed) })
			return 0, fmt.Errorf("replicate %d failed", r)
		case 2:
			// Hold replicate 2's failure until 7's has landed. The timeout
			// fallback keeps single-CPU schedulers (where 2 runs before 7 is
			// ever dispatched) from deadlocking; either way 2 must win.
			select {
			case <-highFailed:
			case <-time.After(500 * time.Millisecond):
			}
			return 0, fmt.Errorf("replicate %d failed", r)
		default:
			return r, nil
		}
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	if err.Error() != "replicate 2 failed" {
		t.Errorf("got %q, want the lowest failing replicate's error", err)
	}
}

// TestKAryInnerFanOutMatchesSerial pins the A3 figure runners with one
// replicate, below GOMAXPROCS 2 and 8, the regime where innerParallel turns
// on the 2k³-entry gradient fan-out inside each replicate — the path where
// every goroutine owns a private tensor clone and mat.Workspace. The
// Result must equal the one at GOMAXPROCS 1, where nothing fans out.
func TestKAryInnerFanOutMatchesSerial(t *testing.T) {
	for _, name := range []string{"fig5a", "fig5b"} {
		t.Run(name, func(t *testing.T) {
			requireSameAtProcs(t, func() (*Result, error) {
				return Run(name, Params{Replicates: 1, Seed: 41})
			})
		})
	}
}

// TestFiguresParallelMatchesSerial is the acceptance test for the
// replicate fan-out: every experiment runner must produce exactly the same
// Result — series, points, failure counts — at GOMAXPROCS 2 and 8 as at 1.
// reflect.DeepEqual compares float64s bitwise, so this catches any
// accumulation-order or map-order divergence.
func TestFiguresParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep in -short mode")
	}
	for _, name := range Experiments() {
		t.Run(name, func(t *testing.T) {
			requireSameAtProcs(t, func() (*Result, error) {
				return Run(name, Params{Replicates: 2, Seed: 33})
			})
		})
	}
}
