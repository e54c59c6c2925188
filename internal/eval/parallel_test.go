package eval

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crowdassess/internal/core"
	"crowdassess/internal/randx"
)

// testProcs are the GOMAXPROCS values the fan-out tests compare: 1 is the
// reference, where one goroutine runs every cell in order.
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

// TestRunGridOrderAndSeeds checks the engine's two contracts: cell
// (pt, r) draws from the source seeded seed+r, and lands in slot [pt][r] —
// at every GOMAXPROCS.
func TestRunGridOrderAndSeeds(t *testing.T) {
	const seed, points, reps = 17, 4, 23
	type cell struct {
		pt int
		v  float64
	}
	want := make([][]cell, points)
	for pt := range want {
		for r := 0; r < reps; r++ {
			want[pt] = append(want[pt], cell{pt, randx.NewSource(seed + int64(r)).Float64()})
		}
	}
	for _, procs := range testProcs {
		atProcs(t, procs)
		got, err := runGrid(seed, points, reps, func(pt int, src *randx.Source, _ *core.Solver) (cell, error) {
			return cell{pt, src.Float64()}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS=%d: results out of order or misseeded", procs)
		}
	}
}

// replicateOf recovers a cell's replicate index from its source by
// matching the first draw against the sources seeded seed+r.
func replicateOf(src *randx.Source, seed int64, reps int) int {
	v := src.Float64()
	for r := 0; r < reps; r++ {
		if randx.NewSource(seed+int64(r)).Float64() == v {
			return r
		}
	}
	return -1
}

// TestRunGridSolverPerGoroutine checks that a cell has its solver to
// itself: no two cells ever hold one solver at once, and there are no more
// solvers than goroutines.
func TestRunGridSolverPerGoroutine(t *testing.T) {
	atProcs(t, 8)
	var mu sync.Mutex
	busy := map[*core.Solver]bool{}
	_, err := runGrid(1, 4, 16, func(pt int, _ *randx.Source, s *core.Solver) (int, error) {
		mu.Lock()
		if busy[s] {
			mu.Unlock()
			return 0, fmt.Errorf("point %d: its solver is in use by another cell", pt)
		}
		busy[s] = true
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		busy[s] = false
		mu.Unlock()
		return pt, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(busy) > 8 {
		t.Errorf("%d solvers for 8 goroutines", len(busy))
	}
}

// TestRunGridFirstError checks that the error surfaced is the one of the
// lowest failing cell in point-major order, regardless of scheduling:
// (point 0, replicate 4) beats (point 1, replicate 0) and (point 0,
// replicate 7).
func TestRunGridFirstError(t *testing.T) {
	const seed, points, reps = 100, 3, 10
	failAt := map[[2]int]bool{{0, 4}: true, {0, 7}: true, {1, 0}: true}
	for _, procs := range testProcs {
		atProcs(t, procs)
		_, err := runGrid(seed, points, reps, func(pt int, src *randx.Source, _ *core.Solver) (int, error) {
			r := replicateOf(src, seed, reps)
			if failAt[[2]int{pt, r}] {
				return 0, fmt.Errorf("cell (%d, %d) failed", pt, r)
			}
			return r, nil
		})
		if err == nil {
			t.Fatalf("GOMAXPROCS=%d: expected an error", procs)
		}
		if err.Error() != "cell (0, 4) failed" {
			t.Errorf("GOMAXPROCS=%d: got %q, want the lowest failing cell", procs, err)
		}
	}
}

// TestRunGridLowFailureAfterHighDispatch pins the queue's determinism
// guarantee in the adversarial schedule: cell 7 fails first, and only then
// does cell 2 — already claimed — fail. The engine must still surface cell
// 2's error, not 7's: a failure only stops cells above the lowest failure
// seen so far, never the ones below it.
func TestRunGridLowFailureAfterHighDispatch(t *testing.T) {
	const seed, reps = 200, 10
	atProcs(t, 8)
	highFailed := make(chan struct{})
	var once sync.Once
	_, err := runGrid(seed, 1, reps, func(_ int, src *randx.Source, _ *core.Solver) (int, error) {
		switch r := replicateOf(src, seed, reps); r {
		case 7:
			once.Do(func() { close(highFailed) })
			return 0, fmt.Errorf("replicate %d failed", r)
		case 2:
			// Hold cell 2's failure until 7's has landed. The timeout
			// fallback keeps single-CPU schedulers (where 2 runs before 7 is
			// ever claimed) from deadlocking; either way 2 must win.
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
		t.Errorf("got %q, want the lowest failing cell's error", err)
	}
}

// TestRunGridOverlapsPoints checks that the queue has no barrier between
// points: at GOMAXPROCS 2, the single cells of two points must run at the
// same time. Each body waits until both have started; an engine that
// finishes one point before starting the next times out.
func TestRunGridOverlapsPoints(t *testing.T) {
	atProcs(t, 2)
	var started atomic.Int32
	both := make(chan struct{})
	_, err := runGrid(1, 2, 1, func(pt int, _ *randx.Source, _ *core.Solver) (int, error) {
		if started.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
			return pt, nil
		case <-time.After(5 * time.Second):
			return 0, fmt.Errorf("point %d ran alone: the other point never started", pt)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestKAryInnerFanOutMatchesSerial pins the A3 figure runners at one
// replicate, the regime where a point has fewer cells than GOMAXPROCS 2
// and 8 have CPUs, so the queue runs cells of different points side by
// side. The Result must equal the one at GOMAXPROCS 1, where one goroutine
// runs every cell in order.
func TestKAryInnerFanOutMatchesSerial(t *testing.T) {
	for _, name := range []string{"fig5a", "fig5b", "fig5c"} {
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
