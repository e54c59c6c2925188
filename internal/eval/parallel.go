package eval

import (
	"runtime"
	"sync"
	"sync/atomic"

	"crowdassess/internal/core"
	"crowdassess/internal/randx"
)

// runGrid is the deterministic fan-out engine behind every figure runner
// and sweep. A figure is a grid of cells: each of its points (a series
// value, a density, a dataset) runs reps replicates. runGrid executes body
// once per cell (pt, r), with a random source seeded seed+r, and returns
// the results indexed [pt][r].
//
// One queue of min(GOMAXPROCS, points·reps) goroutines drains every cell
// in point-major order, with no barrier between points, so the last
// replicates of one point overlap the first of the next. Each goroutine
// keeps one core.Solver and hands it to every cell it runs; a cell solves
// only through it, and a solver's results never depend on what it solved
// before. Every cell owns its source and writes only its own slot, and
// callers merge the result in point order and then replicate order, so
// the output is byte-identical at every GOMAXPROCS, including 1.
//
// When any cell fails, the error of the lowest failing cell in point-major
// order is returned, whatever the schedule.
func runGrid[T any](seed int64, points, reps int, body func(pt int, src *randx.Source, s *core.Solver) (T, error)) ([][]T, error) {
	cells := points * reps
	flat := make([]T, cells)
	errs := make([]error, cells)
	// Once any cell fails the run's result is discarded, so cells above the
	// failure are skipped rather than computed. Cells are claimed in index
	// order and minFail, the lowest failing index seen so far, only falls,
	// so a goroutine that claims a cell above it can stop: every later
	// claim is above it too. Cells are deterministic in their seed, so the
	// lowest failing index f is fixed; every cell i ≤ f runs (skipping it
	// requires i > minFail ≥ f), and the scan below returns errs[f]
	// regardless of scheduling.
	var next, minFail atomic.Int64
	minFail.Store(int64(cells))
	recordFailure := func(i int64) {
		for {
			cur := minFail.Load()
			if i >= cur || minFail.CompareAndSwap(cur, i) {
				return
			}
		}
	}
	var wg sync.WaitGroup
	for g := min(runtime.GOMAXPROCS(0), cells); g > 0; g-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s core.Solver
			for {
				i := next.Add(1) - 1
				if i >= int64(cells) || i > minFail.Load() {
					return
				}
				pt, r := int(i)/reps, int(i)%reps
				flat[i], errs[i] = body(pt, randx.NewSource(seed+int64(r)), &s)
				if errs[i] != nil {
					recordFailure(i)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make([][]T, points)
	for pt := range out {
		out[pt] = flat[pt*reps : (pt+1)*reps : (pt+1)*reps]
	}
	return out, nil
}
