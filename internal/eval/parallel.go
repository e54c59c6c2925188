package eval

import (
	"runtime"
	"sync"
	"sync/atomic"

	"crowdassess/internal/randx"
)

// innerParallel decides whether a run should also fan out the estimator
// loops inside each replicate. When the replicate count alone saturates
// every CPU, nested fan-out only adds scheduler contention and
// per-goroutine scratch clones; the inner level pays off when replicates
// are too few to fill the machine. Either way results are byte-identical,
// so this is purely a scheduling decision.
func innerParallel(reps int) bool {
	return reps < runtime.GOMAXPROCS(0)
}

// runReplicates is the deterministic fan-out engine behind every figure
// runner and sweep. It executes body once per replicate r ∈ [0, reps),
// each with its own random source seeded seed+r, and returns the
// per-replicate results indexed by r.
//
// The replicates are spread across min(GOMAXPROCS, reps) goroutines.
// Every replicate owns its source and writes only its own result slot, and
// callers merge the returned slice in replicate order, so the output is
// byte-identical at every GOMAXPROCS, including 1.
//
// When any replicate fails, the error of the lowest-numbered failing
// replicate is returned, whatever the schedule.
func runReplicates[T any](seed int64, reps int, body func(src *randx.Source) (T, error)) ([]T, error) {
	out := make([]T, reps)
	errs := make([]error, reps)
	workers := min(runtime.GOMAXPROCS(0), reps)
	next := make(chan int)
	var wg sync.WaitGroup
	// Once any replicate fails the run's result is discarded, so replicates
	// above the failure are skipped rather than computed — both by the
	// executors and by the feed loop, which stops dispatching instead of
	// churning the channel through the remaining indices. minFail tracks the
	// lowest failing replicate seen so far; anything at or below it must
	// still run, because a lower index could fail too and the lowest failing
	// replicate's error is the one returned. Replicates are deterministic in
	// their seed, so the lowest failing index f is fixed; every r < f runs
	// (none can be skipped: skipping requires r > minFail ≥ f > r, a
	// contradiction), f itself runs for the same reason, and the scan below
	// therefore returns errs[f] regardless of scheduling.
	minFail := atomic.Int64{}
	minFail.Store(int64(reps))
	recordFailure := func(r int) {
		for {
			cur := minFail.Load()
			if int64(r) >= cur || minFail.CompareAndSwap(cur, int64(r)) {
				return
			}
		}
	}
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range next {
				if int64(r) > minFail.Load() {
					continue
				}
				out[r], errs[r] = body(randx.NewSource(seed + int64(r)))
				if errs[r] != nil {
					recordFailure(r)
				}
			}
		}()
	}
	for r := 0; r < reps; r++ {
		if int64(r) > minFail.Load() {
			break
		}
		next <- r
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
