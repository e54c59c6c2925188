package core

import (
	"fmt"
	"runtime"
	"testing"
	"testing/quick"

	"crowdassess/internal/crowd"
	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
)

// Property: intervals are nested in the confidence level — a higher-c
// interval contains every lower-c interval around the same estimate.
func TestIntervalNestingProperty(t *testing.T) {
	f := func(seed int64) bool {
		src := randx.NewSource(seed)
		ds, _, err := sim.Binary{Tasks: 80, Workers: 5, Density: 0.8}.Generate(src)
		if err != nil {
			return false
		}
		deltas, err := new(Solver).EvaluateWorkersDelta(ds, EvalOptions{})
		if err != nil {
			return false
		}
		for _, d := range deltas {
			if d.Err != nil {
				continue
			}
			prevLo, prevHi := d.Est.Interval(0.05).Lo, d.Est.Interval(0.05).Hi
			for c := 0.1; c < 1; c += 0.1 {
				iv := d.Est.Interval(c)
				if iv.Lo > prevLo+1e-12 || iv.Hi < prevHi-1e-12 {
					return false
				}
				prevLo, prevHi = iv.Lo, iv.Hi
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: more tasks ⇒ (stochastically) tighter intervals. Compared in
// aggregate across seeds to keep the assertion deterministic.
func TestMoreDataTightensIntervals(t *testing.T) {
	var small, large float64
	count := 0
	for seed := int64(0); seed < 25; seed++ {
		srcA := randx.NewSource(900 + seed)
		dsA, _, err := sim.Binary{Tasks: 80, Workers: 5}.Generate(srcA)
		if err != nil {
			t.Fatal(err)
		}
		srcB := randx.NewSource(900 + seed)
		dsB, _, err := sim.Binary{Tasks: 640, Workers: 5}.Generate(srcB)
		if err != nil {
			t.Fatal(err)
		}
		a, err := new(Solver).EvaluateWorkersDelta(dsA, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := new(Solver).EvaluateWorkersDelta(dsB, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for w := range a {
			if a[w].Err != nil || b[w].Err != nil {
				continue
			}
			small += a[w].Est.Interval(0.9).Size()
			large += b[w].Est.Interval(0.9).Size()
			count++
		}
	}
	if count < 100 {
		t.Fatalf("only %d comparisons", count)
	}
	// √8 ≈ 2.8× tighter expected; demand at least 2×.
	if large*2 > small {
		t.Errorf("8× data only tightened %0.2fx (small %v, large %v)",
			small/large, small/float64(count), large/float64(count))
	}
}

// Property: worker relabelling is a symmetry — permuting worker indices
// permutes the estimates but does not change any interval.
func TestWorkerPermutationInvariance(t *testing.T) {
	src := randx.NewSource(3)
	ds, _, err := sim.Binary{Tasks: 150, Workers: 6, Density: 0.8}.Generate(src)
	if err != nil {
		t.Fatal(err)
	}
	perm := []int{4, 2, 0, 5, 1, 3}
	permuted, err := ds.SelectWorkers(perm)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := EvaluateWorkers(ds, EvalOptions{Confidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvaluateWorkers(permuted, EvalOptions{Confidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	for newIdx, oldIdx := range perm {
		a, b := orig[oldIdx], got[newIdx]
		if (a.Err == nil) != (b.Err == nil) {
			t.Fatalf("worker %d: error mismatch under permutation", oldIdx)
		}
		if a.Err != nil {
			continue
		}
		// Triple formation depends only on overlap counts, which are
		// permutation-invariant up to ties; sizes must agree closely.
		if diff := a.Interval.Size() - b.Interval.Size(); diff > 1e-9 || diff < -1e-9 {
			// Ties in the greedy ordering can legitimately flip pairings;
			// accept equal-size-or-tie-break differences below a loose bound.
			if diff > 0.05 || diff < -0.05 {
				t.Errorf("worker %d: size changed under permutation: %v vs %v",
					oldIdx, a.Interval.Size(), b.Interval.Size())
			}
		}
	}
}

// Property: the k-ary estimate is invariant to the order of the two
// partner workers given the same evaluated worker... the spectral method
// uses the workers asymmetrically, so exact invariance is NOT expected;
// this test pins the weaker guarantee that both orderings stay near the
// truth.
func TestKAryPartnerOrderStability(t *testing.T) {
	src := randx.NewSource(4)
	confs := []sim.Confusion{
		sim.PaperMatricesArity2[0],
		sim.PaperMatricesArity2[1],
		sim.PaperMatricesArity2[2],
	}
	ds, _, err := sim.KAry{Tasks: 3000, Workers: 3, Confusions: confs}.Generate(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ThreeWorkerKAry(ds, [3]int{0, 1, 2}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ThreeWorkerKAry(ds, [3]int{0, 2, 1}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			da := a.Prob[0].At(i, j) - confs[0][i][j]
			db := b.Prob[0].At(i, j) - confs[0][i][j]
			if da > 0.06 || da < -0.06 || db > 0.06 || db < -0.06 {
				t.Errorf("P(%d,%d): orderings deviate %v / %v from truth", i, j, da, db)
			}
		}
	}
}

// Property: EvaluateWorkers, which fans the workers out over every CPU,
// returns bit-identical results to one serial Solver at any GOMAXPROCS.
func TestParallelMatchesSerial(t *testing.T) {
	src := randx.NewSource(5)
	ds, _, err := sim.Binary{Tasks: 200, Workers: 15, Density: 0.7}.Generate(src)
	if err != nil {
		t.Fatal(err)
	}
	const c = 0.9
	deltas, err := new(Solver).EvaluateWorkersDelta(ds, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	serial := make([]WorkerEstimate, len(deltas))
	for w, d := range deltas {
		serial[w] = finishEstimate(d, c)
	}
	procs := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		parallel, err := EvaluateWorkers(ds, EvalOptions{Confidence: c})
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("EvaluateWorkers at GOMAXPROCS %d", procs), parallel, serial)
	}
}

// Property: a dataset whose responses all agree yields zero estimated
// error rates (the q → 1 limit of Equation 1).
func TestPerfectAgreementLimit(t *testing.T) {
	ds := crowd.MustNewDataset(3, 50, 2)
	for task := 0; task < 50; task++ {
		for w := 0; w < 3; w++ {
			_ = ds.SetResponse(w, task, crowd.Yes)
		}
	}
	ivs, err := ThreeWorkerBinary(ds, [3]int{0, 1, 2}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	for w, iv := range ivs {
		if iv.Mean != 0 {
			t.Errorf("worker %d mean %v, want 0", w, iv.Mean)
		}
		if iv.Size() > 1e-9 {
			t.Errorf("worker %d interval %v not degenerate at 0", w, iv)
		}
	}
}

// Property: a shard counts each pair once, in the upper triangle, so for
// i < j the shards' [i][j] counters summed are the pair's statistics —
// what Attendance.Pair counts by popcount over the same responses — and
// every [j][i] stays zero. It holds for shuffled dense and sparse
// histories, after RestoreCompact rebuilds the shards from a checkpoint,
// and after more ingest on top of the restore.
func TestShardCountersMatchAttendanceProperty(t *testing.T) {
	for _, tc := range []struct {
		name           string
		workers, tasks int
		density        float64
	}{
		{"dense", 64, 240, 0.8},
		{"sparse", 128, 800, 0.1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds, _, err := sim.Binary{Tasks: tc.tasks, Workers: tc.workers, Density: tc.density}.Generate(randx.NewSource(13))
			if err != nil {
				t.Fatal(err)
			}
			subs := shuffledStream(t, ds, 13)
			part := crowd.MustNewDataset(tc.workers, tc.tasks, ds.Arity())
			ingest := func(s *ShardedIncremental, subs []submission) {
				for _, x := range subs {
					if err := s.Add(x.w, x.t, x.r); err != nil {
						t.Fatal(err)
					}
					if err := part.SetResponse(x.w, x.t, x.r); err != nil {
						t.Fatal(err)
					}
				}
			}
			cut := 2 * len(subs) / 3
			s, err := NewShardedIncremental(tc.workers, 3)
			if err != nil {
				t.Fatal(err)
			}
			ingest(s, subs[:cut])
			requireShardCounters(t, "after ingest", s, part)
			restored, err := NewShardedIncremental(tc.workers, 3)
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.RestoreCompact(s.CompactCheckpoint()); err != nil {
				t.Fatal(err)
			}
			requireShardCounters(t, "after restore", restored, part)
			ingest(restored, subs[cut:])
			requireShardCounters(t, "after ingest on the restore", restored, part)
		})
	}
}

// requireShardCounters requires s's shard counters to be the upper
// triangle of ds's pair statistics, summed over the shards.
func requireShardCounters(t *testing.T, label string, s *ShardedIncremental, ds *crowd.Dataset) {
	t.Helper()
	att := ds.Attendance()
	for i := 0; i < s.workers; i++ {
		for j := i + 1; j < s.workers; j++ {
			var got crowd.PairStats
			for _, sh := range s.shards {
				got.Agree += sh.stats.agree[i][j]
				got.Common += sh.stats.common[i][j]
				if sh.stats.agree[j][i] != 0 || sh.stats.common[j][i] != 0 {
					t.Fatalf("%s: a shard counts pair (%d,%d) below the diagonal", label, i, j)
				}
			}
			if want := att.Pair(i, j); got != want {
				t.Fatalf("%s: shard counters for pair (%d,%d) sum to %+v, attendance gives %+v", label, i, j, got, want)
			}
		}
	}
}
