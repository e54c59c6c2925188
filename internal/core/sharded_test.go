package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"crowdassess/internal/crowd"
	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
)

// responseStream flattens a dataset into a deterministic shuffled list of
// (worker, task, response) submissions.
type submission struct {
	w, t int
	r    crowd.Response
}

func shuffledStream(t testing.TB, ds *crowd.Dataset, seed int64) []submission {
	t.Helper()
	var subs []submission
	for w := 0; w < ds.Workers(); w++ {
		for task := 0; task < ds.Tasks(); task++ {
			if ds.Attempted(w, task) {
				subs = append(subs, submission{w, task, ds.Response(w, task)})
			}
		}
	}
	src := randx.NewSource(seed)
	src.Shuffle(len(subs), func(i, j int) { subs[i], subs[j] = subs[j], subs[i] })
	return subs
}

// TestShardedMatchesIncremental is the tentpole property: for any shard
// count, streaming the same responses must reproduce the batch algorithm's
// intervals and spammer screen bit for bit — not approximately. The merge
// is integer-counter addition, so any divergence at all is a routing or
// merge bug.
func TestShardedMatchesIncremental(t *testing.T) {
	opts := EvalOptions{Confidence: 0.9}
	for seed := int64(0); seed < 4; seed++ {
		src := randx.NewSource(300 + seed)
		ds, _, err := sim.Binary{Tasks: 150, Workers: 8, Density: 0.65}.Generate(src)
		if err != nil {
			t.Fatal(err)
		}
		subs := shuffledStream(t, ds, seed)
		wantTasks := 0
		for _, s := range subs {
			wantTasks = max(wantTasks, s.t+1)
		}
		want, err := EvaluateWorkers(ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		wantDis := ds.MajorityDisagreement()

		for _, shards := range []int{1, 2, 7} {
			sharded, err := NewShardedIncremental(8, shards)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range subs {
				if err := sharded.Add(s.w, s.t, s.r); err != nil {
					t.Fatal(err)
				}
			}
			if sharded.Tasks() != wantTasks || sharded.Responses() != len(subs) {
				t.Fatalf("seed %d shards %d: Tasks/Responses %d/%d vs %d/%d",
					seed, shards, sharded.Tasks(), sharded.Responses(), wantTasks, len(subs))
			}
			got, err := sharded.EvaluateAll(opts)
			if err != nil {
				t.Fatal(err)
			}
			for w := range want {
				if (want[w].Err == nil) != (got[w].Err == nil) {
					t.Fatalf("seed %d shards %d worker %d: error mismatch %v vs %v",
						seed, shards, w, want[w].Err, got[w].Err)
				}
				if want[w].Err != nil {
					continue
				}
				// Bitwise equality, deliberately not a tolerance.
				if got[w].Interval != want[w].Interval || got[w].Triples != want[w].Triples {
					t.Errorf("seed %d shards %d worker %d: %+v (triples %d) vs batch %+v (triples %d)",
						seed, shards, w, got[w].Interval, got[w].Triples, want[w].Interval, want[w].Triples)
				}
				// The one-worker entry point must agree with the fan-out.
				one, err := sharded.Evaluate(w, opts)
				if err != nil {
					t.Fatal(err)
				}
				if one.Interval != got[w].Interval {
					t.Errorf("seed %d shards %d worker %d: Evaluate %+v vs EvaluateAll %+v",
						seed, shards, w, one.Interval, got[w].Interval)
				}
			}
			// Subset evaluation must align with the input order and match
			// the full fan-out slot for slot.
			subset := []int{5, 0, 3}
			subEsts, err := sharded.EvaluateSubset(subset, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range subset {
				if subEsts[i].Worker != w || subEsts[i].Interval != got[w].Interval {
					t.Errorf("seed %d shards %d: EvaluateSubset[%d] = %+v, want worker %d's %+v",
						seed, shards, i, subEsts[i], w, got[w].Interval)
				}
			}
			gotDis := sharded.MajorityDisagreement()
			for w := range wantDis {
				if gotDis[w] != wantDis[w] {
					t.Errorf("seed %d shards %d worker %d: disagreement %v vs %v",
						seed, shards, w, gotDis[w], wantDis[w])
				}
			}
			snap, err := sharded.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			for w := 0; w < ds.Workers(); w++ {
				for task := 0; task < ds.Tasks(); task++ {
					if snap.Response(w, task) != ds.Response(w, task) {
						t.Fatalf("seed %d shards %d: snapshot mismatch at (%d,%d)", seed, shards, w, task)
					}
				}
			}
		}
	}
}

// TestShardedConcurrentAdd ingests from many goroutines while other
// goroutines evaluate and read counters mid-stream, then checks the final
// intervals match the batch algorithm on the same responses. Run under
// -race this is the concurrency-safety acceptance test for the sharded
// evaluator.
func TestShardedConcurrentAdd(t *testing.T) {
	const goroutines = 8
	src := randx.NewSource(55)
	ds, _, err := sim.Binary{Tasks: 240, Workers: 9, Density: 0.7}.Generate(src)
	if err != nil {
		t.Fatal(err)
	}
	subs := shuffledStream(t, ds, 3)

	sharded, err := NewShardedIncremental(9, 4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var stop atomic.Bool
	// Evaluation goroutines interleaved with ingestion: results mid-stream
	// are unspecified (any consistent prefix), but must never race or fail
	// with anything other than per-worker data-insufficiency errors.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := EvalOptions{Confidence: 0.9}
			for !stop.Load() {
				if _, err := sharded.EvaluateAll(opts); err != nil {
					t.Errorf("concurrent EvaluateAll: %v", err)
					return
				}
				sharded.Responses()
				sharded.MajorityDisagreement()
			}
		}()
	}
	var ingest sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		ingest.Add(1)
		go func(g int) {
			defer ingest.Done()
			for i := g; i < len(subs); i += goroutines {
				s := subs[i]
				if err := sharded.Add(s.w, s.t, s.r); err != nil {
					t.Errorf("concurrent Add(%d,%d): %v", s.w, s.t, err)
					return
				}
			}
		}(g)
	}
	ingest.Wait()
	stop.Store(true)
	wg.Wait()

	opts := EvalOptions{Confidence: 0.9}
	want, err := EvaluateWorkers(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded.EvaluateAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	for w := range want {
		if (want[w].Err == nil) != (got[w].Err == nil) || got[w].Interval != want[w].Interval {
			t.Errorf("worker %d after concurrent ingest: %+v vs %+v", w, got[w], want[w])
		}
	}
	if got, want := sharded.Responses(), len(subs); got != want {
		t.Errorf("Responses = %d, want %d", got, want)
	}
}

// TestShardedLazyMerge pins the epoch mechanism: evaluating a quiescent
// pool must reuse the previous merged snapshot, and any Add must
// invalidate it.
func TestShardedLazyMerge(t *testing.T) {
	s, err := NewShardedIncremental(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	mustAdd := func(w, task int, r crowd.Response) {
		t.Helper()
		if err := s.Add(w, task, r); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(0, 0, crowd.Yes)
	mustAdd(1, 0, crowd.Yes)
	mustAdd(2, 0, crowd.No)
	first := s.snapshot()
	if second := s.snapshot(); second != first {
		t.Error("quiescent snapshot was re-merged")
	}
	mustAdd(0, 1, crowd.Yes)
	third := s.snapshot()
	if third == first {
		t.Error("snapshot not invalidated by Add")
	}
	if got := third.stats.pair(0, 1); got.Common != 1 || got.Agree != 1 {
		t.Errorf("merged pair(0,1) = %+v", got)
	}
	if fourth := s.snapshot(); fourth != third {
		t.Error("second quiescent snapshot was re-merged")
	}
}

func TestShardedValidation(t *testing.T) {
	if _, err := NewShardedIncremental(2, 4); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("2 workers: err = %v", err)
	}
	if _, err := NewShardedIncremental(5, 0); err == nil {
		t.Error("0 shards accepted")
	}
	s, err := NewShardedIncremental(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(5, 0, crowd.Yes); err == nil {
		t.Error("out-of-range worker accepted")
	}
	if err := s.Add(0, -1, crowd.Yes); err == nil {
		t.Error("negative task accepted")
	}
	if err := s.Add(0, 0, crowd.Response(3)); err == nil {
		t.Error("non-binary response accepted")
	}
	if err := s.Add(0, 0, crowd.Yes); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(0, 0, crowd.No); err == nil {
		t.Error("duplicate response accepted")
	}
	if _, err := s.Evaluate(9, EvalOptions{Confidence: 0.9}); err == nil {
		t.Error("out-of-range evaluation accepted")
	}
	if _, err := s.Evaluate(0, EvalOptions{Confidence: 0}); err == nil {
		t.Error("confidence 0 accepted")
	}
	if _, err := s.EvaluateAll(EvalOptions{Confidence: 0}); err == nil {
		t.Error("confidence 0 accepted by EvaluateAll")
	}
	if _, err := s.EvaluateSubset([]int{0, 9}, EvalOptions{Confidence: 0.9}); err == nil {
		t.Error("out-of-range subset accepted")
	}
	if ests, err := s.EvaluateSubset(nil, EvalOptions{Confidence: 0.9}); err != nil || len(ests) != 0 {
		t.Errorf("empty subset: %v, %v", ests, err)
	}
	if s.Shards() != 3 {
		t.Errorf("Shards() = %d", s.Shards())
	}
	empty, err := NewShardedIncremental(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.Snapshot(); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("empty snapshot err = %v", err)
	}
}

// BenchmarkShardedIngest measures concurrent ingestion throughput as the
// shard count grows — the scaling claim behind the sharded evaluator. Each
// parallel worker draws a globally unique task index, so every Add hits a
// fresh task (pure routing + lock cost, no duplicate rejections).
func BenchmarkShardedIngest(b *testing.B) {
	const workers = 50
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s, err := NewShardedIncremental(workers, shards)
			if err != nil {
				b.Fatal(err)
			}
			var ctr atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					t := int(ctr.Add(1))
					// b.Error, not b.Fatal: RunParallel bodies run off the
					// benchmark goroutine, where FailNow is not allowed.
					if err := s.Add(t%workers, t, crowd.Yes); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
