package core

import (
	"errors"
	"fmt"
	"math"
	mathbits "math/bits"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// wideCrowd generates a 130-worker crowd, so each task column has three
// attendance words, the last one partial. Task 0's vote is balanced into a
// tie between the low and the high workers, which exercises the majority
// tie-break beyond worker 64.
func wideCrowd(t testing.TB, tasks int, density float64, seed int64) *crowd.Dataset {
	t.Helper()
	ds, _, err := sim.Binary{Tasks: tasks, Workers: 130, Density: density}.Generate(randx.NewSource(seed))
	if err != nil {
		t.Fatal(err)
	}
	var responders []int
	for w := 0; w < ds.Workers(); w++ {
		if ds.Attempted(w, 0) {
			responders = append(responders, w)
		}
	}
	if len(responders)%2 == 1 {
		last := responders[len(responders)-1]
		responders = responders[:len(responders)-1]
		if err := ds.SetResponse(last, 0, crowd.None); err != nil {
			t.Fatal(err)
		}
	}
	if len(responders) < 2 || responders[len(responders)-1] < 64 {
		t.Fatalf("seed %d: task 0 has responders %v, too few for a tie beyond worker 64", seed, responders)
	}
	for i, w := range responders {
		r := crowd.Yes
		if 2*i >= len(responders) {
			r = crowd.No
		}
		if err := ds.SetResponse(w, 0, r); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

// compactDataset materializes the responses behind a compact checkpoint
// as a Dataset: the attendance bitsets say who answered which task and the
// answer bitsets what they answered.
func compactDataset(cs *CompactState) (*crowd.Dataset, error) {
	tasks, _ := attendanceTotals(cs.Responded)
	if tasks == 0 {
		return nil, fmt.Errorf("core: no responses recorded: %w", ErrInsufficientData)
	}
	ds, err := crowd.NewDataset(len(cs.Responded), tasks, 2)
	if err != nil {
		return nil, err
	}
	for w, attended := range cs.Responded {
		answers := dynBitset(cs.Answers[w])
		for k, word := range attended {
			for ; word != 0; word &= word - 1 {
				task := 64*k + mathbits.TrailingZeros64(word)
				answer := crowd.No
				if answers.get(task) {
					answer = crowd.Yes
				}
				if err := ds.SetResponse(w, task, answer); err != nil {
					return nil, err
				}
			}
		}
	}
	return ds, nil
}

// TestShardedMatchesIncremental is the tentpole property: for any shard
// count, streaming the same responses must reproduce the batch algorithm's
// intervals and spammer screen bit for bit — not approximately. The merge
// is integer-counter addition, so any divergence at all is a routing or
// merge bug. The last crowd has 130 workers, so task columns span three
// words and one task's vote is tied.
func TestShardedMatchesIncremental(t *testing.T) {
	opts := EvalOptions{Confidence: 0.9}
	var crowds []*crowd.Dataset
	for seed := int64(0); seed < 4; seed++ {
		src := randx.NewSource(300 + seed)
		ds, _, err := sim.Binary{Tasks: 150, Workers: 8, Density: 0.65}.Generate(src)
		if err != nil {
			t.Fatal(err)
		}
		crowds = append(crowds, ds)
	}
	crowds = append(crowds, wideCrowd(t, 200, 0.3, 304))
	for seed, ds := range crowds {
		subs := shuffledStream(t, ds, int64(seed))
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
			sharded, err := NewShardedIncremental(ds.Workers(), shards)
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
			snap, err := compactDataset(sharded.CompactCheckpoint())
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

// batchOf converts submissions to an AddBatch argument.
func batchOf(subs []submission) []Response {
	rs := make([]Response, len(subs))
	for i, s := range subs {
		rs[i] = Response{Worker: s.w, Task: s.t, Answer: s.r}
	}
	return rs
}

// TestAddBatchMatchesAdd pins AddBatch to one Add per response: fed the
// same stream in batches of 1, 7 and 256, an evaluator holds the same
// shard state, field by field, and reads the same intervals bit for bit,
// at 1, 2 and 7 shards and on both sides of the 64-worker word boundary.
func TestAddBatchMatchesAdd(t *testing.T) {
	small, _, err := sim.Binary{Tasks: 300, Workers: 5, Density: 0.7}.Generate(randx.NewSource(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range []*crowd.Dataset{small, wideCrowd(t, 90, 0.6, 9)} {
		subs := shuffledStream(t, ds, 4)
		for _, shards := range []int{1, 2, 7} {
			t.Run(fmt.Sprintf("workers=%d/shards=%d", ds.Workers(), shards), func(t *testing.T) {
				one, err := NewShardedIncremental(ds.Workers(), shards)
				if err != nil {
					t.Fatal(err)
				}
				batched, err := NewShardedIncremental(ds.Workers(), shards)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range subs {
					if err := one.Add(s.w, s.t, s.r); err != nil {
						t.Fatal(err)
					}
				}
				sizes := []int{1, 7, 256}
				for lo, k := 0, 0; lo < len(subs); k++ {
					hi := min(lo+sizes[k%len(sizes)], len(subs))
					if err := batched.AddBatch(batchOf(subs[lo:hi])); err != nil {
						t.Fatalf("batch [%d, %d): %v", lo, hi, err)
					}
					lo = hi
				}
				requireSameShards(t, batched, one)
				requireSameReads(t, batched, one)
			})
		}
	}
}

// TestAddBatchChecksWholeBatch pins AddBatch's refusals: an invalid
// response or one already recorded, anywhere in a batch that spans every
// shard, leaves the evaluator exactly as it was. A batch repeating a pair
// within itself is refused at the repeat: the shards before the repeat's
// hold their whole part of the batch, its own shard the part before it,
// and the shards after nothing.
func TestAddBatchChecksWholeBatch(t *testing.T) {
	const workers, shards = 4, 3
	prior := []submission{{0, 0, crowd.Yes}, {1, 5, crowd.No}}
	fresh := func(t *testing.T, subs ...submission) *ShardedIncremental {
		t.Helper()
		s, err := NewShardedIncremental(workers, shards)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range subs {
			if err := s.Add(x.w, x.t, x.r); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	var spread []submission // worker 2 on tasks 10…39: every shard gets some
	hit := make([]bool, shards)
	for task := 10; task < 40; task++ {
		spread = append(spread, submission{2, task, crowd.Response(1 + task%2)})
		hit[fresh(t).shardIndex(task)] = true
	}
	if slices.Contains(hit, false) {
		t.Fatalf("tasks 10…39 miss a shard: %v", hit)
	}
	with := func(x submission) []Response {
		return batchOf(append(slices.Clone(spread), x))
	}
	for _, c := range []struct {
		name  string
		batch []Response
		is    error
	}{
		{"worker out of range", with(submission{workers, 50, crowd.Yes}), nil},
		{"negative task", with(submission{3, -1, crowd.Yes}), nil},
		{"task past MaxTask", with(submission{3, MaxTask + 1, crowd.Yes}), nil},
		{"non-binary answer", with(submission{3, 50, crowd.Response(3)}), crowd.ErrArity},
		{"already recorded", with(prior[1]), nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := fresh(t, prior...)
			err := s.AddBatch(c.batch)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("batch response %d", len(spread))) {
				t.Fatalf("err = %v, want a refusal of batch response %d", err, len(spread))
			}
			if c.is != nil && !errors.Is(err, c.is) {
				t.Errorf("err = %v, want %v", err, c.is)
			}
			requireSameShards(t, s, fresh(t, prior...))
		})
	}

	t.Run("repeat within the batch", func(t *testing.T) {
		s := fresh(t, prior...)
		want := fresh(t, prior...)
		cut, err := want.CutStats(0)
		if err != nil {
			t.Fatal(err)
		}
		// Response 3 comes back at the end of the batch, so every other
		// shard's run passes its check first. A one-shard evaluator, whose
		// run is the whole batch, refuses it too.
		batch := batchOf(append(slices.Clone(spread), spread[3]))
		one, _ := NewIncremental(workers)
		for _, ev := range []*ShardedIncremental{s, one} {
			err := ev.AddBatch(batch)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("batch response %d: worker 2 already answered task %d earlier in the batch", len(spread), spread[3].t)) {
				t.Fatalf("err = %v, want the repeat of batch response 3 refused", err)
			}
		}
		if one.Responses() != 0 {
			t.Errorf("the one-shard evaluator holds %d responses, want 0", one.Responses())
		}
		if got := s.Responses(); got != len(prior) {
			t.Errorf("Responses() = %d after the refused batch, want %d", got, len(prior))
		}
		got, err := s.CutStats(0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Digest != cut.Digest {
			t.Errorf("cut digest %x after the refused batch, want %x", got.Digest, cut.Digest)
		}
		requireSameShards(t, s, want)
	})

	t.Run("valid batch", func(t *testing.T) {
		s := fresh(t, prior...)
		if err := s.AddBatch(batchOf(spread)); err != nil {
			t.Fatal(err)
		}
		if err := s.AddBatch(nil); err != nil {
			t.Fatalf("empty batch: %v", err)
		}
		requireSameShards(t, s, fresh(t, append(slices.Clone(prior), spread...)...))
	})
}

// TestAddBatchCheckZeroAllocs asserts that AddBatch's check pass, the
// repeat check included, allocates nothing once a shard has checked a
// batch of the same size.
func TestAddBatchCheckZeroAllocs(t *testing.T) {
	s, _ := NewIncremental(8)
	var batch []Response
	for task := 0; task < 256; task++ {
		batch = append(batch, Response{Worker: task % 8, Task: task / 2, Answer: crowd.Yes})
	}
	check := func() {
		if err := s.passOver(batch, nil, s.shards[0], false); err != nil {
			t.Fatal(err)
		}
	}
	check()
	if allocs := testing.AllocsPerRun(20, check); allocs != 0 {
		t.Errorf("AddBatch's check pass allocates %.1f times per batch, want 0", allocs)
	}
}

// TestShardedConcurrentAddBatch ingests in batches from several goroutines
// while others read, then checks the final intervals against the batch
// algorithm. Run under -race it is AddBatch's concurrency-safety test.
func TestShardedConcurrentAddBatch(t *testing.T) {
	const goroutines, size = 4, 16
	ds, _, err := sim.Binary{Tasks: 240, Workers: 9, Density: 0.7}.Generate(randx.NewSource(56))
	if err != nil {
		t.Fatal(err)
	}
	subs := shuffledStream(t, ds, 5)
	sharded, err := NewShardedIncremental(9, 4)
	if err != nil {
		t.Fatal(err)
	}
	var reads sync.WaitGroup
	var stop atomic.Bool
	reads.Add(1)
	go func() {
		defer reads.Done()
		for !stop.Load() {
			if _, err := sharded.EvaluateAll(EvalOptions{Confidence: 0.9}); err != nil {
				t.Errorf("concurrent EvaluateAll: %v", err)
				return
			}
			sharded.MajorityDisagreement()
		}
	}()
	var ingest sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		ingest.Add(1)
		go func(g int) {
			defer ingest.Done()
			for lo := g * size; lo < len(subs); lo += goroutines * size {
				if err := sharded.AddBatch(batchOf(subs[lo:min(lo+size, len(subs))])); err != nil {
					t.Errorf("concurrent AddBatch at %d: %v", lo, err)
					return
				}
			}
		}(g)
	}
	ingest.Wait()
	stop.Store(true)
	reads.Wait()

	opts := EvalOptions{Confidence: 0.9}
	want, err := EvaluateWorkers(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded.EvaluateAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameEstimates(t, got, want)
}

// TestShardedLazyMerge pins the epoch mechanism: evaluating a quiescent
// pool must reuse the previous merge, and any Add must invalidate it. A
// rebuild writes the published merge in place, so the test marks the
// merge's task horizon: a mark that survives a read shows that the read
// did not re-merge.
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
	first.tasks = -1
	if second := s.snapshot(); second != first || second.tasks != -1 {
		t.Error("quiescent snapshot was re-merged")
	}
	mustAdd(0, 1, crowd.Yes)
	third := s.snapshot()
	if third.tasks != 2 || third.responses != 4 {
		t.Errorf("snapshot not invalidated by Add: %d tasks, %d responses", third.tasks, third.responses)
	}
	if got := third.stats.pair(0, 1); got.Common != 1 || got.Agree != 1 {
		t.Errorf("merged pair(0,1) = %+v", got)
	}
	third.tasks = -1
	if fourth := s.snapshot(); fourth != third || fourth.tasks != -1 {
		t.Error("second quiescent snapshot was re-merged")
	}
}

// TestShardedRebuildSkipsHeldMerge: a rebuild never waits for a solve.
// While the test holds the published merge's lock, as a solve does, an Add
// and then a read still return, on the other accumulator, and the held
// merge is left exactly as it was.
func TestShardedRebuildSkipsHeldMerge(t *testing.T) {
	s, err := NewShardedIncremental(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 4; w++ {
		if err := s.Add(w, 0, crowd.Yes); err != nil {
			t.Fatal(err)
		}
	}
	held := s.snapshot()
	before := held.Clone()
	held.mu.Lock()
	read := make(chan *StatsAccumulator, 1)
	go func() {
		if err := s.Add(0, 1, crowd.No); err != nil {
			t.Error(err)
		}
		if _, err := s.EvaluateSubset([]int{0, 3}, EvalOptions{Confidence: 0.9}); err != nil {
			t.Error(err)
		}
		read <- s.snapshot()
	}()
	var got *StatsAccumulator
	select {
	case got = <-read:
	case <-time.After(10 * time.Second):
	}
	held.mu.Unlock()
	switch {
	case got == nil:
		t.Fatal("the read after an Add waited for the held merge")
	case got == held:
		t.Fatal("the read returned the held merge")
	case got.Responses() != 5:
		t.Fatalf("the read's merge holds %d responses, want 5", got.Responses())
	}
	if !sameStats(held, before) {
		t.Fatal("the held merge changed")
	}
}

// checkStateConsistent verifies that an accumulator holds one
// point-in-time merge: symmetric counters with agree never above common,
// every pairwise common count equal to the overlap of the two attendance
// bitsets, and the response total equal to the attendance bits set. A
// merge rebuilt while it was being read breaks these.
func checkStateConsistent(a *StatsAccumulator) error {
	e := a.stats
	bits := 0
	for i := 0; i < a.workers; i++ {
		for _, word := range e.responded[i] {
			bits += mathbits.OnesCount64(word)
		}
		for j := 0; j < a.workers; j++ {
			if e.common[i][j] != e.common[j][i] || e.agree[i][j] != e.agree[j][i] || e.agree[i][j] < 0 || e.agree[i][j] > e.common[i][j] {
				return fmt.Errorf("pair (%d,%d): common %d/%d agree %d/%d", i, j, e.common[i][j], e.common[j][i], e.agree[i][j], e.agree[j][i])
			}
			if i == j {
				continue
			}
			overlap := 0
			ri, rj := e.responded[i], e.responded[j]
			for k := 0; k < min(len(ri), len(rj)); k++ {
				overlap += mathbits.OnesCount64(ri[k] & rj[k])
			}
			if overlap != e.common[i][j] {
				return fmt.Errorf("pair (%d,%d): common %d, attendance overlap %d", i, j, e.common[i][j], overlap)
			}
		}
	}
	if bits != a.responses {
		return fmt.Errorf("%d responses, %d attendance bits", a.responses, bits)
	}
	return nil
}

// TestShardedRecycledMergeConcurrent runs Add, EvaluateSubset and copies
// of the published merge concurrently, so merges are rebuilt in place or
// into the spare while other reads hold theirs. Every copy must be a
// consistent merge, and the final intervals must equal the batch algorithm's bit for
// bit. Under -race this is the safety test for merge recycling.
func TestShardedRecycledMergeConcurrent(t *testing.T) {
	const workers = 10
	ds, _, err := sim.Binary{Tasks: 300, Workers: workers, Density: 0.6}.Generate(randx.NewSource(91))
	if err != nil {
		t.Fatal(err)
	}
	subs := shuffledStream(t, ds, 5)
	opts := EvalOptions{Confidence: 0.9}
	want, err := EvaluateWorkers(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		s, err := NewShardedIncremental(workers, shards)
		if err != nil {
			t.Fatal(err)
		}
		var readers sync.WaitGroup
		var stop atomic.Bool
		readers.Add(2)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				if _, err := s.EvaluateSubset([]int{0, 3, 7, 9}, opts); err != nil {
					t.Errorf("shards %d: concurrent EvaluateSubset: %v", shards, err)
					return
				}
			}
		}()
		go func() {
			defer readers.Done()
			for !stop.Load() {
				if err := checkStateConsistent(s.snapshot().Clone()); err != nil {
					t.Errorf("shards %d: concurrent copy of the merge: %v", shards, err)
					return
				}
			}
		}()
		var ingest sync.WaitGroup
		for g := 0; g < 2; g++ {
			ingest.Add(1)
			go func(g int) {
				defer ingest.Done()
				for i := g; i < len(subs); i += 2 {
					if err := s.Add(subs[i].w, subs[i].t, subs[i].r); err != nil {
						t.Errorf("shards %d: concurrent Add: %v", shards, err)
						return
					}
					if i%16 == g {
						if _, err := s.Evaluate(subs[i].w, opts); err != nil {
							t.Errorf("shards %d: concurrent Evaluate: %v", shards, err)
							return
						}
					}
				}
			}(g)
		}
		ingest.Wait()
		stop.Store(true)
		readers.Wait()
		got, err := s.EvaluateAll(opts)
		if err != nil {
			t.Fatal(err)
		}
		for w := range want {
			g, b := got[w], want[w]
			if (g.Err == nil) != (b.Err == nil) || g.Triples != b.Triples ||
				math.Float64bits(g.Interval.Lo) != math.Float64bits(b.Interval.Lo) ||
				math.Float64bits(g.Interval.Hi) != math.Float64bits(b.Interval.Hi) ||
				math.Float64bits(g.Interval.Mean) != math.Float64bits(b.Interval.Mean) {
				t.Errorf("shards %d worker %d: %+v, batch %+v", shards, w, g, b)
			}
		}
	}
}

// TestIncrementalMergeMatchesRebuild pins the incremental merge: a read
// ORs in only the attendance words marked since its merge slot last read
// each shard, yet whichever slot it lands in, the merge must equal one
// rebuilt from the shards from scratch, bitset lengths included. Held
// merges push reads onto the spare, so both slots fall behind and catch
// up; a restore into an evaluator read while empty must be read whole.
func TestIncrementalMergeMatchesRebuild(t *testing.T) {
	ds := wideCrowd(t, 400, 0.5, 21)
	subs := shuffledStream(t, ds, 6)
	s, err := NewShardedIncremental(ds.Workers(), 3)
	if err != nil {
		t.Fatal(err)
	}
	check := func(s *ShardedIncremental, when string) {
		t.Helper()
		// Not Clone: the published merge may be the one the test holds.
		m := s.snapshot()
		want := newStatsAccumulator(s.workers)
		for _, sh := range s.shards {
			want.stats.addFrom(sh.stats)
			want.tasks = max(want.tasks, sh.tasks)
			want.responses += sh.responses
		}
		want.stats.mirror()
		same := m.tasks == want.tasks && m.responses == want.responses
		for w := 0; same && w < s.workers; w++ {
			same = slices.Equal(m.stats.agree[w], want.stats.agree[w]) && slices.Equal(m.stats.common[w], want.stats.common[w]) &&
				slices.Equal(m.stats.responded[w], want.stats.responded[w])
		}
		if !same {
			t.Fatalf("%s: the merge differs from a rebuild", when)
		}
	}
	var held *StatsAccumulator
	for i, x := range subs {
		if err := s.Add(x.w, x.t, x.r); err != nil {
			t.Fatal(err)
		}
		switch {
		case i%97 == 50:
			held = s.snapshot()
			held.mu.Lock()
		case i%97 == 80:
			held.mu.Unlock()
		}
		if i%29 == 0 {
			check(s, fmt.Sprintf("after %d responses", i+1))
		}
	}
	check(s, "at the end")
	if s.spare == nil {
		t.Fatal("no read landed on the spare")
	}

	r, err := NewShardedIncremental(ds.Workers(), 3)
	if err != nil {
		t.Fatal(err)
	}
	check(r, "empty")
	if err := r.RestoreCompact(s.CompactCheckpoint()); err != nil {
		t.Fatal(err)
	}
	check(r, "after the restore")
	requireSameReads(t, r, s)
}

// TestShardedMergeRecycles checks that a steady Add-then-read stream
// rebuilds its merge into the same accumulator instead of allocating a new
// one, and that a merge a solve holds is never written.
func TestShardedMergeRecycles(t *testing.T) {
	const workers = 64
	ds, _, err := sim.Binary{Tasks: 2000, Workers: workers, Density: 0.5}.Generate(randx.NewSource(17))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewShardedIncremental(workers, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Preload most of the stream; the cycles below add the rest one
	// response at a time.
	subs := shuffledStream(t, ds, 4)
	const cycles = 200
	rest := subs[len(subs)-cycles-16:]
	for _, sub := range subs[:len(subs)-len(rest)] {
		if err := s.Add(sub.w, sub.t, sub.r); err != nil {
			t.Fatal(err)
		}
	}
	opts := EvalOptions{Confidence: 0.9}
	next := 0
	cycle := func() {
		sub := rest[next]
		next++
		if err := s.Add(sub.w, sub.t, sub.r); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Evaluate(sub.w, opts); err != nil {
			t.Fatal(err)
		}
	}

	// A merge whose lock is held, as a solve holds it, is not rebuilt,
	// and none of its contents change.
	held := s.snapshot()
	before := held.Clone()
	held.mu.Lock()
	for i := 0; i < 8; i++ {
		cycle()
	}
	if s.merged == held {
		t.Fatal("a merge was rebuilt into an accumulator a solve holds")
	}
	held.mu.Unlock()
	if !sameStats(held, before) {
		t.Fatal("a held merge changed")
	}

	cycle() // settle: nothing holds the published merge from here on
	recycled := s.merged
	stateBytes := 2 * workers * workers * mathbits.UintSize / 8
	for w := 0; w < workers; w++ {
		stateBytes += 8 * len(recycled.stats.responded[w])
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&m1)
	if s.merged != recycled {
		t.Error("a merge no solve holds was not rebuilt in place")
	}
	perCycle := int(m1.TotalAlloc-m0.TotalAlloc) / cycles
	t.Logf("%d bytes allocated per cycle; a merged state is %d bytes", perCycle, stateBytes)
	if perCycle > stateBytes/16 {
		t.Errorf("Add then Evaluate allocates %d bytes per cycle; a merged state is %d bytes", perCycle, stateBytes)
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
	if _, err := compactDataset(empty.CompactCheckpoint()); !errors.Is(err, ErrInsufficientData) {
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
