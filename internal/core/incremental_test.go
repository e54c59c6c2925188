package core

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"testing"

	"crowdassess/internal/crowd"
	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
)

// feedDataset streams every response of ds into inc in a scrambled order.
func feedDataset(t *testing.T, inc *ShardedIncremental, ds *crowd.Dataset, seed int64) {
	t.Helper()
	for _, s := range shuffledStream(t, ds, seed) {
		if err := inc.Add(s.w, s.t, s.r); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIncrementalMatchesBatch is the core equivalence property: streaming
// the responses in any order, into any number of shards, must reproduce
// the batch algorithm's intervals bit for bit — Float64bits equality, not
// a tolerance. The batch EvaluateWorkers shares no streaming code, so it is
// the independent reference every streaming test is pinned against. The
// densities straddle the ¼ attendance switch between restricted and
// full-horizon triple counting.
func TestIncrementalMatchesBatch(t *testing.T) {
	const workers, tasks = 12, 400
	opts := EvalOptions{Confidence: 0.9}
	shardCounts := []int{1, 2, 7}
	for _, density := range []float64{0.1, 0.2, 0.7} {
		solved := 0
		for seed := int64(0); seed < 6; seed++ {
			ds, _, err := sim.Binary{Tasks: tasks, Workers: workers, Density: density}.Generate(randx.NewSource(100 + seed))
			if err != nil {
				t.Fatal(err)
			}
			batch, err := EvaluateWorkers(ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range shardCounts {
				ev, err := NewShardedIncremental(workers, shards)
				if err != nil {
					t.Fatal(err)
				}
				feedDataset(t, ev, ds, seed)
				stream, err := ev.EvaluateAll(opts)
				if err != nil {
					t.Fatal(err)
				}
				for w := range batch {
					b, s := batch[w], stream[w]
					where := fmt.Sprintf("density %v seed %d shards %d worker %d", density, seed, shards, w)
					if fmt.Sprint(b.Err) != fmt.Sprint(s.Err) {
						t.Fatalf("%s: error %v, batch %v", where, s.Err, b.Err)
					}
					if math.Float64bits(b.Interval.Lo) != math.Float64bits(s.Interval.Lo) ||
						math.Float64bits(b.Interval.Hi) != math.Float64bits(s.Interval.Hi) ||
						b.Triples != s.Triples {
						t.Errorf("%s: %v (triples %d), batch %v (triples %d)",
							where, s.Interval, s.Triples, b.Interval, b.Triples)
					}
					if s.Err == nil {
						solved++
					}
				}
			}
		}
		// Guard against a vacuous pass where every worker errors out.
		if solved < len(shardCounts)*workers {
			t.Errorf("density %v: only %d intervals solved", density, solved)
		}
	}
}

func TestIncrementalValidation(t *testing.T) {
	if _, err := NewIncremental(2); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("2 workers: err = %v", err)
	}
	inc, err := NewIncremental(3)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Shards() != 1 {
		t.Errorf("NewIncremental built %d shards, want 1", inc.Shards())
	}
	if err := inc.Add(5, 0, crowd.Yes); err == nil {
		t.Error("out-of-range worker accepted")
	}
	if err := inc.Add(0, -1, crowd.Yes); err == nil {
		t.Error("negative task accepted")
	}
	if err := inc.Add(0, 0, crowd.Response(3)); err == nil {
		t.Error("non-binary response accepted")
	}
	if err := inc.Add(0, 0, crowd.Yes); err != nil {
		t.Fatal(err)
	}
	if err := inc.Add(0, 0, crowd.No); err == nil {
		t.Error("duplicate response accepted")
	}
	if _, err := inc.Evaluate(9, EvalOptions{Confidence: 0.9}); err == nil {
		t.Error("out-of-range evaluation accepted")
	}
	if _, err := inc.Evaluate(0, EvalOptions{Confidence: 0}); err == nil {
		t.Error("confidence 0 accepted")
	}
}

func TestIncrementalCounters(t *testing.T) {
	inc, err := NewShardedIncremental(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Task 0: all three agree; task 1: worker 0 disagrees with 1.
	mustAdd := func(w, task int, r crowd.Response) {
		t.Helper()
		if err := inc.Add(w, task, r); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(0, 0, crowd.Yes)
	mustAdd(1, 0, crowd.Yes)
	mustAdd(2, 0, crowd.Yes)
	mustAdd(0, 1, crowd.Yes)
	mustAdd(1, 1, crowd.No)
	st := inc.snapshot().stats
	if got := st.pair(0, 1); got.Common != 2 || got.Agree != 1 {
		t.Errorf("pair(0,1) = %+v", got)
	}
	if got := st.pair(0, 2); got.Common != 1 || got.Agree != 1 {
		t.Errorf("pair(0,2) = %+v", got)
	}
	if got := and3Count(st.attendance(0), st.attendance(1), st.attendance(2)); got != 1 {
		t.Errorf("common3 = %d", got)
	}
	if inc.Tasks() != 2 || inc.Responses() != 5 {
		t.Errorf("Tasks=%d Responses=%d", inc.Tasks(), inc.Responses())
	}

	// Tasks is the task horizon, not a count of the tasks seen.
	sparse, err := NewShardedIncremental(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range []int{0, 1000} {
		if err := sparse.Add(0, task, crowd.Yes); err != nil {
			t.Fatal(err)
		}
	}
	if sparse.Tasks() != 1001 {
		t.Errorf("tasks {0, 1000}: Tasks=%d, want 1001", sparse.Tasks())
	}
}

func TestIncrementalSnapshotRoundTrip(t *testing.T) {
	src := randx.NewSource(7)
	ds, _, err := sim.Binary{Tasks: 60, Workers: 5, Density: 0.6}.Generate(src)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewShardedIncremental(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	feedDataset(t, inc, ds, 1)
	snap, err := compactDataset(inc.CompactCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 5; w++ {
		for task := 0; task < 60; task++ {
			if snap.Response(w, task) != ds.Response(w, task) {
				t.Fatalf("snapshot mismatch at (%d,%d)", w, task)
			}
		}
	}
	empty, err := NewShardedIncremental(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compactDataset(empty.CompactCheckpoint()); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("empty snapshot err = %v", err)
	}
}

func TestIncrementalMajorityDisagreement(t *testing.T) {
	src := randx.NewSource(8)
	ds, _, err := sim.Binary{Tasks: 200, Workers: 5, ErrorRates: []float64{0.1, 0.1, 0.1, 0.1, 0.45}}.Generate(src)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewShardedIncremental(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	feedDataset(t, inc, ds, 2)
	want := ds.MajorityDisagreement()
	got := inc.MajorityDisagreement()
	for w := range want {
		if math.Abs(got[w]-want[w]) > 1e-12 {
			t.Errorf("worker %d: %v vs batch %v", w, got[w], want[w])
		}
	}
}

func TestIncrementalIntervalsShrinkWithData(t *testing.T) {
	// As more tasks stream in, the interval for a worker should tighten.
	src := randx.NewSource(9)
	ds, _, err := sim.Binary{Tasks: 400, Workers: 5}.Generate(src)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewShardedIncremental(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sizes []float64
	for task := 0; task < 400; task++ {
		for w := 0; w < 5; w++ {
			if err := inc.Add(w, task, ds.Response(w, task)); err != nil {
				t.Fatal(err)
			}
		}
		if task == 49 || task == 199 || task == 399 {
			est, err := inc.Evaluate(0, EvalOptions{Confidence: 0.9})
			if err != nil {
				t.Fatal(err)
			}
			if est.Err != nil {
				t.Fatalf("task %d: %v", task, est.Err)
			}
			sizes = append(sizes, est.Interval.Size())
		}
	}
	if !(sizes[2] < sizes[1] && sizes[1] < sizes[0]) {
		t.Errorf("interval sizes not shrinking: %v", sizes)
	}
}

// TestStreamingRejectsOversizedCrowd: a crowd past 32-bit worker indices
// could never hold its workers² counters, so the streaming constructor
// refuses it before allocating anything for it.
func TestStreamingRejectsOversizedCrowd(t *testing.T) {
	if strconv.IntSize == 32 {
		t.Skip("int cannot exceed math.MaxInt32")
	}
	huge := math.MaxInt32
	huge++
	if _, err := NewShardedIncremental(huge, 2); err == nil {
		t.Error("NewShardedIncremental accepted more than MaxInt32 workers")
	}
}

// TestBitsetOrWithRagged unions bitsets of every relative length: the
// result is the bitwise union, as long as the longer operand.
func TestBitsetOrWithRagged(t *testing.T) {
	for _, c := range []struct{ a, b dynBitset }{
		{nil, nil},
		{nil, dynBitset{1, 0, 4}},
		{dynBitset{1, 2}, dynBitset{4}},
		{dynBitset{1}, dynBitset{2, 8, 16}},
	} {
		got := append(dynBitset(nil), c.a...)
		got.orWith(c.b)
		if len(got) != max(len(c.a), len(c.b)) {
			t.Fatalf("%v | %v: length %d", c.a, c.b, len(got))
		}
		for k := range got {
			if want := c.a.word(k) | c.b.word(k); got[k] != want {
				t.Fatalf("%v | %v: word %d = %x, want %x", c.a, c.b, k, got[k], want)
			}
		}
	}
}
