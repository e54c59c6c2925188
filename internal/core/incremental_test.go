package core

import (
	"errors"
	"math"
	"strconv"
	"testing"

	"crowdassess/internal/crowd"
	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
)

// feedDataset streams every response of ds into inc in a scrambled order.
func feedDataset(t *testing.T, inc *Incremental, ds *crowd.Dataset, seed int64) {
	t.Helper()
	type cell struct{ w, task int }
	var cells []cell
	for w := 0; w < ds.Workers(); w++ {
		for task := 0; task < ds.Tasks(); task++ {
			if ds.Attempted(w, task) {
				cells = append(cells, cell{w, task})
			}
		}
	}
	src := randx.NewSource(seed)
	src.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	for _, c := range cells {
		if err := inc.Add(c.w, c.task, ds.Response(c.w, c.task)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIncrementalMatchesBatch is the core equivalence property: streaming
// the responses in any order must reproduce the batch algorithm's intervals
// exactly.
func TestIncrementalMatchesBatch(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		src := randx.NewSource(100 + seed)
		ds, _, err := sim.Binary{Tasks: 120, Workers: 7, Density: 0.7}.Generate(src)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := NewIncremental(7)
		if err != nil {
			t.Fatal(err)
		}
		feedDataset(t, inc, ds, seed)

		opts := EvalOptions{Confidence: 0.9}
		batch, err := EvaluateWorkers(ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := inc.EvaluateAll(opts)
		if err != nil {
			t.Fatal(err)
		}
		for w := range batch {
			if (batch[w].Err == nil) != (stream[w].Err == nil) {
				t.Fatalf("seed %d worker %d: error mismatch %v vs %v", seed, w, batch[w].Err, stream[w].Err)
			}
			if batch[w].Err != nil {
				continue
			}
			if math.Abs(batch[w].Interval.Lo-stream[w].Interval.Lo) > 1e-12 ||
				math.Abs(batch[w].Interval.Hi-stream[w].Interval.Hi) > 1e-12 {
				t.Errorf("seed %d worker %d: batch %v vs stream %v",
					seed, w, batch[w].Interval, stream[w].Interval)
			}
			if batch[w].Triples != stream[w].Triples {
				t.Errorf("seed %d worker %d: triples %d vs %d", seed, w, batch[w].Triples, stream[w].Triples)
			}
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
	inc, err := NewIncremental(3)
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
	if got := inc.pair(0, 1); got.Common != 2 || got.Agree != 1 {
		t.Errorf("pair(0,1) = %+v", got)
	}
	if got := inc.pair(0, 2); got.Common != 1 || got.Agree != 1 {
		t.Errorf("pair(0,2) = %+v", got)
	}
	if got := and3Count(inc.attendance(0), inc.attendance(1), inc.attendance(2)); got != 1 {
		t.Errorf("common3 = %d", got)
	}
	if inc.Tasks() != 2 || inc.Responses() != 5 {
		t.Errorf("Tasks=%d Responses=%d", inc.Tasks(), inc.Responses())
	}
}

func TestIncrementalSnapshotRoundTrip(t *testing.T) {
	src := randx.NewSource(7)
	ds, _, err := sim.Binary{Tasks: 60, Workers: 5, Density: 0.6}.Generate(src)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncremental(5)
	if err != nil {
		t.Fatal(err)
	}
	feedDataset(t, inc, ds, 1)
	snap, err := inc.Snapshot()
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
	empty, err := NewIncremental(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.Snapshot(); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("empty snapshot err = %v", err)
	}
}

func TestIncrementalMajorityDisagreement(t *testing.T) {
	src := randx.NewSource(8)
	ds, _, err := sim.Binary{Tasks: 200, Workers: 5, ErrorRates: []float64{0.1, 0.1, 0.1, 0.1, 0.45}}.Generate(src)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncremental(5)
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
	inc, err := NewIncremental(5)
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

// TestStreamingRejectsOversizedCrowd: task response lists store worker
// indices in 32 bits, so both streaming constructors refuse a crowd whose
// indices would not fit, before allocating anything for it.
func TestStreamingRejectsOversizedCrowd(t *testing.T) {
	if strconv.IntSize == 32 {
		t.Skip("int cannot exceed math.MaxInt32")
	}
	huge := math.MaxInt32
	huge++
	if _, err := NewIncremental(huge); err == nil {
		t.Error("NewIncremental accepted more than MaxInt32 workers")
	}
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
