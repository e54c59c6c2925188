package core

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"crowdassess/internal/crowd"
	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
)

// deltaStream generates a sparse shuffled stream, the shape deltas are for.
func deltaStream(t *testing.T, workers, tasks int, density float64, seed int64) []submission {
	t.Helper()
	ds, _, err := sim.Binary{Tasks: tasks, Workers: workers, Density: density}.Generate(randx.NewSource(seed))
	if err != nil {
		t.Fatal(err)
	}
	return shuffledStream(t, ds, seed)
}

// accumulatorOf seeds an accumulator with a state's statistics.
func accumulatorOf(t *testing.T, st *StatsState) *StatsAccumulator {
	t.Helper()
	acc, err := NewStatsAccumulator(st.workers)
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.Merge(st.Export()); err != nil {
		t.Fatal(err)
	}
	return acc
}

// TestDiffApplyReproducesState is the delta contract: folding
// DiffStats(old, cur) into an accumulator holding old yields cur exactly —
// counters, bitsets, totals and digest — and the digest DiffStats derives
// in O(change) equals the one computed from scratch.
func TestDiffApplyReproducesState(t *testing.T) {
	const workers = 12
	subs := deltaStream(t, workers, 700, 0.3, 5)
	s, err := NewShardedIncremental(workers, 3)
	if err != nil {
		t.Fatal(err)
	}
	old := s.State()
	acc := accumulatorOf(t, old)
	src := randx.NewSource(9)
	for lo := 0; lo < len(subs); {
		hi := min(len(subs), lo+1+src.Intn(80))
		for _, x := range subs[lo:hi] {
			if err := s.Add(x.w, x.t, x.r); err != nil {
				t.Fatal(err)
			}
		}
		lo = hi
		cur := s.State()
		d, err := DiffStats(old, cur)
		if err != nil {
			t.Fatal(err)
		}
		if d.Responses != cur.responses || d.Tasks != cur.tasks {
			t.Fatalf("delta totals (%d tasks, %d responses), state (%d, %d)", d.Tasks, d.Responses, cur.tasks, cur.responses)
		}
		if fresh := statsDigest(cur.stats, cur.workers, cur.tasks, cur.responses); cur.Digest() != fresh {
			t.Fatalf("derived digest %x, computed from scratch %x", cur.Digest(), fresh)
		}
		if err := acc.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		if !acc.Export().Equal(cur.Export()) {
			t.Fatalf("after %d responses: accumulator + delta != state", lo)
		}
		if acc.Digest() != cur.Digest() {
			t.Fatalf("after %d responses: accumulator digest %x, state digest %x", lo, acc.Digest(), cur.Digest())
		}
		old = cur
	}
	// A quiescent state diffs to an empty delta.
	d, err := DiffStats(old, s.State())
	if err != nil || len(d.Cells)+len(d.Words) != 0 {
		t.Fatalf("quiescent diff: %d cells, %d words, err %v", len(d.Cells), len(d.Words), err)
	}
}

// TestDiffStatsRejectsNonSuccessor: a state that does not extend the base
// — an earlier one, or one of another evaluator — has no delta.
func TestDiffStatsRejectsNonSuccessor(t *testing.T) {
	const workers = 6
	subs := deltaStream(t, workers, 200, 0.5, 6)
	a, _ := NewShardedIncremental(workers, 2)
	b, _ := NewShardedIncremental(workers, 2)
	for i, x := range subs {
		if err := a.Add(x.w, x.t, x.r); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := b.Add(x.w, x.t, x.r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := DiffStats(a.State(), b.State()); err == nil {
		t.Fatal("diff from a fuller state to a sparser one succeeded")
	}
	if err := b.Add(0, 100_000, crowd.Yes); err != nil {
		t.Fatal(err)
	}
	if _, err := DiffStats(a.State(), b.State()); err == nil {
		t.Fatal("diff between two unrelated evaluators succeeded")
	}
	other, _ := NewShardedIncremental(workers+1, 2)
	if _, err := DiffStats(a.State(), other.State()); err == nil {
		t.Fatal("diff across crowd sizes succeeded")
	}
}

// TestStatsDeltaValidate pins every structural rule a delta must satisfy.
func TestStatsDeltaValidate(t *testing.T) {
	valid := func() *StatsDelta {
		return &StatsDelta{
			Workers: 4, Tasks: 70, Responses: 3,
			Cells: []CellDelta{{I: 0, J: 1, Agree: 1, Common: 1}, {I: 0, J: 3, Agree: 0, Common: 2}, {I: 2, J: 3, Agree: 2, Common: 2}},
			Words: []WordDelta{{Worker: 0, Index: 1, Bits: 1 << 5}, {Worker: 2, Index: 0, Bits: 3}},
		}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid delta rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(d *StatsDelta)
		want   string
	}{
		{"too few workers", func(d *StatsDelta) { d.Workers = 2 }, "at least 3"},
		{"negative totals", func(d *StatsDelta) { d.Responses = -1 }, "negative"},
		{"diagonal cell", func(d *StatsDelta) { d.Cells[1] = CellDelta{I: 1, J: 1, Common: 1} }, "upper triangle"},
		{"lower-triangle cell", func(d *StatsDelta) { d.Cells[1] = CellDelta{I: 3, J: 1, Common: 1} }, "upper triangle"},
		{"cell past the crowd", func(d *StatsDelta) { d.Cells[2].J = 4 }, "upper triangle"},
		{"unsorted cells", func(d *StatsDelta) { d.Cells[0], d.Cells[1] = d.Cells[1], d.Cells[0] }, "ascending"},
		{"repeated cell", func(d *StatsDelta) { d.Cells[1] = d.Cells[0] }, "ascending"},
		{"zero increment", func(d *StatsDelta) { d.Cells[1].Common = 0 }, "zero common"},
		{"agree exceeds common", func(d *StatsDelta) { d.Cells[0].Agree = 2 }, "exceeds"},
		{"word of unknown worker", func(d *StatsDelta) { d.Words[1].Worker = 4 }, "4-worker"},
		{"word past the horizon", func(d *StatsDelta) { d.Words[0].Index = 2 }, "horizon"},
		{"bits past the horizon", func(d *StatsDelta) { d.Words[0].Bits = 1 << 6 }, "horizon"},
		{"unsorted words", func(d *StatsDelta) { d.Words[0], d.Words[1] = d.Words[1], d.Words[0] }, "ascending"},
		{"repeated word", func(d *StatsDelta) { d.Words[1] = d.Words[0] }, "ascending"},
		{"empty word", func(d *StatsDelta) { d.Words[1].Bits = 0 }, "no bits"},
		{"more bits than responses", func(d *StatsDelta) { d.Responses = 2 }, "only 2 responses"},
	}
	for _, c := range cases {
		d := valid()
		c.mutate(d)
		err := d.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want an error mentioning %q", c.name, err, c.want)
		}
	}
}

// TestApplyDeltaAtomic: a delta that does not extend the accumulator (here:
// the same delta twice) is refused with the state untouched.
func TestApplyDeltaAtomic(t *testing.T) {
	const workers = 5
	subs := deltaStream(t, workers, 150, 0.6, 7)
	s, _ := NewShardedIncremental(workers, 2)
	base := s.State()
	for _, x := range subs {
		if err := s.Add(x.w, x.t, x.r); err != nil {
			t.Fatal(err)
		}
	}
	d, err := DiffStats(base, s.State())
	if err != nil {
		t.Fatal(err)
	}
	acc := accumulatorOf(t, base)
	if err := acc.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	before, digest := acc.Export(), acc.Digest()
	if err := acc.ApplyDelta(d); err == nil {
		t.Fatal("re-applying a delta succeeded")
	}
	if !acc.Export().Equal(before) || acc.Digest() != digest {
		t.Fatal("a refused delta changed the accumulator")
	}
	wrong := *d
	wrong.Workers = workers + 1
	if err := acc.ApplyDelta(&wrong); err == nil {
		t.Fatal("a delta for another crowd size applied")
	}
}

// TestAccumulatorParallelSolvesBitIdentical pins the parallel accumulator
// solves to the serial Algorithm A2 path: at GOMAXPROCS 1, 4 and 8,
// EvaluateAll and EvaluateSubset return intervals whose every float is
// bit-identical to the batch algorithm's one-worker-at-a-time solves. CI
// runs it under the race detector.
func TestAccumulatorParallelSolvesBitIdentical(t *testing.T) {
	const workers, seed = 24, 8
	ds, _, err := sim.Binary{Tasks: 400, Workers: workers, Density: 0.4}.Generate(randx.NewSource(seed))
	if err != nil {
		t.Fatal(err)
	}
	sharded, _ := NewShardedIncremental(workers, 3)
	for _, x := range shuffledStream(t, ds, seed) {
		if err := sharded.Add(x.w, x.t, x.r); err != nil {
			t.Fatal(err)
		}
	}
	opts := EvalOptions{Confidence: 0.9}
	want, err := EvaluateWorkers(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	subset := []int{23, 0, 7, 7, 11, 3}
	acc := accumulatorOf(t, sharded.State())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4, 8} {
		runtime.GOMAXPROCS(procs)
		got, err := acc.EvaluateAll(opts)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("EvaluateAll at GOMAXPROCS=%d", procs), got, want)
		got, err = acc.EvaluateSubset(subset, opts)
		if err != nil {
			t.Fatal(err)
		}
		wantSub := make([]WorkerEstimate, len(subset))
		for i, w := range subset {
			wantSub[i] = want[w]
		}
		sameBits(t, fmt.Sprintf("EvaluateSubset at GOMAXPROCS=%d", procs), got, wantSub)
	}
}

// sameBits compares every float of two estimate slices at Float64bits
// granularity.
func sameBits(t *testing.T, label string, got, want []WorkerEstimate) {
	t.Helper()
	sameEstimates(t, label, got, want)
	for i := range want {
		g, w := got[i].Interval, want[i].Interval
		for _, p := range [][2]float64{{g.Mean, w.Mean}, {g.Lo, w.Lo}, {g.Hi, w.Hi}, {g.Confidence, w.Confidence}} {
			if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
				t.Fatalf("%s: estimate %d interval %+v, want %+v", label, i, g, w)
			}
		}
	}
}
