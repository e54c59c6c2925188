package core

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"crowdassess/internal/crowd"
	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
)

// deltaStream generates a sparse shuffled stream, the shape deltas are for.
func deltaStream(t testing.TB, workers, tasks int, density float64, seed int64) []submission {
	t.Helper()
	ds, _, err := sim.Binary{Tasks: tasks, Workers: workers, Density: density}.Generate(randx.NewSource(seed))
	if err != nil {
		t.Fatal(err)
	}
	return shuffledStream(t, ds, seed)
}

// accumulatorOf seeds an accumulator with a state's statistics.
func accumulatorOf(t *testing.T, st *statsState) *StatsAccumulator {
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

// digestOf computes a state's digest from scratch.
func digestOf(st *statsState) uint64 {
	return statsDigest(st.stats, st.workers, st.tasks, st.responses)
}

// DiffStats is the reference oracle for CutStats: the exact difference from
// an older state of an evaluator to a newer one, found by comparing every
// counter and attendance word of the two, in O(state). It fails when cur
// does not extend old — a counter shrank, an attendance bit vanished, or
// the response total disagrees with the newly set bits — which is what a
// state of another evaluator, or of a restarted one, looks like.
func DiffStats(old, cur *statsState) (*StatsDelta, error) {
	if old.workers != cur.workers {
		return nil, fmt.Errorf("core: cannot diff a %d-worker state against a %d-worker one", cur.workers, old.workers)
	}
	d := &StatsDelta{Workers: cur.workers, Tasks: cur.tasks, Responses: cur.responses}
	if old == cur {
		return d, nil
	}
	if cur.tasks < old.tasks {
		return nil, fmt.Errorf("core: task horizon shrank from %d to %d", old.tasks, cur.tasks)
	}
	for i := 0; i < cur.workers; i++ {
		oa, oc := old.stats.agree[i], old.stats.common[i]
		na, nc := cur.stats.agree[i], cur.stats.common[i]
		for j := i + 1; j < cur.workers; j++ {
			if na[j] == oa[j] && nc[j] == oc[j] {
				continue
			}
			da, dc := na[j]-oa[j], nc[j]-oc[j]
			if dc < 1 || da < 0 || da > dc {
				return nil, fmt.Errorf("core: counters (%d,%d) went from (%d agree, %d common) to (%d, %d): not a later state", i, j, oa[j], oc[j], na[j], nc[j])
			}
			d.Cells = append(d.Cells, CellDelta{I: i, J: j, Agree: da, Common: dc})
		}
	}
	set := 0
	for w := 0; w < cur.workers; w++ {
		ow, nw := old.stats.responded[w], cur.stats.responded[w]
		for k := 0; k < max(len(ow), len(nw)); k++ {
			o, n := ow.word(k), nw.word(k)
			if o&^n != 0 {
				return nil, fmt.Errorf("core: worker %d lost attendance bits in word %d: not a later state", w, k)
			}
			if gained := n &^ o; gained != 0 {
				d.Words = append(d.Words, WordDelta{Worker: w, Index: k, Bits: gained})
				set += bits.OnesCount64(gained)
			}
		}
	}
	if cur.responses-old.responses != set {
		return nil, fmt.Errorf("core: %d responses arrived but %d attendance bits were set", cur.responses-old.responses, set)
	}
	return d, nil
}

// TestDiffApplyReproducesState is the delta contract: folding
// DiffStats(old, cur) into an accumulator holding old yields cur exactly —
// counters, bitsets, totals and digest.
func TestDiffApplyReproducesState(t *testing.T) {
	const workers = 12
	subs := deltaStream(t, workers, 700, 0.3, 5)
	s, err := NewShardedIncremental(workers, 3)
	if err != nil {
		t.Fatal(err)
	}
	old := s.snapshot()
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
		cur := s.snapshot()
		d, err := DiffStats(old, cur)
		if err != nil {
			t.Fatal(err)
		}
		if d.Responses != cur.responses || d.Tasks != cur.tasks {
			t.Fatalf("delta totals (%d tasks, %d responses), state (%d, %d)", d.Tasks, d.Responses, cur.tasks, cur.responses)
		}
		if err := acc.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		if !acc.Export().Equal(cur.Export()) {
			t.Fatalf("after %d responses: accumulator + delta != state", lo)
		}
		if acc.Digest() != digestOf(cur) {
			t.Fatalf("after %d responses: accumulator digest %x, state digest %x", lo, acc.Digest(), digestOf(cur))
		}
		old = cur
	}
	// A quiescent state diffs to an empty delta.
	d, err := DiffStats(old, s.snapshot())
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
	if _, err := DiffStats(a.snapshot(), b.snapshot()); err == nil {
		t.Fatal("diff from a fuller state to a sparser one succeeded")
	}
	if err := b.Add(0, 100_000, crowd.Yes); err != nil {
		t.Fatal(err)
	}
	if _, err := DiffStats(a.snapshot(), b.snapshot()); err == nil {
		t.Fatal("diff between two unrelated evaluators succeeded")
	}
	other, _ := NewShardedIncremental(workers+1, 2)
	if _, err := DiffStats(a.snapshot(), other.snapshot()); err == nil {
		t.Fatal("diff across crowd sizes succeeded")
	}
}

// checkCut asserts that a cut taken right after snapshot cur is the delta
// DiffStats finds from prev to cur, DeepEqual, with cur's from-scratch
// digest, and returns its digest.
func checkCut(t *testing.T, label string, cut StatsCut, prev, cur *statsState) uint64 {
	t.Helper()
	if cut.Full != nil || cut.Delta == nil {
		t.Fatalf("%s: resumed cut returned the full state", label)
	}
	want, err := DiffStats(prev, cur)
	if err != nil {
		t.Fatalf("%s: oracle: %v", label, err)
	}
	if !reflect.DeepEqual(cut.Delta, want) {
		t.Fatalf("%s: cut delta (%d cells, %d words) differs from DiffStats (%d cells, %d words)",
			label, len(cut.Delta.Cells), len(cut.Delta.Words), len(want.Cells), len(want.Words))
	}
	if fresh := digestOf(cur); cut.Digest != fresh {
		t.Fatalf("%s: cut digest %x, computed from scratch %x", label, cut.Digest, fresh)
	}
	return cut.Digest
}

// checkFullCut asserts that a cut is the full state cur, with its digest.
func checkFullCut(t *testing.T, label string, cut StatsCut, cur *statsState) uint64 {
	t.Helper()
	if cut.Delta != nil || cut.Full == nil {
		t.Fatalf("%s: cut is a delta, want the full state", label)
	}
	if !cut.Full.Equal(cur.Export()) {
		t.Fatalf("%s: full cut differs from the merged state", label)
	}
	if fresh := digestOf(cur); cut.Digest != fresh {
		t.Fatalf("%s: full cut digest %x, computed from scratch %x", label, cut.Digest, fresh)
	}
	return cut.Digest
}

// TestCutStatsMatchesDiffStats pins the O(change) cut to the O(state)
// oracle: across shard counts, densities on both sides of the ¼
// restricted-count switch and random cut points (empty ones included),
// every resumed cut is DeepEqual to DiffStats on the same two states and
// carries the from-scratch digest — also right after a full cut forced by
// a missing or wrong cursor, and across a RestoreCompact.
func TestCutStatsMatchesDiffStats(t *testing.T) {
	const workers, tasks = 14, 500
	for _, density := range []float64{0.1, 0.7} {
		for _, shards := range []int{1, 2, 7} {
			label := fmt.Sprintf("density %v shards %d", density, shards)
			subs := deltaStream(t, workers, tasks, density, int64(10*shards)+int64(density*10))
			s, err := NewShardedIncremental(workers, shards)
			if err != nil {
				t.Fatal(err)
			}
			src := randx.NewSource(int64(shards))
			grew := 0
			first := src.Intn(100)
			for _, x := range subs[:first] {
				if err := s.Add(x.w, x.t, x.r); err != nil {
					t.Fatal(err)
				}
			}
			prev := s.snapshot()
			cursor := checkFullCut(t, label+" first cut", s.CutStats(0, true), prev)
			half := len(subs) / 2
			for lo := first; lo < half; {
				hi := min(half, lo+src.Intn(60))
				for _, x := range subs[lo:hi] {
					if err := s.Add(x.w, x.t, x.r); err != nil {
						t.Fatal(err)
					}
				}
				lo = hi
				cur := s.snapshot()
				switch src.Intn(8) {
				case 0:
					cursor = checkFullCut(t, label+" cut without cursor", s.CutStats(cursor, false), cur)
				case 1:
					cursor = checkFullCut(t, label+" cut with a stale cursor", s.CutStats(cursor+1, true), cur)
				default:
					cursor = checkCut(t, fmt.Sprintf("%s cut after %d responses", label, lo), s.CutStats(cursor, true), prev, cur)
					if cur != prev {
						grew++
					}
				}
				prev = cur
			}
			if grew < 5 {
				t.Fatalf("%s: only %d cuts carried a change", label, grew)
			}
			checkCut(t, label+" cut with no new responses", s.CutStats(cursor, true), prev, prev)

			// A restored evaluator cut before its restore deltas from the
			// empty state to the restored one, then keeps cutting exactly.
			r, err := NewShardedIncremental(workers, shards)
			if err != nil {
				t.Fatal(err)
			}
			empty := r.snapshot()
			rcursor := checkFullCut(t, label+" restore target", r.CutStats(0, false), empty)
			if err := r.RestoreCompact(s.CompactCheckpoint()); err != nil {
				t.Fatal(err)
			}
			restored := r.snapshot()
			rcursor = checkCut(t, label+" cut after restore", r.CutStats(rcursor, true), empty, restored)
			for _, x := range subs[half:] {
				if err := r.Add(x.w, x.t, x.r); err != nil {
					t.Fatal(err)
				}
			}
			checkCut(t, label+" cut after restore and ingest", r.CutStats(rcursor, true), restored, r.snapshot())
		}
	}
}

// TestCutStatsConcurrentAdd cuts while several goroutines ingest: every
// cut is one consistent point in time, so folding the cuts in order into
// an accumulator tracks the evaluator's digest at every step and ends at
// its final export. CI runs it under the race detector.
func TestCutStatsConcurrentAdd(t *testing.T) {
	const workers, adders = 10, 4
	subs := deltaStream(t, workers, 1500, 0.5, 12)
	s, err := NewShardedIncremental(workers, 3)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := NewStatsAccumulator(workers)
	if err != nil {
		t.Fatal(err)
	}
	fold := func(cut StatsCut) uint64 {
		if cut.Full != nil {
			acc, err = NewStatsAccumulator(workers)
			if err == nil {
				err = acc.Merge(cut.Full)
			}
		} else {
			err = acc.ApplyDelta(cut.Delta)
		}
		if err != nil {
			t.Fatal(err)
		}
		if acc.Digest() != cut.Digest {
			t.Fatalf("accumulator digest %x after a fold, cut digest %x", acc.Digest(), cut.Digest)
		}
		return cut.Digest
	}
	cursor := fold(s.CutStats(0, false))
	var wg sync.WaitGroup
	errs := make(chan error, adders)
	for g := 0; g < adders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(subs); i += adders {
				if err := s.Add(subs[i].w, subs[i].t, subs[i].r); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	cuts := 0
	for running := true; running; cuts++ {
		select {
		case <-done:
			running = false
		default:
		}
		cursor = fold(s.CutStats(cursor, true))
	}
	t.Logf("%d cuts while %d goroutines ingested %d responses", cuts, adders, len(subs))
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	fold(s.CutStats(cursor, true))
	if !acc.Export().Equal(s.ExportStats()) {
		t.Fatal("folded cuts do not reproduce the final export")
	}
}

// BenchmarkStatsPull times one statistics pull's cut on a 2-shard
// evaluator in two regimes, against the O(state) path it replaced — merge
// a full snapshot and diff it against the previous one (snapshot +
// DiffStats; that path also derived the digest in O(change), which this
// omits):
//
//   - sparse: review_sparse's shape — 128 workers at density 0.1 over a
//     24k-task horizon, 16 new responses (8 on each of two new tasks)
//     between pulls;
//   - dense: 64 workers at density 0.8 over a 4.8k-task horizon, with the
//     last 41k of its responses arriving between two pulls. Each op
//     rebuilds the evaluator with the timer stopped, so run it at a fixed
//     -benchtime=Nx.
func BenchmarkStatsPull(b *testing.B) {
	add := func(s *ShardedIncremental, subs []submission) {
		for _, x := range subs {
			if err := s.Add(x.w, x.t, x.r); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("sparse", func(b *testing.B) {
		const workers, tasks = 128, 24000
		base := deltaStream(b, workers, tasks, 0.1, 31)
		// next returns the n-th batch of 16 responses on fresh tasks.
		next := func(n int) []submission {
			batch := make([]submission, 16)
			for k := range batch {
				batch[k] = submission{w: (17*n + k) % workers, t: tasks + 2*n + k%2, r: []crowd.Response{crowd.Yes, crowd.No}[k%2]}
			}
			return batch
		}
		for _, path := range []string{"cut", "diff"} {
			b.Run(path, func(b *testing.B) {
				s, _ := NewShardedIncremental(workers, 2)
				add(s, base)
				cursor, prev := s.CutStats(0, false).Digest, s.snapshot()
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					b.StopTimer()
					add(s, next(n))
					b.StartTimer()
					if path == "cut" {
						cursor = s.CutStats(cursor, true).Digest
						continue
					}
					cur := s.snapshot()
					if _, err := DiffStats(prev, cur); err != nil {
						b.Fatal(err)
					}
					prev = cur
				}
			})
		}
	})
	b.Run("dense", func(b *testing.B) {
		const workers, tasks, fresh = 64, 4800, 41000
		subs := deltaStream(b, workers, tasks, 0.8, 32)
		old, change := subs[:len(subs)-fresh], subs[len(subs)-fresh:]
		for _, path := range []string{"cut", "diff"} {
			b.Run(path, func(b *testing.B) {
				b.ReportAllocs()
				for n := 0; n < b.N; n++ {
					b.StopTimer()
					s, _ := NewShardedIncremental(workers, 2)
					add(s, old)
					cursor, prev := s.CutStats(0, false).Digest, s.snapshot()
					add(s, change)
					b.StartTimer()
					if path == "cut" {
						if d := s.CutStats(cursor, true).Delta; d == nil {
							b.Fatal("resumed cut returned the full state")
						}
						continue
					}
					if _, err := DiffStats(prev, s.snapshot()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})
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
	base := s.snapshot()
	for _, x := range subs {
		if err := s.Add(x.w, x.t, x.r); err != nil {
			t.Fatal(err)
		}
	}
	d, err := DiffStats(base, s.snapshot())
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
	acc := accumulatorOf(t, sharded.snapshot())
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
