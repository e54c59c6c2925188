package core

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"runtime"
	"slices"
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

// stateOf returns a private copy of an evaluator's merged statistics. The
// next read after an Add may rebuild the published merge in place, so a
// test that keeps a state across Adds keeps a copy.
func stateOf(s *ShardedIncremental) *StatsAccumulator { return s.snapshot().Clone() }

// accumulatorOf seeds an accumulator with a state's statistics.
func accumulatorOf(t *testing.T, st *StatsAccumulator) *StatsAccumulator {
	t.Helper()
	acc, err := NewStatsAccumulator(st.workers)
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.Merge(st); err != nil {
		t.Fatal(err)
	}
	return acc
}

// digestOf computes a state's digest from scratch.
func digestOf(st *StatsAccumulator) uint64 {
	return statsDigest(st.stats, st.workers, st.tasks, st.responses)
}

// DiffStats is the reference oracle for CutStats: the exact difference from
// an older state of an evaluator to a newer one, found by comparing every
// counter and attendance word of the two, in O(state). It fails when cur
// does not extend old — a counter shrank, an attendance bit vanished, or
// the response total disagrees with the newly set bits — which is what a
// state of another evaluator, or of a restarted one, looks like.
func DiffStats(old, cur *StatsAccumulator) (*StatsDelta, error) {
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
	old := stateOf(s)
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
		cur := stateOf(s)
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
		if !sameStats(acc, cur) {
			t.Fatalf("after %d responses: accumulator + delta != state", lo)
		}
		if acc.Digest() != digestOf(cur) {
			t.Fatalf("after %d responses: accumulator digest %x, state digest %x", lo, acc.Digest(), digestOf(cur))
		}
		old = cur
	}
	// A quiescent state diffs to an empty delta.
	d, err := DiffStats(old, stateOf(s))
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
	if _, err := DiffStats(stateOf(a), stateOf(b)); err == nil {
		t.Fatal("diff from a fuller state to a sparser one succeeded")
	}
	if err := b.Add(0, 100_000, crowd.Yes); err != nil {
		t.Fatal(err)
	}
	if _, err := DiffStats(stateOf(a), stateOf(b)); err == nil {
		t.Fatal("diff between two unrelated evaluators succeeded")
	}
	other, _ := NewShardedIncremental(workers+1, 2)
	if _, err := DiffStats(stateOf(a), stateOf(other)); err == nil {
		t.Fatal("diff across crowd sizes succeeded")
	}
}

// cutStats takes a cut, failing the test on an error.
func cutStats(tb testing.TB, s *ShardedIncremental, cursor uint64) StatsCut {
	tb.Helper()
	cut, err := s.CutStats(cursor)
	if err != nil {
		tb.Fatal(err)
	}
	return cut
}

// checkCut asserts that a cut taken right after snapshot cur is the delta
// DiffStats finds from prev to cur, DeepEqual, with cur's from-scratch
// digest, and returns its digest.
func checkCut(t *testing.T, label string, cut StatsCut, prev, cur *StatsAccumulator) uint64 {
	t.Helper()
	if cut.Reset {
		t.Fatalf("%s: resumed cut is a reset", label)
	}
	return checkDelta(t, label, cut, prev, cur)
}

// checkReset asserts that a cut is a reset to cur: the delta DiffStats
// finds from the empty state to cur, with cur's from-scratch digest.
func checkReset(t *testing.T, label string, cut StatsCut, cur *StatsAccumulator) uint64 {
	t.Helper()
	if !cut.Reset {
		t.Fatalf("%s: cut is a delta from the previous cut, want a reset", label)
	}
	empty, err := NewShardedIncremental(cur.workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	return checkDelta(t, label, cut, stateOf(empty), cur)
}

// checkDelta asserts that a cut's delta is DiffStats from prev to cur, with
// cur's from-scratch digest, and returns its digest.
func checkDelta(t *testing.T, label string, cut StatsCut, prev, cur *StatsAccumulator) uint64 {
	t.Helper()
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

// TestCutStatsMatchesDiffStats pins the O(change) cut to the O(state)
// oracle: across shard counts, densities on both sides of the ¼
// restricted-count switch and random cut points (empty ones included),
// every resumed cut is DeepEqual to DiffStats on the same two states and
// carries the from-scratch digest — also right after a reset forced by a
// missing or wrong cursor, and across a RestoreCompact. Every reset is
// DeepEqual to DiffStats from the empty state. The last input is
// a 130-worker crowd, whose attendance spans three words per task.
func TestCutStatsMatchesDiffStats(t *testing.T) {
	const workers, tasks = 14, 500
	type input struct {
		label   string
		workers int
		stream  func(shards int) []submission
	}
	var inputs []input
	for _, density := range []float64{0.1, 0.7} {
		inputs = append(inputs, input{fmt.Sprintf("density %v", density), workers, func(shards int) []submission {
			return deltaStream(t, workers, tasks, density, int64(10*shards)+int64(density*10))
		}})
	}
	inputs = append(inputs, input{"130 workers", 130, func(shards int) []submission {
		return shuffledStream(t, wideCrowd(t, 200, 0.3, 13), int64(shards))
	}})
	for _, in := range inputs {
		for _, shards := range []int{1, 2, 7} {
			label := fmt.Sprintf("%s shards %d", in.label, shards)
			subs := in.stream(shards)
			s, err := NewShardedIncremental(in.workers, shards)
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
			prev := stateOf(s)
			cursor := checkReset(t, label+" first cut", cutStats(t, s, 0), prev)
			half := len(subs) / 2
			for lo := first; lo < half; {
				hi := min(half, lo+src.Intn(60))
				for _, x := range subs[lo:hi] {
					if err := s.Add(x.w, x.t, x.r); err != nil {
						t.Fatal(err)
					}
				}
				lo = hi
				cur := stateOf(s)
				switch src.Intn(8) {
				case 0:
					cursor = checkReset(t, label+" cut without cursor", cutStats(t, s, 0), cur)
				case 1:
					cursor = checkReset(t, label+" cut with a stale cursor", cutStats(t, s, cursor+1), cur)
				default:
					cursor = checkCut(t, fmt.Sprintf("%s cut after %d responses", label, lo), cutStats(t, s, cursor), prev, cur)
					if cur.responses != prev.responses {
						grew++
					}
				}
				prev = cur
			}
			if grew < 5 {
				t.Fatalf("%s: only %d cuts carried a change", label, grew)
			}
			checkCut(t, label+" cut with no new responses", cutStats(t, s, cursor), prev, prev)

			// A restored evaluator cut before its restore deltas from the
			// empty state to the restored one, then keeps cutting exactly.
			r, err := NewShardedIncremental(in.workers, shards)
			if err != nil {
				t.Fatal(err)
			}
			empty := stateOf(r)
			rcursor := checkReset(t, label+" restore target", cutStats(t, r, 0), empty)
			if err := r.RestoreCompact(s.CompactCheckpoint()); err != nil {
				t.Fatal(err)
			}
			restored := stateOf(r)
			rcursor = checkCut(t, label+" cut after restore", cutStats(t, r, rcursor), empty, restored)
			for _, x := range subs[half:] {
				if err := r.Add(x.w, x.t, x.r); err != nil {
					t.Fatal(err)
				}
			}
			checkCut(t, label+" cut after restore and ingest", cutStats(t, r, rcursor), restored, stateOf(r))
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
		if cut.Reset {
			if acc, err = NewStatsAccumulator(workers); err != nil {
				t.Fatal(err)
			}
		}
		if err := acc.ApplyDelta(cut.Delta); err != nil {
			t.Fatal(err)
		}
		if acc.Digest() != cut.Digest {
			t.Fatalf("accumulator digest %x after a fold, cut digest %x", acc.Digest(), cut.Digest)
		}
		return cut.Digest
	}
	cursor := fold(cutStats(t, s, 0))
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
		cursor = fold(cutStats(t, s, cursor))
	}
	t.Logf("%d cuts while %d goroutines ingested %d responses", cuts, adders, len(subs))
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	fold(cutStats(t, s, cursor))
	if !sameStats(acc, stateOf(s)) {
		t.Fatal("folded cuts do not reproduce the final statistics")
	}
}

// TestCompactDigestMatchesCut: a compact checkpoint taken right after a
// statistics cut, with no Add between them, carries the cut's digest —
// one digest names a state whichever path reports it — at 1 and 3 shards,
// for resets and deltas, on an empty evaluator and on one restored from a
// checkpoint.
func TestCompactDigestMatchesCut(t *testing.T) {
	const workers = 11
	subs := deltaStream(t, workers, 400, 0.4, 21)
	for _, shards := range []int{1, 3} {
		s, err := NewShardedIncremental(workers, shards)
		if err != nil {
			t.Fatal(err)
		}
		check := func(cut StatsCut, when string) uint64 {
			t.Helper()
			if got := s.CompactCheckpoint().Digest; got != cut.Digest {
				t.Fatalf("shards %d, %s: checkpoint digest %x, cut digest %x", shards, when, got, cut.Digest)
			}
			return cut.Digest
		}
		cursor := check(cutStats(t, s, 0), "empty")
		for i, x := range subs {
			if err := s.Add(x.w, x.t, x.r); err != nil {
				t.Fatal(err)
			}
			if i%97 == 0 {
				cursor = check(cutStats(t, s, cursor), fmt.Sprintf("delta after %d responses", i+1))
			}
		}
		check(cutStats(t, s, 0), "reset at the end")

		r, err := NewShardedIncremental(workers, shards)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.RestoreCompact(s.CompactCheckpoint()); err != nil {
			t.Fatal(err)
		}
		s = r
		check(cutStats(t, s, 0), "restored")
	}
}

// fullScanCut is the reference for the marked-word cut: the delta from
// base to the statistics of s by a full scan, which visits every word
// below the horizon of every worker and every counter pair, summed over
// the shards. The caller holds no shard lock and runs no Add meanwhile.
func fullScanCut(s *ShardedIncremental, base *StatsAccumulator) *StatsDelta {
	d := &StatsDelta{Workers: s.workers}
	for _, sh := range s.shards {
		d.Tasks = max(d.Tasks, sh.tasks)
		d.Responses += sh.responses
	}
	for w := range s.workers {
		for k := range (d.Tasks + 63) / 64 {
			var now uint64
			for _, sh := range s.shards {
				now |= sh.stats.responded[w].word(k)
			}
			if old := base.stats.responded[w].word(k); now != old {
				d.Words = append(d.Words, WordDelta{Worker: w, Index: k, Bits: now &^ old})
			}
		}
	}
	for i := range s.workers {
		for j := i + 1; j < s.workers; j++ {
			agree, common := 0, 0
			for _, sh := range s.shards {
				agree += sh.stats.agree[i][j]
				common += sh.stats.common[i][j]
			}
			if ba, bc := base.stats.agree[i][j], base.stats.common[i][j]; agree != ba || common != bc {
				d.Cells = append(d.Cells, CellDelta{I: i, J: j, Agree: agree - ba, Common: common - bc})
			}
		}
	}
	return d
}

// TestCutMatchesFullScan holds every cut to fullScanCut over seeded
// histories: 20- and 70-worker crowds on 1, 2 and 5 shards, their
// responses arriving in task order or shuffled, one Add at a time or in
// AddBatch chunks, with cuts between chunks that resume from the last cut
// or carry no, a wrong or an older cursor, and RestoreCompact into a
// fresh evaluator, cut before its restore or not. The test tracks the
// state of the last cut itself, so it predicts which cuts reset.
func TestCutMatchesFullScan(t *testing.T) {
	for _, workers := range []int{20, 70} {
		for _, shards := range []int{1, 2, 5} {
			for _, shuffled := range []bool{false, true} {
				label := fmt.Sprintf("%d workers, %d shards, shuffled %v", workers, shards, shuffled)
				seed := int64(100*workers + 10*shards)
				if shuffled {
					seed++
				}
				subs := deltaStream(t, workers, 300, 0.15, seed)
				if !shuffled {
					slices.SortFunc(subs, func(a, b submission) int { return cmp.Or(a.t-b.t, a.w-b.w) })
				}
				cutHistory(t, label, workers, shards, subs, randx.NewSource(seed))
			}
		}
	}
}

// cutHistory ingests subs into an evaluator in random chunks, cutting
// and restoring between them as src draws, and holds every cut to
// fullScanCut.
func cutHistory(t *testing.T, label string, workers, shards int, subs []submission, src *randx.Source) {
	t.Helper()
	fresh := func() *ShardedIncremental {
		s, err := NewShardedIncremental(workers, shards)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	empty := func() *StatsAccumulator {
		acc, err := NewStatsAccumulator(workers)
		if err != nil {
			t.Fatal(err)
		}
		return acc
	}
	s := fresh()
	// base is the state of s's last cut when hasBase, with digest cursor;
	// older collects earlier cut digests for stale cursors.
	base, hasBase, cursor := empty(), false, uint64(0)
	var older []uint64
	cut := func(step string, with uint64) {
		t.Helper()
		reset := with == 0 || !hasBase || with != cursor
		from := base
		if reset {
			from = empty()
		}
		want := fullScanCut(s, from)
		got := cutStats(t, s, with)
		if got.Reset != reset {
			t.Fatalf("%s, %s: cut reset %v, want %v", label, step, got.Reset, reset)
		}
		if !slices.Equal(got.Delta.Words, want.Words) || !slices.Equal(got.Delta.Cells, want.Cells) ||
			got.Delta.Tasks != want.Tasks || got.Delta.Responses != want.Responses || got.Delta.Workers != want.Workers {
			t.Fatalf("%s, %s: cut (%d cells, %d words) differs from the full scan (%d cells, %d words)",
				label, step, len(got.Delta.Cells), len(got.Delta.Words), len(want.Cells), len(want.Words))
		}
		if err := from.ApplyDelta(want); err != nil {
			t.Fatalf("%s, %s: %v", label, step, err)
		}
		if from.Digest() != got.Digest {
			t.Fatalf("%s, %s: cut digest %x, full scan reaches %x", label, step, got.Digest, from.Digest())
		}
		older = append(older, cursor)
		base, hasBase, cursor = from, true, got.Digest
	}
	for lo := 0; lo < len(subs); {
		hi := min(len(subs), lo+1+src.Intn(40))
		if src.Intn(2) == 0 {
			for _, x := range subs[lo:hi] {
				if err := s.Add(x.w, x.t, x.r); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			batch := make([]Response, 0, hi-lo)
			for _, x := range subs[lo:hi] {
				batch = append(batch, Response{Worker: x.w, Task: x.t, Answer: x.r})
			}
			if err := s.AddBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		lo = hi
		step := fmt.Sprintf("after %d responses", lo)
		switch src.Intn(10) {
		case 0:
			cut(step+", no cursor", 0)
		case 1:
			cut(step+", wrong cursor", cursor+1)
		case 2:
			if len(older) > 0 {
				cut(step+", older cursor", older[src.Intn(len(older))])
			}
		case 3:
			old := s
			s, base, hasBase, cursor = fresh(), empty(), false, 0
			if src.Intn(2) == 0 {
				cut(step+", before a restore", 0)
			}
			if err := s.RestoreCompact(old.CompactCheckpoint()); err != nil {
				t.Fatal(err)
			}
			cut(step+", after a restore", cursor)
		case 4, 5:
			// No cut: the next one covers two chunks.
		default:
			cut(step, cursor)
		}
	}
	cut("at the end", cursor)
	cut("with nothing new", cursor)
}

// BenchmarkStatsPull times one statistics pull's cut on a 2-shard
// evaluator in three regimes, against the O(state) path it replaced —
// merge a full snapshot and diff it against the previous one (snapshot +
// DiffStats; that path also derived the digest in O(change), which this
// omits) — and against a reset, the cut a pull without a matching cursor
// gets (the delta from the empty state):
//
//   - sparse: review_sparse's shape — 128 workers at density 0.1 over a
//     24k-task horizon, 16 new responses (8 on each of two new tasks)
//     between pulls;
//   - sparse/scattered: the same crowd, with 32 responses between pulls
//     on random tasks that already have responses, the arrival order the
//     review_sparse workload produces;
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
		// pulls times path over b.N pulls, next(n) arriving before pull n.
		pulls := func(b *testing.B, path string, next func(n int) []submission) {
			s, _ := NewShardedIncremental(workers, 2)
			add(s, base)
			cursor, prev := cutStats(b, s, 0).Digest, stateOf(s)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				add(s, next(n))
				b.StartTimer()
				switch path {
				case "cut":
					cursor = cutStats(b, s, cursor).Digest
					continue
				case "reset":
					cutStats(b, s, 0)
					continue
				}
				cur := stateOf(s)
				if _, err := DiffStats(prev, cur); err != nil {
					b.Fatal(err)
				}
				prev = cur
			}
		}
		// fresh returns the n-th batch of 16 responses on new tasks.
		fresh := func(n int) []submission {
			batch := make([]submission, 16)
			for k := range batch {
				batch[k] = submission{w: (17*n + k) % workers, t: tasks + 2*n + k%2, r: []crowd.Response{crowd.Yes, crowd.No}[k%2]}
			}
			return batch
		}
		for _, path := range []string{"cut", "diff", "reset"} {
			b.Run(path, func(b *testing.B) { pulls(b, path, fresh) })
		}
		b.Run("scattered", func(b *testing.B) {
			for _, path := range []string{"cut", "diff"} {
				b.Run(path, func(b *testing.B) {
					answered := make([]bool, workers*tasks)
					for _, x := range base {
						answered[x.w*tasks+x.t] = true
					}
					src := randx.NewSource(33)
					pulls(b, path, func(int) []submission {
						batch := make([]submission, 0, 32)
						for len(batch) < cap(batch) {
							w, t := src.Intn(workers), src.Intn(tasks)
							if !answered[w*tasks+t] {
								answered[w*tasks+t] = true
								batch = append(batch, submission{w: w, t: t, r: []crowd.Response{crowd.Yes, crowd.No}[src.Intn(2)]})
							}
						}
						return batch
					})
				})
			}
		})
	})
	b.Run("dense", func(b *testing.B) {
		const workers, tasks, fresh = 64, 4800, 41000
		subs := deltaStream(b, workers, tasks, 0.8, 32)
		old, change := subs[:len(subs)-fresh], subs[len(subs)-fresh:]
		for _, path := range []string{"cut", "diff", "reset"} {
			b.Run(path, func(b *testing.B) {
				b.ReportAllocs()
				for n := 0; n < b.N; n++ {
					b.StopTimer()
					s, _ := NewShardedIncremental(workers, 2)
					add(s, old)
					cursor, prev := cutStats(b, s, 0).Digest, stateOf(s)
					add(s, change)
					b.StartTimer()
					switch path {
					case "cut":
						if cutStats(b, s, cursor).Reset {
							b.Fatal("resumed cut is a reset")
						}
						continue
					case "reset":
						cutStats(b, s, 0)
						continue
					}
					if _, err := DiffStats(prev, stateOf(s)); err != nil {
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
	base := stateOf(s)
	for _, x := range subs {
		if err := s.Add(x.w, x.t, x.r); err != nil {
			t.Fatal(err)
		}
	}
	d, err := DiffStats(base, stateOf(s))
	if err != nil {
		t.Fatal(err)
	}
	acc := accumulatorOf(t, base)
	if err := acc.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	before, digest := acc.Clone(), acc.Digest()
	if err := acc.ApplyDelta(d); err == nil {
		t.Fatal("re-applying a delta succeeded")
	}
	if !sameStats(acc, before) || acc.Digest() != digest {
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
	acc := accumulatorOf(t, stateOf(sharded))
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
