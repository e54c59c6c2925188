package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"crowdassess/internal/crowd"
	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
)

// exportTestDataset generates the reproducible dataset behind
// exportTestStream, for tests that need the batch reference.
func exportTestDataset(t *testing.T, workers, tasks int, seed int64) (*crowd.Dataset, *randx.Source) {
	t.Helper()
	src := randx.NewSource(seed)
	ds, _, err := sim.Binary{Tasks: tasks, Workers: workers, Density: 0.8}.Generate(src)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return ds, src
}

// exportTestStream generates a reproducible response stream.
func exportTestStream(t *testing.T, workers, tasks int, seed int64) []struct {
	w, task int
	r       crowd.Response
} {
	t.Helper()
	ds, src := exportTestDataset(t, workers, tasks, seed)
	var subs []struct {
		w, task int
		r       crowd.Response
	}
	for w := 0; w < workers; w++ {
		for task := 0; task < tasks; task++ {
			if ds.Attempted(w, task) {
				subs = append(subs, struct {
					w, task int
					r       crowd.Response
				}{w, task, ds.Response(w, task)})
			}
		}
	}
	src.Shuffle(len(subs), func(i, j int) { subs[i], subs[j] = subs[j], subs[i] })
	return subs
}

// sameEstimates asserts two estimate slices are bit-identical: equal worker
// and triple counts, identical interval bit patterns, and matching error
// text (errors are built independently on each side, so pointer equality
// cannot hold).
func sameEstimates(t *testing.T, label string, got, want []WorkerEstimate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d estimates, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Worker != w.Worker || g.Triples != w.Triples {
			t.Fatalf("%s: estimate %d is (worker %d, %d triples), want (worker %d, %d triples)",
				label, i, g.Worker, g.Triples, w.Worker, w.Triples)
		}
		if (g.Err == nil) != (w.Err == nil) {
			t.Fatalf("%s: estimate %d error mismatch: %v vs %v", label, i, g.Err, w.Err)
		}
		if g.Err != nil {
			if g.Err.Error() != w.Err.Error() {
				t.Fatalf("%s: estimate %d error text %q, want %q", label, i, g.Err, w.Err)
			}
			continue
		}
		if math.Float64bits(g.Interval.Lo) != math.Float64bits(w.Interval.Lo) ||
			math.Float64bits(g.Interval.Hi) != math.Float64bits(w.Interval.Hi) {
			t.Fatalf("%s: estimate %d interval [%v, %v] not bit-identical to [%v, %v]",
				label, i, g.Interval.Lo, g.Interval.Hi, w.Interval.Lo, w.Interval.Hi)
		}
	}
}

// TestStatsAccumulatorExact is the exactness contract behind the
// distributed layer: partition a stream by task across several evaluators,
// merge their statistics, and the accumulator's intervals are
// bit-identical to the batch algorithm on every response, and its
// statistics equal the ones the dataset defines.
func TestStatsAccumulatorExact(t *testing.T) {
	const workers, tasks, nodes = 9, 240, 3
	const seed = 71
	subs := exportTestStream(t, workers, tasks, seed)
	ds, _ := exportTestDataset(t, workers, tasks, seed)

	parts := make([]*ShardedIncremental, nodes)
	for i := range parts {
		var err error
		if parts[i], err = NewShardedIncremental(workers, 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range subs {
		if err := parts[s.task%nodes].Add(s.w, s.task, s.r); err != nil {
			t.Fatal(err)
		}
	}
	full := bruteForceStats(ds)

	acc, err := NewStatsAccumulator(workers)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range parts {
		if err := acc.Merge(stateOf(p)); err != nil {
			t.Fatal(err)
		}
	}
	if acc.Responses() != full.responses {
		t.Fatalf("accumulator has %d responses, want %d", acc.Responses(), full.responses)
	}
	if acc.Tasks() != full.tasks {
		t.Fatalf("accumulator has %d tasks, want %d", acc.Tasks(), full.tasks)
	}

	opts := EvalOptions{Confidence: 0.9}
	want, err := EvaluateWorkers(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := acc.EvaluateAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	sameEstimates(t, "merged vs batch", got, want)

	// The merged state must equal the dataset's statistics.
	if !sameStats(acc, full) {
		t.Fatal("accumulator differs from the dataset's statistics")
	}
	if acc.Digest() != full.Digest() {
		t.Fatal("accumulator digest differs from the dataset's")
	}
}

// bruteForceStats computes the streaming sufficient statistics of a binary
// dataset by brute force over its cells, sharing no code with the
// streaming path: the independent reference for statistics equality.
func bruteForceStats(ds *crowd.Dataset) *StatsAccumulator {
	n, tasks := ds.Workers(), ds.Tasks()
	a := newStatsAccumulator(n)
	for i := 0; i < n; i++ {
		a.stats.responded[i] = make(dynBitset, (tasks+63)/64)
	}
	for task := 0; task < tasks; task++ {
		for i := 0; i < n; i++ {
			if !ds.Attempted(i, task) {
				continue
			}
			a.responses++
			a.tasks = task + 1
			a.stats.responded[i][task/64] |= 1 << (task % 64)
			for j := 0; j < n; j++ {
				if j != i && ds.Attempted(j, task) {
					a.stats.common[i][j]++
					if ds.Response(i, task) == ds.Response(j, task) {
						a.stats.agree[i][j]++
					}
				}
			}
		}
	}
	a.digestValid = false
	return a
}

// sameStats reports whether two accumulators hold the same statistics:
// crowd size, totals, every counter of both triangles, and attendance
// bitsets, trailing zero words aside (merge order can leave different
// capacities behind identical bit contents).
func sameStats(a, b *StatsAccumulator) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	if a.workers != b.workers || a.tasks != b.tasks || a.responses != b.responses {
		return false
	}
	for i := 0; i < a.workers; i++ {
		if !slices.Equal(a.stats.agree[i], b.stats.agree[i]) || !slices.Equal(a.stats.common[i], b.stats.common[i]) ||
			!slices.Equal(trimBitset(a.stats.responded[i]), trimBitset(b.stats.responded[i])) {
			return false
		}
	}
	return true
}

// TestShardedExportMatchesIncremental: the sharded evaluator's merged
// statistics equal the ones the dataset defines, for any shard count, and
// so does the digest its compact checkpoint carries.
func TestShardedExportMatchesIncremental(t *testing.T) {
	const workers, tasks, seed = 7, 160, 13
	subs := exportTestStream(t, workers, tasks, seed)
	ds, _ := exportTestDataset(t, workers, tasks, seed)
	want := bruteForceStats(ds)
	for _, shards := range []int{1, 5} {
		sh, err := NewShardedIncremental(workers, shards)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range subs {
			if err := sh.Add(s.w, s.task, s.r); err != nil {
				t.Fatal(err)
			}
		}
		if !sameStats(stateOf(sh), want) {
			t.Fatalf("%d-shard statistics differ from the dataset's", shards)
		}
		if got := sh.CompactCheckpoint().Digest; got != want.Digest() {
			t.Fatalf("%d-shard checkpoint digest %x, the dataset's %x", shards, got, want.Digest())
		}
	}
}

// TestExportIsDeepCopy: mutating a compact checkpoint must not corrupt the
// evaluator it was cut from.
func TestExportIsDeepCopy(t *testing.T) {
	const workers = 5
	subs := exportTestStream(t, workers, 80, 3)
	inc, err := NewShardedIncremental(workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range subs {
		if err := inc.Add(s.w, s.task, s.r); err != nil {
			t.Fatal(err)
		}
	}
	before, err := inc.EvaluateAll(EvalOptions{Confidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	cs := inc.CompactCheckpoint()
	want := inc.CompactCheckpoint()
	for w := range cs.Responded {
		for k := range cs.Responded[w] {
			cs.Responded[w][k] = ^cs.Responded[w][k]
		}
		for k := range cs.Answers[w] {
			cs.Answers[w][k] = ^cs.Answers[w][k]
		}
	}
	after, err := inc.EvaluateAll(EvalOptions{Confidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	sameEstimates(t, "after checkpoint mutation", after, before)
	if !sameCompact(inc.CompactCheckpoint(), want) {
		t.Fatal("mutating a checkpoint changed the next one")
	}
}

// TestMergeValidation: merges that cannot be exact are rejected with clear
// errors and leave the accumulator as it was.
func TestMergeValidation(t *testing.T) {
	acc, err := NewStatsAccumulator(4)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewShardedIncremental(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range exportTestStream(t, 4, 40, 9) {
		if err := inc.Add(s.w, s.task, s.r); err != nil {
			t.Fatal(err)
		}
	}
	wider, err := NewStatsAccumulator(5)
	if err != nil {
		t.Fatal(err)
	}
	empty := acc.Clone()
	for _, tc := range []struct {
		name, frag string
		o          *StatsAccumulator
	}{
		{"worker-count mismatch", "5 workers", wider},
		{"self merge", "itself", acc},
	} {
		if err := acc.Merge(tc.o); err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: Merge error %v, want one mentioning %q", tc.name, err, tc.frag)
		}
		if !sameStats(acc, empty) {
			t.Fatalf("%s: a refused merge changed the accumulator", tc.name)
		}
	}
	// A matching accumulator still merges.
	if err := acc.Merge(stateOf(inc)); err != nil {
		t.Fatalf("valid merge rejected: %v", err)
	}
	if !sameStats(acc, stateOf(inc)) {
		t.Fatal("merging into an empty accumulator did not copy the statistics")
	}
}
