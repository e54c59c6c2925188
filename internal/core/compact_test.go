package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"crowdassess/internal/crowd"
)

// fillEvaluator ingests a deterministic pseudo-random response stream:
// each task gets answers from a random subset of workers.
func fillEvaluator(t *testing.T, add func(w, task int, r crowd.Response) error, workers, tasks int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for task := 0; task < tasks; task++ {
		for w := 0; w < workers; w++ {
			if rng.Intn(3) == 0 {
				continue
			}
			r := crowd.Yes
			if rng.Intn(4) == 0 {
				r = crowd.No
			}
			if err := add(w, task, r); err != nil {
				t.Fatalf("add(%d,%d): %v", w, task, err)
			}
		}
	}
}

func requireSameEstimates(t *testing.T, a, b []WorkerEstimate) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("estimate counts differ: %d vs %d", len(a), len(b))
	}
	for w := range a {
		if math.Float64bits(a[w].Interval.Mean) != math.Float64bits(b[w].Interval.Mean) ||
			math.Float64bits(a[w].Interval.Lo) != math.Float64bits(b[w].Interval.Lo) ||
			math.Float64bits(a[w].Interval.Hi) != math.Float64bits(b[w].Interval.Hi) ||
			a[w].Triples != b[w].Triples || (a[w].Err == nil) != (b[w].Err == nil) {
			t.Fatalf("worker %d estimates diverge: %+v vs %+v", w, a[w], b[w])
		}
	}
}

func TestCompactCheckpointRoundTrip(t *testing.T) {
	const workers, tasks = 12, 300
	orig, err := NewShardedIncremental(workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	fillEvaluator(t, orig.Add, workers, tasks, 1)

	cs := orig.CompactCheckpoint()
	restored, err := NewShardedIncremental(workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreCompact(cs); err != nil {
		t.Fatalf("RestoreCompact: %v", err)
	}

	opts := EvalOptions{Confidence: 0.95}
	want, err := orig.EvaluateAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.EvaluateAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameEstimates(t, want, got)

	// Duplicate rejection resumes exactly across the cut.
	attended := func(w, task int) bool { return dynBitset(cs.Stats.Responded[w]).get(task) }
	var dupW, dupT = -1, -1
	for w := 0; w < workers && dupW < 0; w++ {
		for task := 0; task < tasks; task++ {
			if attended(w, task) {
				dupW, dupT = w, task
				break
			}
		}
	}
	if err := restored.Add(dupW, dupT, crowd.Yes); err == nil {
		t.Fatal("restored evaluator accepted a duplicate response")
	}

	// Post-restore ingestion pairs correctly against pre-checkpoint
	// responders: keep ingesting into both and compare again.
	fillEvaluator(t, func(w, task int, r crowd.Response) error {
		if attended(w, task) {
			return nil
		}
		if err := orig.Add(w, task, r); err != nil {
			return err
		}
		return restored.Add(w, task, r)
	}, workers, tasks+50, 2)
	want, _ = orig.EvaluateAll(opts)
	got, _ = restored.EvaluateAll(opts)
	requireSameEstimates(t, want, got)

	// The spammer screen rebuilds identically too (majorities are
	// order-independent).
	a1, d1 := orig.DisagreementCounts()
	a2, d2 := restored.DisagreementCounts()
	for w := range a1 {
		if a1[w] != a2[w] || d1[w] != d2[w] {
			t.Fatalf("disagreement tallies diverge for worker %d", w)
		}
	}
}

func TestCompactCheckpointShardedRoundTrip(t *testing.T) {
	const workers = 9
	orig, err := NewShardedIncremental(workers, 4)
	if err != nil {
		t.Fatal(err)
	}
	fillEvaluator(t, orig.Add, workers, 200, 3)

	cs := orig.CompactCheckpoint()
	restored, err := NewShardedIncremental(workers, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreCompact(cs); err != nil {
		t.Fatalf("RestoreCompact: %v", err)
	}
	opts := EvalOptions{Confidence: 0.9}
	want, err := orig.EvaluateAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.EvaluateAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameEstimates(t, want, got)

	// Across shard counts: a compact state from a 4-shard evaluator
	// restores into a one-shard one with identical decisions.
	single, err := NewShardedIncremental(workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := single.RestoreCompact(cs); err != nil {
		t.Fatalf("restore into one shard: %v", err)
	}
	sg, err := single.EvaluateAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameEstimates(t, want, sg)
}

func TestRestoreCompactRejectsCorruption(t *testing.T) {
	const workers = 8
	orig, err := NewShardedIncremental(workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	fillEvaluator(t, orig.Add, workers, 100, 4)

	fresh := func() *ShardedIncremental {
		inc, err := NewShardedIncremental(workers, 1)
		if err != nil {
			t.Fatal(err)
		}
		return inc
	}
	mutations := []struct {
		name string
		mut  func(cs *CompactState)
	}{
		{"nil stats", func(cs *CompactState) { cs.Stats = nil }},
		{"missing answer rows", func(cs *CompactState) { cs.Answers = cs.Answers[:workers-1] }},
		{"counter bump", func(cs *CompactState) { cs.Stats.Agree[1][2]++; cs.Stats.Agree[2][1]++ }},
		{"common bump", func(cs *CompactState) { cs.Stats.Common[0][3]++; cs.Stats.Common[3][0]++ }},
		{"answer outside attendance", func(cs *CompactState) {
			// Set an answer bit on a task worker 0 never attended.
			for task := 0; ; task++ {
				if !dynBitset(cs.Stats.Responded[0]).get(task) {
					b := dynBitset(cs.Answers[0])
					b.set(task)
					cs.Answers[0] = b
					return
				}
			}
		}},
		{"answer flip skews counters", func(cs *CompactState) {
			// Flipping a legitimate answer bit leaves structure valid but
			// contradicts the agree counters.
			b := dynBitset(cs.Answers[0])
			for task := 0; ; task++ {
				if dynBitset(cs.Stats.Responded[0]).get(task) {
					b[task/64] ^= 1 << (uint(task) % 64)
					cs.Answers[0] = b
					return
				}
			}
		}},
		{"response total", func(cs *CompactState) { cs.Stats.Responses++ }},
		{"task total", func(cs *CompactState) { cs.Stats.Tasks++ }},
	}
	for _, tc := range mutations {
		cs := orig.CompactCheckpoint()
		tc.mut(cs)
		if err := fresh().RestoreCompact(cs); err == nil {
			t.Fatalf("%s: corrupted compact state accepted", tc.name)
		}
	}
	// And the untampered baseline still restores, so the cases above fail
	// for the right reason.
	if err := fresh().RestoreCompact(orig.CompactCheckpoint()); err != nil {
		t.Fatalf("baseline restore failed: %v", err)
	}
}

// BenchmarkCheckpointCost pins the O(delta) claim: with the task set fixed,
// CompactCheckpoint's cost stays flat as total ingested history grows.
func BenchmarkCheckpointCost(b *testing.B) {
	const workers, tasks = 50, 2000
	build := func(perTask int) *ShardedIncremental {
		inc, err := NewShardedIncremental(workers, 1)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for task := 0; task < tasks; task++ {
			perm := rng.Perm(workers)
			for _, w := range perm[:perTask] {
				r := crowd.Yes
				if rng.Intn(3) == 0 {
					r = crowd.No
				}
				if err := inc.Add(w, task, r); err != nil {
					b.Fatal(err)
				}
			}
		}
		return inc
	}
	for _, perTask := range []int{5, 20, 50} {
		inc := build(perTask)
		history := inc.Responses()
		b.Run(fmt.Sprintf("compact/history=%d", history), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if cs := inc.CompactCheckpoint(); cs.Stats.Responses != history {
					b.Fatal("bad checkpoint")
				}
			}
		})
	}
}
