package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"crowdassess/internal/crowd"
	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
)

// restoreDataset is the crowd behind restoreStream.
func restoreDataset(t *testing.T, seed int64) *crowd.Dataset {
	t.Helper()
	ds, _, err := sim.Binary{Tasks: 120, Workers: 7, Density: 0.6}.Generate(randx.NewSource(900 + seed))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func restoreStream(t *testing.T, seed int64) []submission {
	t.Helper()
	return shuffledStream(t, restoreDataset(t, seed), seed)
}

// TestCheckpointRestoreMidStream is the fault-tolerance property: cut the
// stream at an arbitrary point (never aligned to task boundaries), take a
// compact checkpoint, rebuild a fresh evaluator from it, replay the
// remainder, and require estimates bit-identical to the batch algorithm,
// and disagreement screens and duplicate rejection identical to the
// uninterrupted evaluator.
func TestCheckpointRestoreMidStream(t *testing.T) {
	const workers = 7
	opts := EvalOptions{Confidence: 0.9}
	for _, shards := range []int{1, 3} {
		name := fmt.Sprintf("shards=%d", shards)
		mk := func() *ShardedIncremental {
			s, err := NewShardedIncremental(workers, shards)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		for seed := int64(0); seed < 3; seed++ {
			subs := restoreStream(t, seed)
			cut := len(subs) * (2 + int(seed)) / 7

			uninterrupted := mk()
			for _, s := range subs {
				if err := uninterrupted.Add(s.w, s.t, s.r); err != nil {
					t.Fatal(err)
				}
			}

			first := mk()
			for _, s := range subs[:cut] {
				if err := first.Add(s.w, s.t, s.r); err != nil {
					t.Fatal(err)
				}
			}
			cs := first.CompactCheckpoint()
			if _, n := attendanceTotals(cs.Responded); n != cut {
				t.Fatalf("%s seed %d: checkpoint carries %d responses, want %d", name, seed, n, cut)
			}

			restored := mk()
			if err := restored.RestoreCompact(cs); err != nil {
				t.Fatalf("%s seed %d: restore: %v", name, seed, err)
			}
			// The restored evaluator rejects duplicates of pre-cut responses.
			if err := restored.Add(subs[0].w, subs[0].t, subs[0].r); err == nil {
				t.Fatalf("%s seed %d: duplicate of pre-checkpoint response accepted", name, seed)
			}
			for _, s := range subs[cut:] {
				if err := restored.Add(s.w, s.t, s.r); err != nil {
					t.Fatal(err)
				}
			}

			if restored.Tasks() != uninterrupted.Tasks() || restored.Responses() != uninterrupted.Responses() {
				t.Fatalf("%s seed %d: tasks/responses %d/%d, want %d/%d", name, seed,
					restored.Tasks(), restored.Responses(), uninterrupted.Tasks(), uninterrupted.Responses())
			}
			want, err := EvaluateWorkers(restoreDataset(t, seed), opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := restored.EvaluateAll(opts)
			if err != nil {
				t.Fatal(err)
			}
			for w := range want {
				if (want[w].Err == nil) != (got[w].Err == nil) {
					t.Fatalf("%s seed %d worker %d: error mismatch %v vs %v", name, seed, w, got[w].Err, want[w].Err)
				}
				if want[w].Err != nil {
					continue
				}
				if math.Float64bits(want[w].Interval.Lo) != math.Float64bits(got[w].Interval.Lo) ||
					math.Float64bits(want[w].Interval.Hi) != math.Float64bits(got[w].Interval.Hi) {
					t.Fatalf("%s seed %d worker %d: interval %v != %v", name, seed, w, got[w].Interval, want[w].Interval)
				}
			}
			wantA, wantD := uninterrupted.DisagreementCounts()
			gotA, gotD := restored.DisagreementCounts()
			if !slices.Equal(wantA, gotA) || !slices.Equal(wantD, gotD) {
				t.Fatalf("%s seed %d: disagreement tallies diverge: %v/%v vs %v/%v", name, seed, gotA, gotD, wantA, wantD)
			}
			if !sameCompact(restored.CompactCheckpoint(), uninterrupted.CompactCheckpoint()) {
				t.Fatalf("%s seed %d: restored checkpoint differs from uninterrupted", name, seed)
			}
		}
	}
}

// TestCheckpointLogCanonicalOrder: equal states produce equal compact
// checkpoints — and expand to equal replay logs — no matter the ingestion
// order the state was built in.
func TestCheckpointLogCanonicalOrder(t *testing.T) {
	subs := restoreStream(t, 1)
	a, err := NewShardedIncremental(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewShardedIncremental(7, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range subs {
		if err := a.Add(s.w, s.t, s.r); err != nil {
			t.Fatal(err)
		}
	}
	// Same responses, different global order (per-task order reversed, as a
	// replica fed by another coordinator might see them).
	for task := 0; task < 200; task++ {
		for i := len(subs) - 1; i >= 0; i-- {
			if s := subs[i]; s.t == task {
				if err := b.Add(s.w, s.t, s.r); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	ca, cb := a.CompactCheckpoint(), b.CompactCheckpoint()
	if !sameCompact(ca, cb) {
		t.Fatal("compact checkpoints differ between evaluators holding the same responses")
	}
	if !slices.Equal(compactLog(ca), compactLog(cb)) {
		t.Fatal("canonical replay logs differ between evaluators holding the same responses")
	}
}

// TestRestoreCompactRejectsReceiver covers the receivers a restore must
// refuse — non-empty ones, at one shard and at several, and crowd-size
// mismatches — and a missing state.
func TestRestoreCompactRejectsReceiver(t *testing.T) {
	subs := restoreStream(t, 2)
	donor, err := NewShardedIncremental(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range subs[:60] {
		if err := donor.Add(s.w, s.t, s.r); err != nil {
			t.Fatal(err)
		}
	}
	cs := donor.CompactCheckpoint()

	expectErr := func(name, frag string, got error) {
		t.Helper()
		if got == nil || !strings.Contains(got.Error(), frag) {
			t.Fatalf("%s: got %v, want error containing %q", name, got, frag)
		}
	}

	busy, _ := NewShardedIncremental(7, 1)
	if err := busy.Add(0, 0, crowd.Yes); err != nil {
		t.Fatal(err)
	}
	expectErr("non-empty receiver", "already holding", busy.RestoreCompact(cs))

	smaller, _ := NewShardedIncremental(5, 1)
	expectErr("crowd mismatch", "7-worker crowd", smaller.RestoreCompact(cs))

	fresh, _ := NewShardedIncremental(7, 1)
	expectErr("nil state", "no attendance bitsets", fresh.RestoreCompact(nil))
	expectErr("empty state", "no attendance bitsets", fresh.RestoreCompact(&CompactState{}))

	// Several shards enforce the same contract.
	shardedBusy, _ := NewShardedIncremental(7, 2)
	if err := shardedBusy.Add(0, 0, crowd.Yes); err != nil {
		t.Fatal(err)
	}
	expectErr("sharded non-empty receiver", "already holding", shardedBusy.RestoreCompact(cs))
}

// TestCompactStateIgnoresBitsetCapacity: trailing zero words in a
// checkpoint's bitsets never distinguish equal states — the digest has no
// term for a zero word — while a flipped attendance bit is refused.
func TestCompactStateIgnoresBitsetCapacity(t *testing.T) {
	donor, err := NewShardedIncremental(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 4; w++ {
		for task := 0; task < 3; task++ {
			if err := donor.Add(w, task, crowd.Response(1+(w+task)%2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	cs := donor.CompactCheckpoint()
	cs.Responded[2] = append(cs.Responded[2], 0, 0)
	cs.Answers[1] = append(cs.Answers[1], 0)
	padded, err := NewShardedIncremental(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := padded.RestoreCompact(cs); err != nil {
		t.Fatalf("trailing zero bitset words broke the restore: %v", err)
	}
	if !sameCompact(padded.CompactCheckpoint(), donor.CompactCheckpoint()) {
		t.Fatal("the padded checkpoint restored to another state")
	}
	cs.Responded[2][0] ^= 1 << 5
	flipped, err := NewShardedIncremental(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := flipped.RestoreCompact(cs); err == nil {
		t.Fatal("a flipped attendance bit restored")
	}
}
