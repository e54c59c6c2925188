package core

import (
	"slices"
	"testing"

	"crowdassess/internal/crowd"
	"crowdassess/internal/randx"
)

// fuzzTasks bounds the task indices FuzzShardedAdd draws, so its columns
// see many responses and its attendance spans several words.
const fuzzTasks = 200

// FuzzShardedAdd decodes its input into (worker, task, answer) triples over
// a small crowd — byte 0 picks 3 to 70 workers, so task columns have one or
// two words, then each three bytes are one triple — and feeds them to
// evaluators at 1 and 3 shards and to a Dataset. The two shard counts must
// export equal statistics, the majority tallies must equal the Dataset's,
// each compact checkpoint must hold the Dataset's cells and round-trip
// through RestoreCompact, and a duplicate must be rejected exactly when the
// Dataset already holds that cell.
func FuzzShardedAdd(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 0, 0, 2, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 0, 5, 1, 1, 5, 0, 2, 5, 1, 3, 5, 0, 3, 70, 1, 0, 5, 1})
	// Random crowds of 12 and 70 workers, on three tasks in each of four
	// task words so that responses share tasks.
	src := randx.NewSource(21)
	for _, workers := range []byte{9, 67} {
		data := []byte{workers}
		for i := 0; i < 40; i++ {
			data = append(data, byte(src.Intn(256)), byte(64*src.Intn(4)+src.Intn(3)), byte(src.Intn(2)))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1+3*400 {
			return
		}
		workers := 3 + int(data[0])%68
		ds := crowd.MustNewDataset(workers, fuzzTasks, 2)
		var evs []*ShardedIncremental
		for _, shards := range []int{1, 3} {
			ev, err := NewShardedIncremental(workers, shards)
			if err != nil {
				t.Fatal(err)
			}
			evs = append(evs, ev)
		}
		for rest := data[1:]; len(rest) >= 3; rest = rest[3:] {
			w, task := int(rest[0])%workers, int(rest[1])%fuzzTasks
			r := crowd.No
			if rest[2]&1 == 1 {
				r = crowd.Yes
			}
			held := ds.Attempted(w, task)
			for i, ev := range evs {
				if err := ev.Add(w, task, r); (err != nil) != held {
					t.Fatalf("evaluator %d: Add(%d, %d, %v) = %v with the cell held %v", i, w, task, r, err, held)
				}
			}
			if !held {
				if err := ds.SetResponse(w, task, r); err != nil {
					t.Fatal(err)
				}
			}
		}

		if !sameCompact(evs[0].CompactCheckpoint(), evs[1].CompactCheckpoint()) {
			t.Fatal("1 and 3 shards checkpoint different states")
		}
		wantAttempted, wantDisagree := datasetTallies(ds)
		for i, ev := range evs {
			attempted, disagree := ev.DisagreementCounts()
			if !slices.Equal(attempted, wantAttempted) || !slices.Equal(disagree, wantDisagree) {
				t.Fatalf("evaluator %d: tallies %v/%v, Dataset %v/%v", i, attempted, disagree, wantAttempted, wantDisagree)
			}
			cs := ev.CompactCheckpoint()
			tasks, _ := attendanceTotals(cs.Responded)
			snap, err := compactDataset(cs)
			if err != nil && tasks > 0 {
				t.Fatalf("evaluator %d: %v", i, err)
			}
			for w := 0; w < workers; w++ {
				for task := 0; task < fuzzTasks; task++ {
					got := crowd.None
					if task < tasks {
						got = snap.Response(w, task)
					}
					if got != ds.Response(w, task) {
						t.Fatalf("evaluator %d: checkpoint cell (%d,%d) = %v, Dataset %v", i, w, task, got, ds.Response(w, task))
					}
				}
			}
			restored, err := NewShardedIncremental(workers, ev.Shards())
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.RestoreCompact(cs); err != nil {
				t.Fatalf("evaluator %d: %v", i, err)
			}
			if !sameCompact(restored.CompactCheckpoint(), cs) {
				t.Fatalf("evaluator %d: the restored evaluator checkpoints another state", i)
			}
		}
	})
}

// datasetTallies is the batch form of DisagreementCounts: per worker, the
// tasks attempted and those where the answer differs from MajorityVote.
func datasetTallies(ds *crowd.Dataset) (attempted, disagree []int) {
	attempted, disagree = make([]int, ds.Workers()), make([]int, ds.Workers())
	maj := ds.MajorityVote()
	for w := 0; w < ds.Workers(); w++ {
		for task := 0; task < ds.Tasks(); task++ {
			if r := ds.Response(w, task); r != crowd.None {
				attempted[w]++
				if r != maj[task] {
					disagree[w]++
				}
			}
		}
	}
	return attempted, disagree
}
