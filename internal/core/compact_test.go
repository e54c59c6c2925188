package core

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"crowdassess/internal/crowd"
	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
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

func requireSameEstimates(t testing.TB, a, b []WorkerEstimate) {
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
	attended := func(w, task int) bool { return dynBitset(cs.Responded[w]).get(task) }
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
	// firstTask returns the first task worker w attended (want true) or
	// did not (want false).
	firstTask := func(cs *CompactState, w int, want bool) int {
		task := 0
		for dynBitset(cs.Responded[w]).get(task) != want {
			task++
		}
		return task
	}
	mutations := []struct {
		name, frag string
		mut        func(cs *CompactState)
	}{
		{"nil attendance rows", "no attendance bitsets", func(cs *CompactState) { cs.Responded = nil }},
		{"missing attendance rows", "answer bitsets for", func(cs *CompactState) { cs.Responded = cs.Responded[:workers-1] }},
		{"missing answer rows", "answer bitsets for", func(cs *CompactState) { cs.Answers = cs.Answers[:workers-1] }},
		{"answer outside attendance", "never attended", func(cs *CompactState) {
			b := dynBitset(cs.Answers[0])
			b.set(firstTask(cs, 0, false))
			cs.Answers[0] = b
		}},
		{"answer flip", "bitsets derive", func(cs *CompactState) {
			// Flipping a legitimate answer bit leaves the structure valid
			// but changes the agree counters the bitsets derive.
			task := firstTask(cs, 0, true)
			b := dynBitset(cs.Answers[0])
			b.grow(task/64 + 1)
			b[task/64] ^= 1 << (uint(task) % 64)
			cs.Answers[0] = b
		}},
		{"attendance flip", "bitsets derive", func(cs *CompactState) {
			// Dropping an attended task with a No answer leaves the
			// answers inside attendance, but the response total, and the
			// counters, the bitsets derive change.
			task := 0
			for !dynBitset(cs.Responded[1]).get(task) || dynBitset(cs.Answers[1]).get(task) {
				task++
			}
			cs.Responded[1][task/64] &^= 1 << (uint(task) % 64)
		}},
		{"attendance past the horizon", "bitsets derive", func(cs *CompactState) {
			tasks, _ := attendanceTotals(cs.Responded)
			b := dynBitset(cs.Responded[2])
			b.set(tasks)
			cs.Responded[2] = b
		}},
		{"digest bump", "bitsets derive", func(cs *CompactState) { cs.Digest++ }},
	}
	for _, tc := range mutations {
		cs := orig.CompactCheckpoint()
		tc.mut(cs)
		if err := fresh().RestoreCompact(cs); err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Fatalf("%s: restore error %v, want one mentioning %q", tc.name, err, tc.frag)
		}
	}
	// And the untampered baseline still restores, so the cases above fail
	// for the right reason.
	if err := fresh().RestoreCompact(orig.CompactCheckpoint()); err != nil {
		t.Fatalf("baseline restore failed: %v", err)
	}
}

// loggedResponse is one submission of a replay log: worker Worker answered
// task Task with Answer.
type loggedResponse struct {
	Worker int
	Task   int
	Answer crowd.Response
}

// compactLog expands a validated compact state into a synthetic response
// log: ascending task index, ascending worker index within a task. The
// counters are order-independent, so replaying this canonical order through
// the ordinary Add path rebuilds the exact statistics; only the original
// arrival order within each task — which nothing downstream depends on —
// is normalized away.
func compactLog(cs *CompactState) []loggedResponse {
	tasks, responses := attendanceTotals(cs.Responded)
	log := make([]loggedResponse, 0, responses)
	for t := 0; t < tasks; t++ {
		word, bit := t/64, uint64(1)<<(uint(t)%64)
		for w, ri := range cs.Responded {
			if word >= len(ri) || ri[word]&bit == 0 {
				continue
			}
			answer := crowd.No
			if yi := cs.Answers[w]; word < len(yi) && yi[word]&bit != 0 {
				answer = crowd.Yes
			}
			log = append(log, loggedResponse{Worker: w, Task: t, Answer: answer})
		}
	}
	return log
}

// replayCompact is the oracle RestoreCompact is pinned to: a fresh
// evaluator fed the checkpoint's canonical log through Add.
func replayCompact(t testing.TB, cs *CompactState, shards int) *ShardedIncremental {
	t.Helper()
	ev, err := NewShardedIncremental(len(cs.Responded), shards)
	if err != nil {
		t.Fatal(err)
	}
	for i, lr := range compactLog(cs) {
		if err := ev.Add(lr.Worker, lr.Task, lr.Answer); err != nil {
			t.Fatalf("replaying response %d: %v", i, err)
		}
	}
	return ev
}

// requireSameShards requires two evaluators' shards to hold the same
// state, field by field: counters, attendance bitsets, task columns and
// their offsets, the words the next cut reads, totals and epochs.
func requireSameShards(t testing.TB, got, want *ShardedIncremental) {
	t.Helper()
	if len(got.shards) != len(want.shards) {
		t.Fatalf("%d shards, want %d", len(got.shards), len(want.shards))
	}
	for i, g := range got.shards {
		w := want.shards[i]
		if g.tasks != w.tasks || g.responses != w.responses || g.epoch != w.epoch {
			t.Fatalf("shard %d: tasks/responses/epoch %d/%d/%d, want %d/%d/%d", i, g.tasks, g.responses, g.epoch, w.tasks, w.responses, w.epoch)
		}
		for p := range g.stats.agree {
			if !slices.Equal(g.stats.agree[p], w.stats.agree[p]) || !slices.Equal(g.stats.common[p], w.stats.common[p]) {
				t.Fatalf("shard %d: counter row %d differs", i, p)
			}
			if !slices.Equal(g.stats.responded[p], w.stats.responded[p]) {
				t.Fatalf("shard %d: attendance of worker %d is %x, want %x", i, p, g.stats.responded[p], w.stats.responded[p])
			}
		}
		if !maps.Equal(columnsOf(g.colOf), columnsOf(w.colOf)) || !slices.Equal(g.cols, w.cols) {
			t.Fatalf("shard %d: task columns differ", i)
		}
		if gc, wc := cutPending(g), cutPending(w); !slices.EqualFunc(gc, wc, slices.Equal) {
			t.Fatalf("shard %d: the next cut reads words %x, want %x", i, gc, wc)
		}
	}
}

// cutPending is what the next statistics cut reads of a shard: nil when
// it reads the shard whole, else each worker's marked words, trimmed of
// trailing zero mark words.
func cutPending(sh *incShard) [][]uint64 {
	if sh.whole[cutReader] {
		return nil
	}
	out := make([][]uint64, len(sh.marks[cutReader]))
	for w, m := range sh.marks[cutReader] {
		n := len(m)
		for n > 0 && m[n-1] == 0 {
			n--
		}
		out[w] = m[:n]
	}
	return out
}

// columnsOf lists a column index as task → column number.
func columnsOf(c colIndex) map[int]int {
	m := map[int]int{}
	c.each(func(t, col int) { m[t] = col })
	return m
}

// requireSameReads requires EvaluateAll and MajorityDisagreement to agree
// bit for bit.
func requireSameReads(t testing.TB, got, want *ShardedIncremental) {
	t.Helper()
	opts := EvalOptions{Confidence: 0.9}
	g, gerr := got.EvaluateAll(opts)
	w, werr := want.EvaluateAll(opts)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("EvaluateAll errors differ: %v vs %v", gerr, werr)
	}
	requireSameEstimates(t, g, w)
	gm, wm := got.MajorityDisagreement(), want.MajorityDisagreement()
	for p := range wm {
		if math.Float64bits(gm[p]) != math.Float64bits(wm[p]) {
			t.Fatalf("worker %d majority disagreement %v, want %v", p, gm[p], wm[p])
		}
	}
}

// TestRestoreCompactMatchesReplay pins the direct install to the replay
// oracle at shards {1,2,7} and at crowds on both sides of the 64-worker
// word boundary: the same shard state, bit-identical reads, and the same
// duplicate rejection and pairing on later Adds.
func TestRestoreCompactMatchesReplay(t *testing.T) {
	for _, workers := range []int{3, 64, 65, 130} {
		ds, _, err := sim.Binary{Tasks: 293, Workers: workers, Density: 0.6}.Generate(randx.NewSource(int64(4000 + workers)))
		if err != nil {
			t.Fatal(err)
		}
		subs := shuffledStream(t, ds, int64(workers))
		for _, shards := range []int{1, 2, 7} {
			t.Run(fmt.Sprintf("workers=%d/shards=%d", workers, shards), func(t *testing.T) {
				donor, err := NewShardedIncremental(workers, shards)
				if err != nil {
					t.Fatal(err)
				}
				cut := len(subs) * 3 / 4
				for _, s := range subs[:cut] {
					if err := donor.Add(s.w, s.t, s.r); err != nil {
						t.Fatal(err)
					}
				}
				cs := donor.CompactCheckpoint()
				got, err := NewShardedIncremental(workers, shards)
				if err != nil {
					t.Fatal(err)
				}
				if err := got.RestoreCompact(cs); err != nil {
					t.Fatal(err)
				}
				want := replayCompact(t, cs, shards)
				requireSameShards(t, got, want)
				requireSameReads(t, got, want)

				for _, s := range subs[:cut] {
					gerr, werr := got.Add(s.w, s.t, s.r), want.Add(s.w, s.t, s.r)
					if gerr == nil || werr == nil {
						t.Fatalf("duplicate (%d,%d) accepted: restored %v, replayed %v", s.w, s.t, gerr, werr)
					}
				}
				for _, s := range subs[cut:] {
					if err := got.Add(s.w, s.t, s.r); err != nil {
						t.Fatal(err)
					}
					if err := want.Add(s.w, s.t, s.r); err != nil {
						t.Fatal(err)
					}
				}
				requireSameShards(t, got, want)
				requireSameReads(t, got, want)
			})
		}
	}
}

// TestRestoreCompactRacesAdd races Adds on tasks past a checkpoint's
// horizon against its restore into an empty evaluator. The restore either
// refuses, leaving exactly the Adds, or lands whole, with every Add on top
// of it; nothing in between.
func TestRestoreCompactRacesAdd(t *testing.T) {
	const workers, shards, adders = 7, 3, 4
	donor, err := NewShardedIncremental(workers, shards)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range restoreStream(t, 0) {
		if err := donor.Add(s.w, s.t, s.r); err != nil {
			t.Fatal(err)
		}
	}
	cs := donor.CompactCheckpoint()
	tasks, _ := attendanceTotals(cs.Responded)
	addAll := func(ev *ShardedIncremental, a int) error {
		return ev.Add(a, tasks+a, crowd.Response(1+a%2))
	}
	landed, refused := 0, 0
	for round := 0; round < 500; round++ {
		ev, err := NewShardedIncremental(workers, shards)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		var restoreErr error
		addErrs := make([]error, adders)
		wg.Add(1 + adders)
		go func() {
			defer wg.Done()
			<-start
			restoreErr = ev.RestoreCompact(cs)
		}()
		for a := 0; a < adders; a++ {
			go func() {
				defer wg.Done()
				<-start
				addErrs[a] = addAll(ev, a)
			}()
		}
		close(start)
		wg.Wait()
		for a, err := range addErrs {
			if err != nil {
				t.Fatalf("round %d: Add %d: %v", round, a, err)
			}
		}

		want, err := NewShardedIncremental(workers, shards)
		if err != nil {
			t.Fatal(err)
		}
		if restoreErr == nil {
			landed++
			if err := want.RestoreCompact(cs); err != nil {
				t.Fatal(err)
			}
		} else {
			if !strings.Contains(restoreErr.Error(), "already holding") {
				t.Fatalf("round %d: restore failed with %v, want a refusal of a non-empty receiver", round, restoreErr)
			}
			refused++
		}
		for a := 0; a < adders; a++ {
			if err := addAll(want, a); err != nil {
				t.Fatal(err)
			}
		}
		if !sameCompact(ev.CompactCheckpoint(), want.CompactCheckpoint()) {
			t.Fatalf("round %d: statistics are neither the refused nor the landed outcome (restore error %v)", round, restoreErr)
		}
		ga, gd := ev.DisagreementCounts()
		wa, wd := want.DisagreementCounts()
		if !slices.Equal(ga, wa) || !slices.Equal(gd, wd) {
			t.Fatalf("round %d: task columns are neither outcome", round)
		}
	}
	t.Logf("%d restores landed, %d refused", landed, refused)
}

// TestTranspose64 checks the bit-transpose kernel against the definition
// on random blocks and on single bits.
func TestTranspose64(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for round := 0; round < 100; round++ {
		var a [64]uint64
		for i := range a {
			a[i] = rng.Uint64()
		}
		if round < 64 {
			a = [64]uint64{}
			a[round] = 1 << uint(63-round/2)
		}
		got := a
		transpose64(&got)
		for i := range a {
			for j := range a {
				if a[i]>>uint(j)&1 != got[j]>>uint(i)&1 {
					t.Fatalf("round %d: bit (%d,%d) did not move to (%d,%d)", round, i, j, j, i)
				}
			}
		}
	}
}

// mutateCompact applies one fuzzer-chosen edit to a compact state: flip an
// attendance or answer bit, pad or cut a bitset, bump the digest, set an
// attendance bit past the horizon, set the digest to the one the bitsets
// derive, or drop an answer row. Most edits make the state inconsistent;
// some, like padding with zero words, or flipping a lone attendance bit
// and then re-deriving the digest, keep it valid.
func mutateCompact(cs *CompactState, op, a, b, c byte) {
	w := int(a) % len(cs.Responded)
	flip := func(rows [][]uint64) {
		if w >= len(rows) {
			return
		}
		task := int(b) + 256*int(c%2)
		bs := dynBitset(rows[w])
		bs.grow(task/64 + 1)
		bs[task/64] ^= 1 << (uint(task) % 64)
		rows[w] = bs
	}
	pad := func(rows [][]uint64) {
		if w < len(rows) {
			rows[w] = append(rows[w], make([]uint64, 1+int(b)%3)...)
		}
	}
	cut := func(rows [][]uint64) {
		if w < len(rows) {
			rows[w] = rows[w][:min(len(rows[w]), int(b)%5)]
		}
	}
	switch op % 11 {
	case 0:
		flip(cs.Responded)
	case 1:
		flip(cs.Answers)
	case 2:
		pad(cs.Responded)
	case 3:
		pad(cs.Answers)
	case 4:
		cut(cs.Responded)
	case 5:
		cut(cs.Answers)
	case 6:
		cs.Digest += uint64(int64(int8(c)))
	case 7:
		cs.Digest ^= 1 << (b % 64)
	case 8:
		tasks, _ := attendanceTotals(cs.Responded)
		bs := dynBitset(cs.Responded[w])
		bs.set(tasks + int(c)%64)
		cs.Responded[w] = bs
	case 9:
		if d, ok := replayDigest(cs); ok {
			cs.Digest = d
		}
	case 10:
		cs.Answers = cs.Answers[:max(0, len(cs.Answers)-1)]
	}
}

// replayDigest is the digest of the statistics a compact state's bitsets
// derive, taken from an evaluator fed its canonical log through Add. ok is
// false when the state has no answer row for some worker.
func replayDigest(cs *CompactState) (d uint64, ok bool) {
	if len(cs.Answers) != len(cs.Responded) {
		return 0, false
	}
	ev, err := NewShardedIncremental(len(cs.Responded), 1)
	if err != nil {
		panic(err)
	}
	for _, lr := range compactLog(cs) {
		if err := ev.Add(lr.Worker, lr.Task, lr.Answer); err != nil {
			panic(err)
		}
	}
	return ev.CompactCheckpoint().Digest, true
}

// sameCompact reports whether two compact states hold the same bitsets,
// trailing zero words aside, and the same digest.
func sameCompact(a, b *CompactState) bool {
	if a.Digest != b.Digest || len(a.Responded) != len(b.Responded) || len(a.Answers) != len(b.Answers) {
		return false
	}
	for w := range a.Responded {
		if !slices.Equal(trimBitset(a.Responded[w]), trimBitset(b.Responded[w])) {
			return false
		}
	}
	for w := range a.Answers {
		if !slices.Equal(trimBitset(a.Answers[w]), trimBitset(b.Answers[w])) {
			return false
		}
	}
	return true
}

// FuzzRestoreCompact restores fuzzed compact states. Byte 0 picks 3 to 70
// workers and byte 1 one to four shards; each following triple is one
// (worker, task, answer) Add into a donor, until a zero worker byte ends
// them; the rest, four bytes at a time, are mutateCompact edits to the
// donor's checkpoint. The restore must either fail and leave the receiver
// empty, or succeed and hold what replaying the state's canonical log
// through Add builds. It must never panic.
func FuzzRestoreCompact(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 2, 0, 0, 3, 1, 1, 0})
	f.Add([]byte{61, 2, 1, 0, 1, 2, 0, 0, 64, 1, 1, 63, 0, 0, 2, 5, 2, 0})
	f.Add([]byte{1, 1, 1, 5, 1, 2, 5, 0, 3, 70, 1, 0, 0, 1, 9, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 2+3*400 {
			return
		}
		workers, shards := 3+int(data[0])%68, 1+int(data[1])%4
		donor, err := NewShardedIncremental(workers, shards)
		if err != nil {
			t.Fatal(err)
		}
		rest := data[2:]
		for ; len(rest) >= 3 && rest[0] != 0; rest = rest[3:] {
			_ = donor.Add(int(rest[0]-1)%workers, int(rest[1]), crowd.Response(1+rest[2]%2))
		}
		if len(rest) > 0 {
			rest = rest[1:]
		}
		cs := donor.CompactCheckpoint()
		for ; len(rest) >= 4; rest = rest[4:] {
			mutateCompact(cs, rest[0], rest[1], rest[2], rest[3])
		}
		got, err := NewShardedIncremental(workers, shards)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.RestoreCompact(cs); err != nil {
			if n := got.Responses(); n != 0 || got.Tasks() != 0 {
				t.Fatalf("failed restore (%v) left %d responses", err, n)
			}
			return
		}
		want := replayCompact(t, cs, shards)
		requireSameShards(t, got, want)
	})
}

// BenchmarkRestoreCompact times one restore of a dense crowd — 64 workers,
// 52 000 tasks, density 0.8 — into an empty 2-shard evaluator.
func BenchmarkRestoreCompact(b *testing.B) {
	cs := denseCheckpoint()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, err := NewShardedIncremental(64, 2)
		if err != nil {
			b.Fatal(err)
		}
		if err := ev.RestoreCompact(cs); err != nil {
			b.Fatal(err)
		}
	}
}

// denseCheckpoint is BenchmarkRestoreCompact's checkpoint, built once per
// test binary.
var denseCheckpoint = sync.OnceValue(func() *CompactState {
	const workers, tasks = 64, 52000
	ev, err := NewShardedIncremental(workers, 2)
	if err != nil {
		panic(err)
	}
	src := randx.NewSource(52)
	for task := 0; task < tasks; task++ {
		for w := 0; w < workers; w++ {
			if src.Float64() < 0.8 {
				if err := ev.Add(w, task, crowd.Response(1+src.Intn(2))); err != nil {
					panic(err)
				}
			}
		}
	}
	return ev.CompactCheckpoint()
})

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
		if _, n := attendanceTotals(inc.CompactCheckpoint().Responded); n != history {
			b.Fatal("bad checkpoint")
		}
		b.Run(fmt.Sprintf("compact/history=%d", history), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if cs := inc.CompactCheckpoint(); len(cs.Responded) != workers {
					b.Fatal("bad checkpoint")
				}
			}
		})
	}
}
