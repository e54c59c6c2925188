package dist

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"crowdassess/internal/core"
	"crowdassess/internal/obs"
	"crowdassess/internal/randx"
)

// workerWith builds a worker and ingests the stream into it directly.
func workerWith(tb testing.TB, workers int, subs []submission) *Worker {
	tb.Helper()
	w, err := NewWorker(WorkerOptions{Workers: workers, Shards: 3})
	if err != nil {
		tb.Fatal(err)
	}
	for _, s := range subs {
		if err := w.Evaluator().Add(s.w, s.t, s.r); err != nil {
			tb.Fatal(err)
		}
	}
	return w
}

// pullCompact answers a compact pull the way the worker's serve loop does.
func pullCompact(tb testing.TB, w *Worker) []byte {
	tb.Helper()
	replyType, payload, err := w.handle(msgPullCompact, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if replyType != msgCompact {
		tb.Fatalf("compact pull answered 0x%02x", replyType)
	}
	return payload
}

// TestSnapshotRoundTrip is the state-transfer property test: a compact pull
// from one worker, pushed into a fresh worker as a compact restore, leaves
// a node whose own compact pull is byte-identical — for several streams and
// for the empty node — and decode∘encode reproduces the payload.
func TestSnapshotRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		subs := testStream(t, 8, 150, 70+seed)
		if seed == 3 {
			subs = nil // the empty node transfers too
		}
		payload := pullCompact(t, workerWith(t, 8, subs))

		cs, err := DecodeCompact(payload)
		if err != nil {
			t.Fatal(err)
		}
		reencoded, err := EncodeCompact(cs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(payload, reencoded) {
			t.Fatalf("seed %d: re-encoded compact state differs from original", seed)
		}

		fresh := workerWith(t, 8, nil)
		if _, _, err := fresh.handle(msgRestoreCompact, payload); err != nil {
			t.Fatalf("seed %d: restore: %v", seed, err)
		}
		if got := fresh.Evaluator().Responses(); got != len(subs) {
			t.Fatalf("seed %d: restored node holds %d responses, want %d", seed, got, len(subs))
		}
		if !bytes.Equal(payload, pullCompact(t, fresh)) {
			t.Fatalf("seed %d: restored worker's compact state differs from the seed", seed)
		}
	}
}

// TestSnapshotRejectsCorruption flips a bit in every byte (and truncates at
// every prefix, and appends garbage) of a valid compact payload: the
// worker's restore refuses each with a codec error — never a panic, never a
// partial restore — and the node stays empty, so the intact payload still
// restores afterwards.
func TestSnapshotRejectsCorruption(t *testing.T) {
	payload := pullCompact(t, workerWith(t, 6, testStream(t, 6, 80, 81)))
	fresh := workerWith(t, 6, nil)
	refuse := func(label string, body []byte) {
		t.Helper()
		if _, _, err := fresh.handle(msgRestoreCompact, body); !errors.Is(err, ErrCodec) {
			t.Fatalf("%s: restore error %v, want ErrCodec", label, err)
		}
		if n := fresh.Evaluator().Responses(); n != 0 {
			t.Fatalf("%s: refused restore left %d responses behind", label, n)
		}
	}

	src := randx.NewSource(7)
	for i := range payload {
		corrupt := append([]byte(nil), payload...)
		corrupt[i] ^= byte(1 << src.Intn(8))
		refuse("bit flip", corrupt)
	}
	for n := range payload {
		refuse("truncation", payload[:n])
	}
	refuse("trailing garbage", append(append([]byte(nil), payload...), 0))

	if _, _, err := fresh.handle(msgRestoreCompact, payload); err != nil {
		t.Fatalf("intact payload refused after the corrupt ones: %v", err)
	}
}

// TestSnapshotRejectsInconsistency: a compact payload whose framing and CRC
// are intact but whose counters contradict its bitsets — or whose answers
// fall on tasks the worker never attended — is refused by the restore's
// validation with an error that says why, before anything is installed.
func TestSnapshotRejectsInconsistency(t *testing.T) {
	donor := workerWith(t, 6, testStream(t, 6, 80, 82))
	cases := []struct {
		name, frag string
		mutate     func(cs *core.CompactState)
	}{
		{"common counter bump", "bitsets derive", func(cs *core.CompactState) {
			cs.Stats.Common[0][1]++
			cs.Stats.Common[1][0]++
		}},
		{"answer on an unattended task", "never attended", func(cs *core.CompactState) {
			// Worker 3's first unattended task, just past its last word if
			// it attended every task its bitset spans.
			attended := cs.Stats.Responded[3]
			answers := append(make([]uint64, 0, len(attended)+1), cs.Answers[3]...)
			for len(answers) <= len(attended) {
				answers = append(answers, 0)
			}
			k := 0
			for k < len(attended) && attended[k] == ^uint64(0) {
				k++
			}
			var word uint64
			if k < len(attended) {
				word = attended[k]
			}
			answers[k] |= ^word & -^word
			cs.Answers[3] = answers
		}},
	}
	for _, tc := range cases {
		cs := donor.Evaluator().CompactCheckpoint()
		tc.mutate(cs)
		payload, err := EncodeCompact(cs)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fresh := workerWith(t, 6, nil)
		if _, _, err := fresh.handle(msgRestoreCompact, payload); err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Fatalf("%s: restore error %v, want one mentioning %q", tc.name, err, tc.frag)
		}
		if n := fresh.Evaluator().Responses(); n != 0 {
			t.Fatalf("%s: refused restore left %d responses behind", tc.name, n)
		}
	}
}

// compactPullBytes is every payload byte compact pulls moved so far, both
// directions, all replicas.
func compactPullBytes(reg *obs.Registry) uint64 {
	var n uint64
	for _, dir := range []string{"sent", "recv"} {
		v, _ := reg.CounterValue("dist_rpc_bytes_total", obs.Label{Key: "msg", Value: "pull-compact"}, obs.Label{Key: "dir", Value: dir})
		n += v
	}
	return n
}

// TestSurvivorReseedIsOStatistics pins the cost of a survivor reseed: it
// ships the slice's compact state, whose size depends on the crowd and the
// task horizon, not on how many responses the slice holds. Doubling the
// responses over the same workers × tasks moves the reseed's compact pull
// by under 10% (a response log would double), and the reseeded slice still
// evaluates bit-identically.
func TestSurvivorReseedIsOStatistics(t *testing.T) {
	const crowdSize, tasks = 10, 2000
	reseedBytes := func(density float64) (uint64, int) {
		subs := sparseStream(t, crowdSize, tasks, density, 31)
		coord, grid := newReplicatedCluster(t, crowdSize, 1, 2, 2)
		reg := instrumented(coord)
		ingestBatches(t, coord, subs, 256)
		if err := grid[0][1].Close(); err != nil {
			t.Fatal(err)
		}
		_, conn := freshReplica(t, crowdSize, 2)
		before := compactPullBytes(reg)
		if err := coord.RestoreNode(0, conn, nil); err != nil {
			t.Fatal(err)
		}
		moved := compactPullBytes(reg) - before
		if err := grid[0][0].Close(); err != nil { // the reseeded replica carries the slice alone
			t.Fatal(err)
		}
		requireEvaluateAllEqual(t, "slice served by the reseeded replica", coord, localReference(t, crowdSize, subs))
		return moved, len(subs)
	}
	sparse, sparseResponses := reseedBytes(0.3)
	dense, denseResponses := reseedBytes(0.6)
	if 10*denseResponses < 18*sparseResponses {
		t.Fatalf("dense stream holds %d responses, sparse %d: not doubled", denseResponses, sparseResponses)
	}
	if 10*dense >= 11*sparse {
		t.Fatalf("reseed pulled %d bytes for %d responses and %d bytes for %d: not flat in responses",
			sparse, sparseResponses, dense, denseResponses)
	}
}

// FuzzDecodeCompact: arbitrary bytes decode to an error or to a compact
// state that re-encodes to exactly those bytes, and never panic. The
// committed corpus (testdata/fuzz/FuzzDecodeCompact) holds valid small and
// real payloads, a truncation, a bad CRC, a trailing-zero answer word and
// trailing bytes.
func FuzzDecodeCompact(f *testing.F) {
	payload := pullCompact(f, workerWith(f, 5, testStream(f, 5, 60, 9)))
	f.Add(payload)
	f.Add(payload[:len(payload)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		cs, err := DecodeCompact(data)
		if err != nil {
			return
		}
		re, err := EncodeCompact(cs)
		if err != nil {
			t.Fatalf("decoded compact state does not re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("compact encoding is not canonical: %d bytes in, %d out", len(data), len(re))
		}
	})
}
