package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
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
// are intact but whose digest contradicts its bitsets — or whose answers
// fall on tasks the worker never attended — is refused by the restore's
// validation with an error that says why, before anything is installed.
func TestSnapshotRejectsInconsistency(t *testing.T) {
	donor := workerWith(t, 6, testStream(t, 6, 80, 82))
	cases := []struct {
		name, frag string
		mutate     func(cs *core.CompactState)
	}{
		{"digest bump", "bitsets derive", func(cs *core.CompactState) { cs.Digest++ }},
		{"attendance bit set", "bitsets derive", func(cs *core.CompactState) {
			cs.Responded[0] = append(cs.Responded[0], 1)
		}},
		{"answer on an unattended task", "never attended", func(cs *core.CompactState) {
			// Worker 3's first unattended task, just past its last word if
			// it attended every task its bitset spans.
			attended := cs.Responded[3]
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
// state, and never panic. A version 2 payload that decodes re-encodes to
// exactly its bytes; a version 1 payload that decodes re-encodes as a
// version 2 payload that decodes to the same state. The committed corpus
// (testdata/fuzz/FuzzDecodeCompact) holds, for version 1, valid small and
// real payloads, a truncation, a bad CRC, a trailing-zero answer word and
// trailing bytes, and for version 2 (seed-v2-*) valid small and real
// payloads, a bad CRC, a trailing-zero answer word, trailing bytes and a
// digest that decodes but that a restore refuses.
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
		if data[len(compactMagic)] == compactVersion {
			if !bytes.Equal(re, data) {
				t.Fatalf("compact encoding is not canonical: %d bytes in, %d out", len(data), len(re))
			}
			return
		}
		again, err := DecodeCompact(re)
		if err != nil {
			t.Fatalf("a version 1 state re-encodes to a payload that does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, cs) {
			t.Fatal("a version 1 state re-encodes to a payload of another state")
		}
	})
}

// compactHorizon is the task horizon a compact state's attendance
// reaches: its highest set bit plus one.
func compactHorizon(cs *core.CompactState) int {
	tasks := 0
	for _, row := range cs.Responded {
		for k, word := range row {
			if word != 0 {
				tasks = max(tasks, 64*k+64-bits.LeadingZeros64(word))
			}
		}
	}
	return tasks
}

// v1Payload is testdata/compact-v1.ccmp, a version 1 compact payload
// (statistics as CSTA counters) written by EncodeCompact when that was the
// version it wrote. It is the checkpoint of an 8-worker evaluator fed
// v1Stream()[:v1Half], in any order.
func v1Payload(tb testing.TB) []byte {
	tb.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "compact-v1.ccmp"))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// v1Stream is the response stream behind testdata/compact-v1.ccmp; the
// payload holds its first v1Half responses.
func v1Stream(tb testing.TB) []submission { return testStream(tb, 8, 220, 401) }

const v1Half = 704

// TestDecodeCompactV1: a version 1 payload still decodes, restores to an
// evaluator whose intervals are bit-identical to those of the evaluator it
// was cut from, and re-encodes as the version 2 payload that evaluator's
// checkpoint encodes to now.
func TestDecodeCompactV1(t *testing.T) {
	payload := v1Payload(t)
	if payload[len(compactMagic)] != 1 {
		t.Fatalf("test payload is version %d, want 1", payload[len(compactMagic)])
	}
	source := streamingOf(t, 8, v1Stream(t)[:v1Half])
	cs, err := DecodeCompact(payload)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := core.NewShardedIncremental(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreCompact(cs); err != nil {
		t.Fatal(err)
	}
	want, err := source.EvaluateAll(evalOpts())
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.EvaluateAll(evalOpts())
	if err != nil {
		t.Fatal(err)
	}
	compareEstimates(t, "restored from version 1", got, want)

	re, err := EncodeCompact(cs)
	if err != nil {
		t.Fatal(err)
	}
	if re[len(compactMagic)] != compactVersion {
		t.Fatalf("re-encoded as version %d, want %d", re[len(compactMagic)], compactVersion)
	}
	now, err := EncodeCompact(source.CompactCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, now) {
		t.Fatal("the version 1 state re-encodes to other bytes than its source's checkpoint")
	}
}

// v1Sections splits a version 1 payload into its CSTA statistics section
// and the answer bitsets that follow it.
func v1Sections(tb testing.TB, payload []byte) (stats, answers []byte) {
	tb.Helper()
	n, w := binary.Uvarint(payload[len(compactMagic)+1:])
	if w <= 0 {
		tb.Fatal("version 1 payload has no statistics length")
	}
	start := len(compactMagic) + 1 + w
	return payload[start : start+int(n)], payload[start+int(n) : len(payload)-8]
}

// v1Frame frames a statistics section and answer bitsets as a version 1
// payload with a valid CRC.
func v1Frame(stats, answers []byte) []byte {
	buf := append([]byte(nil), compactMagic[:]...)
	buf = appendUvarint(buf, 1)
	buf = appendUvarint(buf, uint64(len(stats)))
	buf = append(buf, stats...)
	buf = append(buf, answers...)
	return appendU64le(buf, crc64.Checksum(buf, snapCRC))
}

// TestDecodeCompactV1Malformed: inside a correctly framed version 1
// payload, every truncation of the CSTA section and a gallery of
// corruptions of it fail to decode with ErrCodec — never a panic — and a
// claimed task horizon the bitsets do not reach decodes to a digest the
// restore refuses.
func TestDecodeCompactV1Malformed(t *testing.T) {
	stats, answers := v1Sections(t, v1Payload(t))
	if _, err := DecodeCompact(v1Frame(stats, answers)); err != nil {
		t.Fatalf("re-framed payload: %v", err)
	}
	refuse := func(name string, stats []byte) {
		t.Helper()
		if _, err := DecodeCompact(v1Frame(stats, answers)); err == nil {
			t.Fatalf("%s decoded successfully", name)
		} else if !errors.Is(err, ErrCodec) {
			t.Fatalf("%s: error %v is not tagged ErrCodec", name, err)
		}
	}
	for i := range stats {
		refuse(fmt.Sprintf("statistics truncated to %d bytes", i), stats[:i])
	}
	edit := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), stats...)) }
	refuse("bad magic", edit(func(b []byte) []byte { b[0] = 'X'; return b }))
	refuse("future version", edit(func(b []byte) []byte { b[4] = 99; return b }))
	refuse("trailing byte", edit(func(b []byte) []byte { return append(b, 0) }))
	refuse("overlong version varint", edit(func(b []byte) []byte {
		// The one-byte version 0x01 as the two-byte 0x81 0x00: the same
		// value, not minimal.
		return append(append(b[:4:4], 0x81, 0x00), b[5:]...)
	}))
	refuse("absurd worker count", edit(func(b []byte) []byte {
		return append(appendUvarint(b[:5:5], 1<<30), b[6:]...)
	}))

	// The header is magic, version, then three varints: workers, task
	// horizon, response total; the first counter pair follows.
	r := &wireReader{buf: stats, off: 5}
	var header [3]uint64
	var ends [3]int
	for i := range header {
		v, err := r.uvarint("header")
		if err != nil {
			t.Fatal(err)
		}
		header[i], ends[i] = v, r.off
	}
	_, _ = r.uvarint("agree")
	common, _ := r.uvarint("common")
	pairEnd := r.off
	withField := func(i int, v uint64) []byte {
		start := 5
		if i > 0 {
			start = ends[i-1]
		}
		return append(appendUvarint(append([]byte(nil), stats[:start]...), v), stats[ends[i]:]...)
	}
	refuse("response total off by one", withField(2, header[2]+1))
	refuse("too few responses for the attendance", withField(2, header[2]-1))
	refuse("agree above common", edit(func(b []byte) []byte {
		head := appendUvarint(appendUvarint(b[:ends[2]:ends[2]], common+1), common)
		return append(head, stats[pairEnd:]...)
	}))

	cs, err := DecodeCompact(v1Frame(withField(1, header[1]+1), answers))
	if err != nil {
		t.Fatalf("a claimed horizon past the bitsets: %v", err)
	}
	restored, err := core.NewShardedIncremental(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreCompact(cs); err == nil || !strings.Contains(err.Error(), "bitsets derive") {
		t.Fatalf("a claimed horizon past the bitsets: restore error %v, want a digest mismatch", err)
	}
}
