package dist

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"crowdassess/internal/core"
	"crowdassess/internal/crowd"
	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
)

// submission is one generated response for test streams.
type submission struct {
	w, t int
	r    crowd.Response
}

// testStream deterministically generates a shuffled response stream.
func testStream(tb testing.TB, workers, tasks int, seed int64) []submission {
	tb.Helper()
	src := randx.NewSource(seed)
	ds, _, err := sim.Binary{Tasks: tasks, Workers: workers, Density: 0.8}.Generate(src)
	if err != nil {
		tb.Fatalf("generate: %v", err)
	}
	var subs []submission
	for w := 0; w < workers; w++ {
		for t := 0; t < tasks; t++ {
			if ds.Attempted(w, t) {
				subs = append(subs, submission{w, t, ds.Response(w, t)})
			}
		}
	}
	src.Shuffle(len(subs), func(i, j int) { subs[i], subs[j] = subs[j], subs[i] })
	return subs
}

// exportOf ingests a stream into a fresh evaluator and exports it.
func exportOf(tb testing.TB, workers int, subs []submission) *core.StatsExport {
	tb.Helper()
	return streamingOf(tb, workers, subs).ExportStats()
}

// TestStatsCodecRoundTrip: encode→decode is the identity, and encoding is
// deterministic and canonical (decode→encode reproduces the bytes).
func TestStatsCodecRoundTrip(t *testing.T) {
	for _, cfg := range []struct {
		workers, tasks int
		seed           int64
	}{{3, 10, 1}, {5, 100, 2}, {11, 333, 3}} {
		e := exportOf(t, cfg.workers, testStream(t, cfg.workers, cfg.tasks, cfg.seed))
		b1, err := EncodeStats(e)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := EncodeStats(e)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatal("encoding is not deterministic")
		}
		got, err := DecodeStats(b1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, e) {
			t.Fatalf("decode(encode(e)) != e for %+v workers", cfg.workers)
		}
		b3, err := EncodeStats(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b3, b1) {
			t.Fatal("re-encoding a decoded export changed the bytes")
		}
	}
}

// TestCodecMergeEquivalence is the satellite property: shipping per-node
// statistics through encode→decode→Merge yields intervals bit-identical to
// the batch algorithm over every response.
func TestCodecMergeEquivalence(t *testing.T) {
	const workers, tasks, nodes = 8, 200, 3
	subs := testStream(t, workers, tasks, 29)
	parts := make([][]submission, nodes)
	for _, s := range subs {
		parts[s.t%nodes] = append(parts[s.t%nodes], s)
	}
	acc, err := core.NewStatsAccumulator(workers)
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range parts {
		wire, err := EncodeStats(exportOf(t, workers, part))
		if err != nil {
			t.Fatal(err)
		}
		e, err := DecodeStats(wire)
		if err != nil {
			t.Fatal(err)
		}
		if err := acc.Merge(e); err != nil {
			t.Fatal(err)
		}
	}
	opts := core.EvalOptions{Confidence: 0.9}
	want, err := localReference(t, workers, subs).EvaluateAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := acc.EvaluateAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	compareEstimates(t, "wire merge vs batch", got, want)
}

// compareEstimates asserts bit-identical intervals and matching error
// shapes between two estimate slices.
func compareEstimates(tb testing.TB, label string, got, want []core.WorkerEstimate) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: %d estimates, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Worker != w.Worker || g.Triples != w.Triples {
			tb.Fatalf("%s: estimate %d metadata (%d, %d) != (%d, %d)", label, i, g.Worker, g.Triples, w.Worker, w.Triples)
		}
		if (g.Err == nil) != (w.Err == nil) {
			tb.Fatalf("%s: estimate %d error mismatch: %v vs %v", label, i, g.Err, w.Err)
		}
		if g.Err != nil {
			if g.Err.Error() != w.Err.Error() {
				tb.Fatalf("%s: estimate %d error text %q != %q", label, i, g.Err, w.Err)
			}
			continue
		}
		if math.Float64bits(g.Interval.Lo) != math.Float64bits(w.Interval.Lo) ||
			math.Float64bits(g.Interval.Hi) != math.Float64bits(w.Interval.Hi) {
			tb.Fatalf("%s: estimate %d interval [%v, %v] not bit-identical to [%v, %v]",
				label, i, g.Interval.Lo, g.Interval.Hi, w.Interval.Lo, w.Interval.Hi)
		}
	}
}

// TestDecodeStatsMalformed: every truncation of a valid payload, plus a
// gallery of corruptions, must error — never panic, never succeed.
func TestDecodeStatsMalformed(t *testing.T) {
	e := exportOf(t, 5, testStream(t, 5, 60, 7))
	valid, err := EncodeStats(e)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(valid); i++ {
		if _, err := DecodeStats(valid[:i]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", i)
		}
	}
	corrupt := func(name string, mutate func([]byte) []byte) {
		b := mutate(append([]byte(nil), valid...))
		if _, err := DecodeStats(b); err == nil {
			t.Errorf("%s decoded successfully", name)
		} else if !errors.Is(err, ErrCodec) {
			t.Errorf("%s: error %v is not tagged ErrCodec", name, err)
		}
	}
	corrupt("bad magic", func(b []byte) []byte { b[0] = 'X'; return b })
	corrupt("future version", func(b []byte) []byte { b[4] = 99; return b })
	corrupt("trailing bytes", func(b []byte) []byte { return append(b, 0) })
	corrupt("overlong varint", func(b []byte) []byte {
		// Rewrite the one-byte version varint 0x01 as the two-byte form
		// 0x81 0x00: same value, non-minimal — one state must not have two
		// encodings.
		out := append([]byte(nil), b[:4]...)
		out = append(out, 0x81, 0x00)
		return append(out, b[5:]...)
	})
	corrupt("absurd worker count", func(b []byte) []byte {
		// Rewrite the workers varint (offset 5 on this payload) to a huge value.
		head := append([]byte(nil), b[:5]...)
		return append(appendUvarint(head, 1<<30), b[6:]...)
	})
	// agree > common: find the first pair varints (offsets 5+1+1+vlen...).
	// Simpler: build a tiny payload by hand via a doctored export.
	bad := exportOf(t, 5, testStream(t, 5, 60, 7))
	bad.Agree[0][1] = bad.Common[0][1] + 1
	bad.Agree[1][0] = bad.Agree[0][1]
	if _, err := EncodeStats(bad); err == nil {
		t.Error("EncodeStats accepted agree > common")
	}
}

// TestMessageCodecsRoundTrip covers the control-plane payloads.
func TestMessageCodecsRoundTrip(t *testing.T) {
	h := helloMsg{Version: 1, Workers: 64, Shards: 8}
	gotH, err := decodeHello(encodeHello(h))
	if err != nil || gotH != h {
		t.Fatalf("hello round trip: %+v, %v", gotH, err)
	}
	batch := []responseRec{{1, 2, 1}, {3, 70000, 2}, {0, 0, 1}}
	gotB, err := decodeIngest(encodeIngest(batch))
	if err != nil || !reflect.DeepEqual(gotB, batch) {
		t.Fatalf("ingest round trip: %+v, %v", gotB, err)
	}
	empty, err := decodeIngest(encodeIngest(nil))
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty ingest round trip: %+v, %v", empty, err)
	}
	total, err := decodeTotal(encodeTotal(987654))
	if err != nil || total != 987654 {
		t.Fatalf("total round trip: %d, %v", total, err)
	}
	// Truncations of each must error.
	for name, payload := range map[string][]byte{
		"hello":  encodeHello(h),
		"ingest": encodeIngest(batch),
	} {
		for i := 0; i < len(payload); i++ {
			var err error
			switch name {
			case "hello":
				_, err = decodeHello(payload[:i])
			case "ingest":
				_, err = decodeIngest(payload[:i])
			}
			if err == nil {
				t.Fatalf("%s truncated to %d bytes decoded successfully", name, i)
			}
		}
	}
}

// FuzzDecodeStats: arbitrary bytes must decode to an error or to an export
// that re-encodes canonically — and never panic.
func FuzzDecodeStats(f *testing.F) {
	for _, cfg := range []struct {
		workers, tasks int
		seed           int64
	}{{3, 8, 1}, {5, 40, 2}} {
		e := exportOf(f, cfg.workers, testStream(f, cfg.workers, cfg.tasks, cfg.seed))
		b, err := EncodeStats(e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add([]byte{})
	f.Add([]byte("CSTA"))
	f.Add(append([]byte("CSTA"), 1, 200, 1, 1))
	f.Add(append([]byte("CSTA"), 0x81, 0x00, 3, 0, 0)) // overlong version varint
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeStats(data)
		if err != nil {
			return
		}
		// The codec is canonical: anything that decodes must re-encode to
		// the very bytes it came from — one state, one payload.
		b, err := EncodeStats(e)
		if err != nil {
			t.Fatalf("decoded export fails to encode: %v", err)
		}
		if !bytes.Equal(b, data) {
			t.Fatalf("accepted payload is not canonical:\n in  %x\n out %x", data, b)
		}
	})
}

// FuzzDecodeFrameBodies fuzzes the control-plane decoders together.
func FuzzDecodeFrameBodies(f *testing.F) {
	f.Add([]byte{1, 64, 8})
	f.Add(encodeIngest([]responseRec{{1, 2, 1}}))
	f.Add(encodeTotal(987654))
	f.Add(encodeCounts(countsMsg{Tasks: 9, Responses: 7}))
	f.Add(encodeCursor(0x1234))
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeHello(data)
		decodeIngest(data)
		decodeTotal(data)
		decodeCounts(data)
		decodeCursor(data)
		decodePullReply(data)
	})
}
