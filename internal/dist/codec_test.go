package dist

import (
	"bytes"
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

// TestCodecMergeEquivalence is the satellite property: shipping each
// node's statistics through the wire as a reset delta (encode→decode),
// folding it into an accumulator per node and merging those
// (StatsAccumulator.Merge, as the coordinator's rebuild does) yields
// intervals bit-identical to the batch algorithm over every response.
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
		cut, err := streamingOf(t, workers, part).CutStats(noCursor)
		if err != nil {
			t.Fatal(err)
		}
		wire, err := encodePullReply(cut)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodePullReply(wire)
		if err != nil {
			t.Fatal(err)
		}
		node, err := core.NewStatsAccumulator(workers)
		if err != nil {
			t.Fatal(err)
		}
		if err := node.ApplyDelta(got.Delta); err != nil {
			t.Fatal(err)
		}
		if node.Digest() != cut.Digest {
			t.Fatalf("node state digest %x after the wire, cut digest %x", node.Digest(), cut.Digest)
		}
		if err := acc.Merge(node); err != nil {
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

// TestMessageCodecsRoundTrip covers the control-plane payloads.
func TestMessageCodecsRoundTrip(t *testing.T) {
	h := helloMsg{Version: 1, Workers: 64, Shards: 8}
	gotH, err := decodeHello(encodeHello(h))
	if err != nil || gotH != h {
		t.Fatalf("hello round trip: %+v, %v", gotH, err)
	}
	batch := []responseRec{{1, 2, 1}, {3, 70000, 2}, {0, 0, 1}}
	wantB := []core.Response{{Worker: 1, Task: 2, Answer: 1}, {Worker: 3, Task: 70000, Answer: 2}, {Worker: 0, Task: 0, Answer: 1}}
	gotB, err := decodeIngest(encodeIngest(batch))
	if err != nil || !reflect.DeepEqual(gotB, wantB) {
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

// FuzzDecodeFrameBodies fuzzes the control-plane decoders together. A
// pull reply that decodes must re-encode to the very same bytes, since
// replicas are byte-compared on every pull.
func FuzzDecodeFrameBodies(f *testing.F) {
	f.Add([]byte{1, 64, 8})
	f.Add(encodeIngest([]responseRec{{1, 2, 1}}))
	f.Add(encodeTotal(987654))
	f.Add(encodeCounts(countsMsg{Tasks: 9, Responses: 7}))
	f.Add(encodeCursor(0x1234))
	subs := sparseStream(f, 6, 150, 0.5, 28)
	reset, delta := cutsOf(f, 6, subs, len(subs)/2)
	for _, cut := range []core.StatsCut{reset, delta} {
		reply, err := encodePullReply(cut)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(reply)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeHello(data)
		decodeIngest(data)
		decodeTotal(data)
		decodeCounts(data)
		decodeCursor(data)
		cut, err := decodePullReply(data)
		if err != nil {
			return
		}
		b, err := encodePullReply(cut)
		if err != nil {
			t.Fatalf("decoded pull reply fails to encode: %v", err)
		}
		if !bytes.Equal(b, data) {
			t.Fatalf("accepted pull reply is not canonical:\n in  %x\n out %x", data, b)
		}
	})
}
