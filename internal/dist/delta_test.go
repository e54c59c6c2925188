package dist

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"crowdassess/internal/core"
	"crowdassess/internal/obs"
	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
	"crowdassess/internal/store"
)

// sparseStream generates a shuffled stream where each worker answers a
// density share of the tasks — the sparse crowds deltas pay off on.
func sparseStream(tb testing.TB, workers, tasks int, density float64, seed int64) []submission {
	tb.Helper()
	src := randx.NewSource(seed)
	ds, _, err := sim.Binary{Tasks: tasks, Workers: workers, Density: density}.Generate(src)
	if err != nil {
		tb.Fatal(err)
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

func responsesOf(subs []submission) []Response {
	out := make([]Response, len(subs))
	for i, s := range subs {
		out[i] = Response{Worker: s.w, Task: s.t, Answer: s.r}
	}
	return out
}

// ingestBatches pushes the stream through the coordinator in order.
func ingestBatches(t *testing.T, coord *Coordinator, subs []submission, batch int) {
	t.Helper()
	for lo := 0; lo < len(subs); lo += batch {
		if err := coord.Ingest(responsesOf(subs[lo:min(lo+batch, len(subs))])); err != nil {
			t.Fatal(err)
		}
	}
}

// pullBytes is every payload byte statistics pulls moved so far, both
// directions, all replicas.
func pullBytes(reg *obs.Registry) uint64 {
	var n uint64
	for _, dir := range []string{"sent", "recv"} {
		v, _ := reg.CounterValue("dist_rpc_bytes_total", obs.Label{Key: "msg", Value: "pull-delta"}, obs.Label{Key: "dir", Value: dir})
		n += v
	}
	return n
}

// fullPulls is how many times a pull replaced a slice's state in full.
func fullPulls(reg *obs.Registry, slices int) uint64 {
	var n uint64
	for si := 0; si < slices; si++ {
		v, _ := reg.CounterValue("dist_full_pulls_total", obs.Label{Key: "slice", Value: fmt.Sprint(si)})
		n += v
	}
	return n
}

func instrumented(coord *Coordinator) *obs.Registry {
	reg := obs.NewRegistry(nil)
	coord.Instrument(reg)
	return reg
}

// TestDeltaPullProperty drives random interleavings of ingests and reads
// through clusters of every shape in shards {1,2,7} × slices {1,3} ×
// replicas {1,2}: every EvaluateAll and EvaluateSubset is bit-identical to
// the batch algorithm on the same responses, only the first pull of
// each slice ships the full state, and the pull after a 32-response ingest
// moves less than 2% of the first pull's bytes.
func TestDeltaPullProperty(t *testing.T) {
	const crowdSize, tasks = 32, 16000
	subs := sparseStream(t, crowdSize, tasks, 0.1, 17)
	preload := len(subs) - 3000
	opts := core.EvalOptions{Confidence: 0.9}
	for _, shards := range []int{1, 2, 7} {
		for _, slices := range []int{1, 3} {
			for _, replicas := range []int{1, 2} {
				t.Run(fmt.Sprintf("shards=%d/slices=%d/replicas=%d", shards, slices, replicas), func(t *testing.T) {
					coord, _ := newReplicatedCluster(t, crowdSize, slices, replicas, shards)
					reg := instrumented(coord)
					ref := localReference(t, crowdSize, subs[:preload])
					ingestBatches(t, coord, subs[:preload], 1024)

					before := pullBytes(reg)
					requireEvaluateAllEqual(t, "first pull", coord, ref)
					full := pullBytes(reg) - before
					next := preload + 32
					for _, s := range subs[preload:next] {
						if err := ref.Add(s.w, s.t, s.r); err != nil {
							t.Fatal(err)
						}
					}
					ingestBatches(t, coord, subs[preload:next], 32)
					before = pullBytes(reg)
					requireEvaluateAllEqual(t, "pull after a 32-response ingest", coord, ref)
					if delta := pullBytes(reg) - before; 50*delta >= full {
						t.Fatalf("pull after a 32-response ingest moved %d bytes, the first pull %d: not under 2%%", delta, full)
					}

					rng := randx.NewSource(int64(100*shards + 10*slices + replicas))
					for step := 0; step < 16; step++ {
						switch rng.Intn(3) {
						case 0:
							hi := min(len(subs), next+1+rng.Intn(300))
							for _, s := range subs[next:hi] {
								if err := ref.Add(s.w, s.t, s.r); err != nil {
									t.Fatal(err)
								}
							}
							ingestBatches(t, coord, subs[next:hi], 1+rng.Intn(64))
							next = hi
						case 1:
							requireEvaluateAllEqual(t, fmt.Sprintf("step %d", step), coord, ref)
						case 2:
							workers := []int{rng.Intn(crowdSize), rng.Intn(crowdSize), rng.Intn(crowdSize)}
							got, err := coord.EvaluateSubset(workers, opts)
							if err != nil {
								t.Fatal(err)
							}
							want, err := ref.EvaluateSubset(workers, opts)
							if err != nil {
								t.Fatal(err)
							}
							compareEstimates(t, fmt.Sprintf("step %d subset", step), got, want)
						}
					}
					requireEvaluateAllEqual(t, "final", coord, ref)
					if n := fullPulls(reg, slices); n != uint64(slices) {
						t.Fatalf("%d full pulls over %d slices: only each slice's first pull may be full", n, slices)
					}
				})
			}
		}
	}
}

// faultListener wraps every accepted connection in a FaultConn, so a test
// can blackhole a worker's replies.
type faultListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*FaultConn
}

func (l *faultListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	fc := NewFaultConn(c)
	l.mu.Lock()
	l.conns = append(l.conns, fc)
	l.mu.Unlock()
	return fc, nil
}

func (l *faultListener) last() *FaultConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conns[len(l.conns)-1]
}

// TestDeltaPullLostReply: a worker builds its delta reply — moving its base
// to the new state — but the reply is blackholed on the wire. The retry
// reaches the same worker with the old cursor, which no longer matches, so
// it answers in full while its sibling answered with a delta; the
// coordinator settles that with exactly one full re-pull, and results stay
// bit-identical.
func TestDeltaPullLostReply(t *testing.T) {
	const crowdSize = 10
	subs := sparseStream(t, crowdSize, 600, 0.3, 21)
	w, err := NewWorker(WorkerOptions{Workers: crowdSize, Shards: 2, FrameTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &faultListener{Listener: ln}
	go w.Serve(fl)
	_, sibAddr := serveWorkerOn(t, "", crowdSize, "sibling")
	dial := func(addr string) func() (*Conn, error) {
		return func() (*Conn, error) { return DialTCPTimeout(addr, 5*time.Second) }
	}
	var specs []ReplicaSpec
	for _, addr := range []string{ln.Addr().String(), sibAddr} {
		conn, err := dial(addr)()
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, ReplicaSpec{Conn: conn, Dial: dial(addr)})
	}
	coord, err := NewCluster(crowdSize, [][]ReplicaSpec{specs}, chaosPolicy())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	reg := instrumented(coord)

	third := len(subs) / 3
	ingestBatches(t, coord, subs[:third], 50)
	requireEvaluateAllEqual(t, "first pull", coord, localReference(t, crowdSize, subs[:third]))
	ingestBatches(t, coord, subs[third:2*third], 50)
	base := fullPulls(reg, 1)

	fl.last().HangWritesAfter(0)
	requireEvaluateAllEqual(t, "pull whose reply was lost", coord, localReference(t, crowdSize, subs[:2*third]))
	if n := fullPulls(reg, 1) - base; n != 1 {
		t.Fatalf("a lost reply cost %d full pulls, want exactly 1", n)
	}
	if coord.LiveReplicas(0) != 2 {
		t.Fatalf("slice has %d live replicas after the retry, want 2", coord.LiveReplicas(0))
	}
	ingestBatches(t, coord, subs[2*third:], 50)
	requireEvaluateAllEqual(t, "after recovery", coord, localReference(t, crowdSize, subs))
	if n := fullPulls(reg, 1) - base; n != 1 {
		t.Fatalf("%d full pulls after recovery, want still 1: deltas did not resume", n)
	}
}

// TestDeltaPullAfterReseed: a replica replaced mid-stream by RestoreNode has
// shipped nothing yet, so it answers the next pull in full while its
// sibling sends a delta — exactly one full pull of that slice, after which
// deltas resume, and every read stays bit-identical.
func TestDeltaPullAfterReseed(t *testing.T) {
	const crowdSize = 10
	subs := sparseStream(t, crowdSize, 800, 0.3, 22)
	coord, grid := newReplicatedCluster(t, crowdSize, 2, 2, 2)
	reg := instrumented(coord)
	quarter := len(subs) / 4
	ingestBatches(t, coord, subs[:quarter], 40)
	requireEvaluateAllEqual(t, "first pull", coord, localReference(t, crowdSize, subs[:quarter]))
	base := fullPulls(reg, 2)

	if err := grid[0][1].Close(); err != nil {
		t.Fatal(err)
	}
	ingestBatches(t, coord, subs[quarter:2*quarter], 40)
	requireEvaluateAllEqual(t, "survivor alone", coord, localReference(t, crowdSize, subs[:2*quarter]))
	_, conn := freshReplica(t, crowdSize, 3)
	if err := coord.RestoreNode(0, conn, nil); err != nil {
		t.Fatal(err)
	}
	ingestBatches(t, coord, subs[2*quarter:3*quarter], 40)
	requireEvaluateAllEqual(t, "first pull after the reseed", coord, localReference(t, crowdSize, subs[:3*quarter]))
	ingestBatches(t, coord, subs[3*quarter:], 40)
	requireEvaluateAllEqual(t, "after the reseed", coord, localReference(t, crowdSize, subs))
	if n := fullPulls(reg, 2) - base; n != 1 {
		t.Fatalf("a reseed cost %d full pulls, want exactly 1", n)
	}
}

// TestDeltaPullAfterStoreRecovery: a slice whose only worker died is
// rebuilt from its write-ahead log onto a fresh worker
// (RestoreNodeFromStore). The rebuilt worker answers its first pull in
// full — exactly one full pull — and the results are bit-identical.
func TestDeltaPullAfterStoreRecovery(t *testing.T) {
	const crowdSize = 10
	subs := sparseStream(t, crowdSize, 800, 0.3, 23)
	coord, grid := newReplicatedCluster(t, crowdSize, 2, 1, 2)
	reg := instrumented(coord)
	stores := []*store.Store{openTestStore(t, t.TempDir()), openTestStore(t, t.TempDir())}
	t.Cleanup(func() {
		for _, st := range stores {
			st.Close()
		}
	})
	if err := coord.AttachSliceStores(stores); err != nil {
		t.Fatal(err)
	}
	half := len(subs) / 2
	ingestBatches(t, coord, subs[:half], 40)
	requireEvaluateAllEqual(t, "first pull", coord, localReference(t, crowdSize, subs[:half]))
	if err := coord.CheckpointCompactAll(); err != nil {
		t.Fatal(err)
	}
	base := fullPulls(reg, 2)

	if err := grid[0][0].Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Responses(); err == nil {
		t.Fatal("counts succeeded with a dead slice")
	}
	_, conn := freshReplica(t, crowdSize, 2)
	if err := coord.RestoreNodeFromStore(0, conn); err != nil {
		t.Fatal(err)
	}
	ingestBatches(t, coord, subs[half:], 40)
	requireEvaluateAllEqual(t, "after recovery from the log", coord, localReference(t, crowdSize, subs))
	requireEvaluateAllEqual(t, "again", coord, localReference(t, crowdSize, subs))
	if n := fullPulls(reg, 2) - base; n != 1 {
		t.Fatalf("recovery from the log cost %d full pulls, want exactly 1", n)
	}
}

// TestClusterEvaluatorConcurrentFlushAndReads: Adds and Flushes from
// several goroutines run against concurrent EvaluateSubset reads — the
// reads no longer hold the adapter's lock — and every read sees at least
// the responses its caller flushed before it. Once ingestion stops,
// EvaluateAll is bit-identical to the batch algorithm. Run under the
// race detector in CI.
func TestClusterEvaluatorConcurrentFlushAndReads(t *testing.T) {
	const crowdSize, writers, readers = 10, 3, 2
	subs := sparseStream(t, crowdSize, 400, 0.4, 25)
	coord, _ := newReplicatedCluster(t, crowdSize, 2, 2, 2)
	ce := NewClusterEvaluator(coord, 16)
	opts := core.EvalOptions{Confidence: 0.9}

	var wg, readWG sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, writers+readers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			flushed := 0
			for i := g; i < len(subs); i += writers {
				s := subs[i]
				if err := ce.Add(s.w, s.t, s.r); err != nil {
					errs <- err
					return
				}
				if (i/writers)%25 == 24 {
					if err := ce.Flush(); err != nil {
						errs <- err
						return
					}
					flushed = (i-g)/writers + 1
					if got := ce.Responses(); got < flushed {
						errs <- fmt.Errorf("writer %d flushed %d responses, a later read saw %d in the cluster", g, flushed, got)
						return
					}
				}
			}
		}(g)
	}
	for r := 0; r < readers; r++ {
		readWG.Add(1)
		go func(r int) {
			defer readWG.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if _, err := ce.EvaluateSubset([]int{(r + i) % crowdSize, (r + 2*i + 1) % crowdSize}, opts); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(done)
	readWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want, err := localReference(t, crowdSize, subs).EvaluateAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ce.EvaluateAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	compareEstimates(t, "cluster evaluator after concurrent flushes and reads", got, want)
}

// deltaOf cuts the delta between two successive states of one evaluator
// fed a stream.
func deltaOf(tb testing.TB, workers int, subs []submission, cut int) *core.StatsDelta {
	tb.Helper()
	s, err := core.NewShardedIncremental(workers, 2)
	if err != nil {
		tb.Fatal(err)
	}
	for _, x := range subs[:cut] {
		if err := s.Add(x.w, x.t, x.r); err != nil {
			tb.Fatal(err)
		}
	}
	old := s.CutStats(noCursor, false)
	for _, x := range subs[cut:] {
		if err := s.Add(x.w, x.t, x.r); err != nil {
			tb.Fatal(err)
		}
	}
	return s.CutStats(old.Digest, true).Delta
}

// rawDelta encodes a delta field by field without validating it, to build
// the malformed payloads the decoder must refuse.
func rawDelta(d *core.StatsDelta) []byte {
	buf := append([]byte(nil), deltaMagic[:]...)
	buf = appendUvarint(buf, deltaCodecVersion)
	buf = appendUvarint(buf, uint64(d.Workers))
	buf = appendUvarint(buf, uint64(d.Tasks))
	buf = appendUvarint(buf, uint64(d.Responses))
	buf = appendUvarint(buf, uint64(len(d.Cells)))
	for _, c := range d.Cells {
		buf = appendUvarint(buf, uint64(c.I))
		buf = appendUvarint(buf, uint64(c.J))
		buf = appendUvarint(buf, uint64(c.Agree))
		buf = appendUvarint(buf, uint64(c.Common))
	}
	buf = appendUvarint(buf, uint64(len(d.Words)))
	for _, w := range d.Words {
		buf = appendUvarint(buf, uint64(w.Worker))
		buf = appendUvarint(buf, uint64(w.Index))
		buf = appendU64le(buf, w.Bits)
	}
	return buf
}

// smallDelta is a valid hand-built delta the malformed cases mutate.
func smallDelta() *core.StatsDelta {
	return &core.StatsDelta{
		Workers: 4, Tasks: 70, Responses: 3,
		Cells: []core.CellDelta{{I: 0, J: 1, Agree: 1, Common: 1}, {I: 0, J: 3, Agree: 0, Common: 2}, {I: 2, J: 3, Agree: 2, Common: 2}},
		Words: []core.WordDelta{{Worker: 0, Index: 1, Bits: 1 << 5}, {Worker: 2, Index: 0, Bits: 3}},
	}
}

// malformedCases each break one rule of a valid delta.
func malformedCases() map[string]func(d *core.StatsDelta) {
	return map[string]func(d *core.StatsDelta){
		"diagonal cell":          func(d *core.StatsDelta) { d.Cells[1] = core.CellDelta{I: 1, J: 1, Common: 1} },
		"lower-triangle cell":    func(d *core.StatsDelta) { d.Cells[1] = core.CellDelta{I: 3, J: 1, Common: 1} },
		"unsorted cells":         func(d *core.StatsDelta) { d.Cells[0], d.Cells[1] = d.Cells[1], d.Cells[0] },
		"repeated cell":          func(d *core.StatsDelta) { d.Cells[1] = d.Cells[0] },
		"zero increment":         func(d *core.StatsDelta) { d.Cells[1].Common, d.Cells[1].Agree = 0, 0 },
		"agree exceeds common":   func(d *core.StatsDelta) { d.Cells[0].Agree = 2 },
		"cell worker past crowd": func(d *core.StatsDelta) { d.Cells[2].J = 4 },
		"word worker past crowd": func(d *core.StatsDelta) { d.Words[1].Worker = 4 },
		"word past the horizon":  func(d *core.StatsDelta) { d.Words[0].Index = 2 },
		"bits past the horizon":  func(d *core.StatsDelta) { d.Words[0].Bits = 1 << 6 },
		"unsorted words":         func(d *core.StatsDelta) { d.Words[0], d.Words[1] = d.Words[1], d.Words[0] },
		"empty word":             func(d *core.StatsDelta) { d.Words[1].Bits = 0 },
	}
}

// malformedDeltas are the payloads of malformedCases.
func malformedDeltas() map[string][]byte {
	out := make(map[string][]byte)
	for name, mutate := range malformedCases() {
		d := smallDelta()
		mutate(d)
		out[name] = rawDelta(d)
	}
	return out
}

// TestDeltaCodecRoundTrip: real deltas encode canonically and round-trip
// exactly, alone and inside full and delta pull replies.
func TestDeltaCodecRoundTrip(t *testing.T) {
	subs := sparseStream(t, 12, 500, 0.3, 26)
	for _, cut := range []int{0, len(subs) / 2, len(subs) - 7, len(subs)} {
		d := deltaOf(t, 12, subs, cut)
		b, err := encodeDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeDelta(b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(normalized(got), normalized(d)) {
			t.Fatalf("cut %d: decode(encode(d)) != d", cut)
		}
		if again, err := encodeDelta(got); err != nil || !bytes.Equal(again, b) {
			t.Fatalf("cut %d: re-encoding changed the bytes (err %v)", cut, err)
		}
		reply, err := encodeDeltaReply(d, 0xfeedface)
		if err != nil {
			t.Fatal(err)
		}
		p, err := decodePullReply(reply)
		if err != nil || p.kind != pullDelta || p.digest != 0xfeedface || !reflect.DeepEqual(normalized(p.delta), normalized(d)) {
			t.Fatalf("cut %d: delta reply round-trip: %+v, %v", cut, p, err)
		}
	}
	e := exportOf(t, 12, subs)
	reply, err := encodeFullReply(e, 42)
	if err != nil {
		t.Fatal(err)
	}
	p, err := decodePullReply(reply)
	if err != nil || p.kind != pullFull || p.digest != 42 || !reflect.DeepEqual(p.full, e) {
		t.Fatalf("full reply round-trip: %v", err)
	}
	if c, err := decodeCursor(encodeCursor(0xabc)); err != nil || c != 0xabc {
		t.Fatalf("cursor round-trip: %x, %v", c, err)
	}
}

// normalized maps empty lists to nil, so decoded and built deltas compare.
func normalized(d *core.StatsDelta) core.StatsDelta {
	n := *d
	if len(n.Cells) == 0 {
		n.Cells = nil
	}
	if len(n.Words) == 0 {
		n.Words = nil
	}
	return n
}

// TestDecodeDeltaMalformed: every broken rule, truncation, trailing byte,
// bad header and unknown reply kind is refused with ErrCodec; encodeDelta
// refuses the same deltas.
func TestDecodeDeltaMalformed(t *testing.T) {
	good, err := encodeDelta(smallDelta())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(good, rawDelta(smallDelta())) {
		t.Fatal("rawDelta does not mirror encodeDelta")
	}
	bad := malformedDeltas()
	for i := 0; i < len(good); i++ {
		bad[fmt.Sprintf("truncated to %d bytes", i)] = good[:i]
	}
	bad["trailing byte"] = append(append([]byte(nil), good...), 0)
	bad["bad magic"] = append([]byte("CSTA"), good[4:]...)
	bad["future version"] = append(append([]byte("CSDL"), 2), good[5:]...)
	bad["overlong varint"] = append(append([]byte("CSDL"), 0x81, 0x00), good[5:]...)
	for name, b := range bad {
		if _, err := decodeDelta(b); !errors.Is(err, ErrCodec) {
			t.Errorf("%s: decodeDelta = %v, want ErrCodec", name, err)
		}
	}
	for name, mutate := range malformedCases() {
		d := smallDelta()
		mutate(d)
		if _, err := encodeDelta(d); err == nil {
			t.Errorf("%s: encodeDelta accepted it", name)
		}
	}
	for _, kind := range []byte{2, 0xff} {
		reply := append([]byte{kind}, make([]byte, 8)...)
		if _, err := decodePullReply(append(reply, good...)); !errors.Is(err, ErrCodec) {
			t.Errorf("reply kind %d accepted: %v", kind, err)
		}
	}
}

// FuzzDecodeDelta: arbitrary bytes decode to an error or to a delta that
// re-encodes to exactly those bytes — one delta, one payload — and never
// panic.
func FuzzDecodeDelta(f *testing.F) {
	subs := sparseStream(f, 6, 150, 0.5, 27)
	for _, cut := range []int{0, len(subs) / 2, len(subs) - 3} {
		b, err := encodeDelta(deltaOf(f, 6, subs, cut))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	good, err := encodeDelta(smallDelta())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	for _, b := range malformedDeltas() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := decodeDelta(data)
		if err != nil {
			if !errors.Is(err, ErrCodec) {
				t.Fatalf("decode error does not wrap ErrCodec: %v", err)
			}
			return
		}
		b, err := encodeDelta(d)
		if err != nil {
			t.Fatalf("decoded delta fails to encode: %v", err)
		}
		if !bytes.Equal(b, data) {
			t.Fatalf("accepted payload is not canonical:\n in  %x\n out %x", data, b)
		}
	})
}
