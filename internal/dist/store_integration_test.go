package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"crowdassess/internal/core"
	"crowdassess/internal/crowd"
	"crowdassess/internal/store"
)

// This file exercises the durable storage engine end to end through the
// distributed layer: the compact checkpoint codec, the head's slice stores
// (journaling, checkpoints, cold-restart rebuilds, the upgrade attach), and
// the monitor's reseed-from-store path.

// openTestStore opens a store over the OS filesystem with a small segment
// size so checkpoint truncation is observable in a short test.
func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.OSFS{}, dir, store.Options{SegmentSize: 2048, Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// evaluatorFromStore is the oracle for "what does the store alone hold":
// it rebuilds a fresh evaluator from st — the newest valid snapshot
// restored, then the journal tail past it re-added — with no worker or
// coordinator involved.
func evaluatorFromStore(t *testing.T, workers int, st *store.Store) *core.ShardedIncremental {
	t.Helper()
	inc, err := core.NewShardedIncremental(workers, 2)
	if err != nil {
		t.Fatal(err)
	}
	err = st.Recover(
		func(snap store.Snapshot) error {
			cs, err := DecodeCompact(snap.Payload)
			if err != nil {
				return err
			}
			return inc.RestoreCompact(cs)
		},
		func(rec store.Record) error {
			for _, r := range rec.Responses {
				if err := inc.Add(r.Worker, r.Task, r.Answer); err != nil {
					return fmt.Errorf("journal seq %d: %w", rec.Seq, err)
				}
			}
			return nil
		})
	if err != nil {
		t.Fatalf("recovering from the store: %v", err)
	}
	return inc
}

// requireStoreHolds checks that st alone recovers exactly subs, with
// decisions bit-identical to a single-process evaluator over them.
func requireStoreHolds(t *testing.T, label string, workers int, st *store.Store, subs []submission) {
	t.Helper()
	inc := evaluatorFromStore(t, workers, st)
	if n := inc.Responses(); n != len(subs) {
		t.Fatalf("%s: the store recovers %d responses, want %d", label, n, len(subs))
	}
	want, err := localReference(t, workers, subs).EvaluateAll(evalOpts())
	if err != nil {
		t.Fatal(err)
	}
	got, err := inc.EvaluateAll(evalOpts())
	if err != nil {
		t.Fatal(err)
	}
	compareEstimates(t, label, got, want)
}

// compactOf ingests a stream into a fresh evaluator and cuts a compact
// checkpoint.
func compactOf(t *testing.T, workers int, subs []submission) *core.CompactState {
	t.Helper()
	return streamingOf(t, workers, subs).CompactCheckpoint()
}

// TestCompactRoundTrip: encode∘decode∘restore rebuilds an evaluator whose
// decisions are bit-identical, and the encoding is canonical — equal state
// always yields equal bytes, including across shard counts. Canonicality
// is what lets the coordinator byte-compare replicas' compact pulls as a
// divergence check.
func TestCompactRoundTrip(t *testing.T) {
	const workers, tasks = 7, 120
	subs := testStream(t, workers, tasks, 211)
	local := streamingOf(t, workers, subs)

	payload, err := EncodeCompact(local.CompactCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	again, err := EncodeCompact(local.CompactCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != string(again) {
		t.Fatal("equal state encoded to different bytes")
	}

	// A four-shard evaluator holding the same stream encodes identically.
	sharded, err := core.NewShardedIncremental(workers, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range subs {
		if err := sharded.Add(s.w, s.t, s.r); err != nil {
			t.Fatal(err)
		}
	}
	fromSharded, err := EncodeCompact(sharded.CompactCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != string(fromSharded) {
		t.Fatal("four-shard evaluator's compact payload differs from the one-shard one")
	}

	cs, err := DecodeCompact(payload)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := core.NewShardedIncremental(workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreCompact(cs); err != nil {
		t.Fatal(err)
	}
	opts := core.EvalOptions{Confidence: 0.9}
	want, err := localReference(t, workers, subs).EvaluateAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.EvaluateAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	compareEstimates(t, "compact round trip", got, want)
}

// TestCompactMalformed: every truncation and every single-byte corruption
// of a valid compact payload must be rejected — the CRC trailer covers the
// whole frame — and a non-canonical bitset (trailing zero word) fails even
// with a correct CRC.
func TestCompactMalformed(t *testing.T) {
	const workers, tasks = 4, 40
	subs := testStream(t, workers, tasks, 19)
	cs := compactOf(t, workers, subs)
	valid, err := EncodeCompact(cs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(valid); i++ {
		if _, err := DecodeCompact(valid[:i]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", i)
		}
	}
	for i := 0; i < len(valid); i++ {
		b := append([]byte(nil), valid...)
		b[i] ^= 0xFF
		if _, err := DecodeCompact(b); err == nil {
			t.Fatalf("corruption at byte %d decoded successfully", i)
		}
	}

	// Re-encode by hand with a padded (non-canonical) last bitset and a
	// recomputed CRC: framing is intact, canonicality must still reject.
	buf := append([]byte(nil), compactMagic[:]...)
	buf = appendUvarint(buf, compactVersion)
	buf = appendU64le(buf, cs.Digest)
	buf = appendUvarint(buf, uint64(len(cs.Responded)))
	buf = appendBitsets(buf, cs.Responded)
	for i, words := range cs.Answers {
		n := len(words)
		for n > 0 && words[n-1] == 0 {
			n--
		}
		pad := 0
		if i == len(cs.Answers)-1 {
			pad = 1
		}
		buf = appendUvarint(buf, uint64(n+pad))
		for _, word := range words[:n] {
			buf = appendU64le(buf, word)
		}
		for k := 0; k < pad; k++ {
			buf = appendU64le(buf, 0)
		}
	}
	var crc [8]byte
	binary.LittleEndian.PutUint64(crc[:], checksumCompact(buf))
	buf = append(buf, crc[:]...)
	if _, err := DecodeCompact(buf); err == nil {
		t.Fatal("padded answer bitset decoded successfully")
	} else if !strings.Contains(err.Error(), "trailing zero") {
		t.Fatalf("padded bitset rejected for the wrong reason: %v", err)
	}
}

// TestWorkerStoreLifecycle: the store behind a worker's task slice lives
// on the head. It journals every acked ingest, a compact checkpoint
// truncates the journal behind an O(delta) snapshot, and after a full stop
// the reopened store alone holds every response with decisions
// bit-identical to the never-stopped local evaluator. A new head over a
// fresh, empty worker is rebuilt from it and checkpoints again, so
// recovery state keeps rolling forward.
func TestWorkerStoreLifecycle(t *testing.T) {
	const crowdSize, tasks = 8, 200
	subs := testStream(t, crowdSize, tasks, 307)
	dir := t.TempDir()

	w, conn := freshReplica(t, crowdSize, 2)
	coord, err := NewCluster(crowdSize, slicesOf(conn), DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	st := openTestStore(t, dir)
	if err := coord.AttachSliceStores([]*store.Store{st}); err != nil {
		t.Fatal(err)
	}

	half := len(subs) / 2
	ingestBatches(t, coord, subs[:half], 16)
	if err := coord.CheckpointCompactSlice(0); err != nil {
		t.Fatal(err)
	}
	if first := st.Log.FirstSeq(); first <= 1 {
		t.Fatalf("journal still starts at seq %d after checkpoint; truncation never happened", first)
	}
	ingestBatches(t, coord, subs[half:], 16)

	coord.Close()
	w.Close()
	st.Close()

	// The reopened store alone: every acked response is present — a
	// duplicate re-add is rejected — and the decisions match.
	st2 := openTestStore(t, dir)
	defer st2.Close()
	recovered := evaluatorFromStore(t, crowdSize, st2)
	for i, s := range subs {
		if err := recovered.Add(s.w, s.t, s.r); err == nil {
			t.Fatalf("response %d (worker %d task %d) was lost across the restart", i, s.w, s.t)
		}
	}
	requireStoreHolds(t, "store after restart", crowdSize, st2, subs)

	_, conn2 := freshReplica(t, crowdSize, 2)
	coord2, err := NewCluster(crowdSize, slicesOf(conn2), DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	if err := coord2.AttachSliceStores([]*store.Store{st2}); err != nil {
		t.Fatal(err)
	}
	if err := coord2.CheckpointCompactAll(); err != nil {
		t.Fatal(err)
	}
	snap, ok, err := st2.Snapshots.Latest()
	if err != nil || !ok {
		t.Fatalf("no snapshot after re-checkpoint (ok %v, err %v)", ok, err)
	}
	if snap.Seq != st2.Log.LastSeq() {
		t.Fatalf("snapshot cut at seq %d, journal at %d", snap.Seq, st2.Log.LastSeq())
	}
}

// TestCoordinatorSliceStoreRebuild: with a store attached per task slice,
// the coordinator journals every acked fan-out, CheckpointCompactAll cuts
// O(delta) snapshots and truncates the journals, and a slice whose only
// replica died is rebuilt onto a fresh empty worker from disk alone —
// snapshot push plus WAL tail re-ingest — with zero acked loss and
// bit-identical decisions.
func TestCoordinatorSliceStoreRebuild(t *testing.T) {
	const crowdSize, tasks = 8, 220
	subs := testStream(t, crowdSize, tasks, 401)

	w0, c0 := freshReplica(t, crowdSize, 2)
	_, c1 := freshReplica(t, crowdSize, 2)
	coord, err := NewCluster(crowdSize, slicesOf(c0, c1), DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	st0 := openTestStore(t, t.TempDir())
	defer st0.Close()
	st1 := openTestStore(t, t.TempDir())
	defer st1.Close()
	if err := coord.AttachSliceStores([]*store.Store{st0, st1}); err != nil {
		t.Fatal(err)
	}
	if err := coord.AttachSliceStores([]*store.Store{st0}); err == nil {
		t.Fatal("store count mismatch accepted")
	}

	half := len(subs) / 2
	ingestBatches(t, coord, subs[:half], 16)
	if err := coord.CheckpointCompactAll(); err != nil {
		t.Fatal(err)
	}
	if f0, f1 := st0.Log.FirstSeq(), st1.Log.FirstSeq(); f0 <= 1 && f1 <= 1 {
		t.Fatalf("neither slice journal was truncated (first seqs %d, %d)", f0, f1)
	}
	ingestBatches(t, coord, subs[half:], 16)

	// With a live replica the store restore must refuse and point at
	// RestoreNode.
	_, probe := freshReplica(t, crowdSize, 2)
	if err := coord.RestoreNodeFromStore(0, probe); err == nil {
		t.Fatal("RestoreNodeFromStore accepted a slice with live replicas")
	} else if !strings.Contains(err.Error(), "live replicas") {
		t.Fatalf("wrong refusal: %v", err)
	}

	// Kill slice 0's only replica; the next RPC walks it down.
	w0.Close()
	if _, err := coord.Responses(); err == nil {
		t.Fatal("counts succeeded with a dead slice")
	}

	// Rebuild from the slice store onto a fresh, empty worker.
	_, connB := freshReplica(t, crowdSize, 2)
	if err := coord.RestoreNodeFromStore(0, connB); err != nil {
		t.Fatal(err)
	}
	total, err := coord.Responses()
	if err != nil {
		t.Fatal(err)
	}
	if total != len(subs) {
		t.Fatalf("cluster holds %d responses after rebuild, want %d", total, len(subs))
	}
	local := localReference(t, crowdSize, subs)
	requireEvaluateAllEqual(t, "rebuild from slice store", coord, local)
}

// TestCheckpointsDuringIngest: the head cuts checkpoints while the gateway
// ingests. CheckpointCompactSlice saves and truncates outside the slice
// lock while ingest appends under it, so this runs the two together: four
// goroutines ingest into a 2-slice cluster while a fifth loops
// CheckpointCompactAll. Afterwards the cluster is exact and each slice's
// store alone recovers exactly that slice's responses. CI runs it under
// the race detector.
func TestCheckpointsDuringIngest(t *testing.T) {
	const crowdSize, tasks = 8, 400
	subs := testStream(t, crowdSize, tasks, 431)
	_, c0 := freshReplica(t, crowdSize, 2)
	_, c1 := freshReplica(t, crowdSize, 2)
	coord, err := NewCluster(crowdSize, slicesOf(c0, c1), DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	stores := []*store.Store{openTestStore(t, t.TempDir()), openTestStore(t, t.TempDir())}
	for _, st := range stores {
		defer st.Close()
	}
	if err := coord.AttachSliceStores(stores); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	stop := sync.OnceFunc(func() { close(done) })
	defer stop() // a failed ingest still stops the checkpoint loop
	checkpoints := make(chan int, 1)
	go func() {
		n := 0
		defer func() { checkpoints <- n }()
		for {
			if err := coord.CheckpointCompactAll(); err != nil {
				t.Error(err)
				return
			}
			n++
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	ingestConcurrently(t, coord, subs, 4, 16)
	stop()
	t.Logf("%d checkpoints ran during ingest", <-checkpoints)
	if t.Failed() {
		return
	}

	requireEvaluateAllEqual(t, "after checkpoints during ingest", coord, localReference(t, crowdSize, subs))
	perSlice := make([][]submission, len(stores))
	for _, s := range subs {
		si := coord.sliceOf(s.t)
		perSlice[si] = append(perSlice[si], s)
	}
	for si, st := range stores {
		requireStoreHolds(t, fmt.Sprintf("slice %d store", si), crowdSize, st, perSlice[si])
	}
}

// ingestIntoSliceStore acks subs through a 1-slice × 1-replica coordinator
// journaling to a slice store in dir, then shuts the whole head down —
// coordinator, worker and store — the way a cold stop leaves it.
func ingestIntoSliceStore(t *testing.T, crowdSize int, subs []submission, dir string) {
	t.Helper()
	w, conn := freshReplica(t, crowdSize, 2)
	coord, err := NewCluster(crowdSize, slicesOf(conn), DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	st := openTestStore(t, dir)
	if err := coord.AttachSliceStores([]*store.Store{st}); err != nil {
		t.Fatal(err)
	}
	ingestBatches(t, coord, subs, 16)
	coord.Close()
	w.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestColdRestartRebuildsFromSliceStore: the head and its only worker both
// stop; a new head over a new, empty worker attaches the reopened slice
// store. The attach rebuilds the worker from the store, so the head serves
// every acked response with decisions bit-identical to a single-process
// evaluator, and a checkpoint cut afterwards still recovers all of them.
func TestColdRestartRebuildsFromSliceStore(t *testing.T) {
	const crowdSize, tasks = 8, 220
	subs := testStream(t, crowdSize, tasks, 401)
	dir := t.TempDir()
	ingestIntoSliceStore(t, crowdSize, subs, dir)

	_, conn := freshReplica(t, crowdSize, 2)
	coord, err := NewCluster(crowdSize, slicesOf(conn), DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	st := openTestStore(t, dir)
	defer st.Close()
	if err := coord.AttachSliceStores([]*store.Store{st}); err != nil {
		t.Fatal(err)
	}
	if total, err := coord.Responses(); err != nil || total != len(subs) {
		t.Fatalf("restarted head serves %d responses (err %v), want %d", total, err, len(subs))
	}
	local := localReference(t, crowdSize, subs)
	requireEvaluateAllEqual(t, "cold restart", coord, local)

	// The checkpoint saves the rebuilt state, not an empty one: the store
	// alone still recovers every acked response.
	if err := coord.CheckpointCompactAll(); err != nil {
		t.Fatal(err)
	}
	requireStoreHolds(t, "recovered from the checkpointed store", crowdSize, st, subs)
}

// TestAttachRebuildsFromV1Snapshot: a slice store whose newest snapshot
// is a version 1 compact payload, with a journal tail past it, still
// rebuilds an empty replica on attach — every acked response, decisions
// bit-identical to a single-process evaluator — and the next checkpoint
// writes a version 2 snapshot.
func TestAttachRebuildsFromV1Snapshot(t *testing.T) {
	const crowdSize = 8
	subs := v1Stream(t)
	dir := t.TempDir()
	st := openTestStore(t, dir)
	for i := 0; i < len(subs); i += 16 {
		batch := make([]store.Response, 0, 16)
		for _, x := range subs[i:min(i+16, len(subs))] {
			batch = append(batch, store.Response{Worker: x.w, Task: x.t, Answer: x.r})
		}
		seq, err := st.Log.Append(batch)
		if err != nil {
			t.Fatal(err)
		}
		if i+16 == v1Half {
			if err := st.Snapshots.Save(seq, v1Payload(t)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, conn := freshReplica(t, crowdSize, 2)
	coord, err := NewCluster(crowdSize, slicesOf(conn), DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	st = openTestStore(t, dir)
	defer st.Close()
	if err := coord.AttachSliceStores([]*store.Store{st}); err != nil {
		t.Fatal(err)
	}
	if total, err := coord.Responses(); err != nil || total != len(subs) {
		t.Fatalf("rebuilt head serves %d responses (err %v), want %d", total, err, len(subs))
	}
	requireEvaluateAllEqual(t, "rebuilt from a version 1 snapshot", coord, localReference(t, crowdSize, subs))

	if err := coord.CheckpointCompactSlice(0); err != nil {
		t.Fatal(err)
	}
	snap, ok, err := st.Snapshots.Latest()
	if err != nil || !ok {
		t.Fatalf("no snapshot after the checkpoint (ok %v, err %v)", ok, err)
	}
	if v := snap.Payload[len(compactMagic)]; v != compactVersion {
		t.Fatalf("the checkpoint wrote compact version %d, want %d", v, compactVersion)
	}
	requireStoreHolds(t, "recovered from the version 2 checkpoint", crowdSize, st, subs)
}

// TestAttachRefusesReplicaBehindStore: a live replica holding some but not
// all of the store's responses cannot be rebuilt (restore needs an empty
// receiver) and must not be journaled on top of — a checkpoint would save
// its short state and truncate the rest. The attach names the slice and
// leaves the store untouched.
func TestAttachRefusesReplicaBehindStore(t *testing.T) {
	const crowdSize, tasks = 8, 220
	subs := testStream(t, crowdSize, tasks, 401)
	dir := t.TempDir()
	ingestIntoSliceStore(t, crowdSize, subs, dir)

	behind := workerWith(t, crowdSize, subs[:len(subs)/2])
	t.Cleanup(func() { behind.Close() })
	conn, err := behind.SelfConn()
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCluster(crowdSize, slicesOf(conn), DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	st := openTestStore(t, dir)
	defer st.Close()
	first, last := st.Log.FirstSeq(), st.Log.LastSeq()
	err = coord.AttachSliceStores([]*store.Store{st})
	if err == nil || !strings.Contains(err.Error(), "slice 0") {
		t.Fatalf("attach over a replica behind the store: err = %v, want a refusal naming slice 0", err)
	}
	if err := coord.CheckpointCompactSlice(0); err == nil {
		t.Fatal("a refused store was attached anyway")
	}
	if _, ok, _ := st.Snapshots.Latest(); ok || st.Log.FirstSeq() != first || st.Log.LastSeq() != last {
		t.Fatalf("refused attach touched the store: snapshot %v, journal [%d, %d], was [%d, %d]",
			ok, st.Log.FirstSeq(), st.Log.LastSeq(), first, last)
	}
	if n, err := storedResponses(st); err != nil || n != len(subs) {
		t.Fatalf("store holds %d responses after the refusal (err %v), want %d", n, err, len(subs))
	}
}

// TestMonitorReseedFromSliceStore: a slice with a single replica and no
// sibling dies; the monitor's reseed has no survivor to copy from and must
// fall back to the slice's WAL store — newest compact snapshot plus journal
// tail — to rebuild an empty worker that came up on the same address.
func TestMonitorReseedFromSliceStore(t *testing.T) {
	const crowdSize, tasks = 8, 180
	subs := testStream(t, crowdSize, tasks, 83)

	victim, victimAddr := serveWorkerOn(t, "", crowdSize, "victim")
	dial := func() (*Conn, error) { return DialTCPTimeout(victimAddr, 5*time.Second) }
	cv, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCluster(crowdSize, [][]ReplicaSpec{{{Conn: cv, Dial: dial}}}, chaosPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	st := openTestStore(t, t.TempDir())
	defer st.Close()
	if err := coord.AttachSliceStores([]*store.Store{st}); err != nil {
		t.Fatal(err)
	}

	half := len(subs) / 2
	ingestBatches(t, coord, subs[:half], 19)
	if err := coord.CheckpointCompactSlice(0); err != nil {
		t.Fatal(err)
	}
	ingestBatches(t, coord, subs[half:], 19)

	var evMu sync.Mutex
	var events []string
	coord.StartMonitor(MonitorOptions{
		Interval:     20 * time.Millisecond,
		SuspectAfter: 1,
		DownAfter:    2,
		ReseedEvery:  40 * time.Millisecond,
		OnEvent: func(e Event) {
			evMu.Lock()
			events = append(events, e.String())
			evMu.Unlock()
		},
	})
	eventLog := func() []string {
		evMu.Lock()
		defer evMu.Unlock()
		return append([]string(nil), events...)
	}

	if err := victim.Close(); err != nil {
		t.Fatal(err)
	}
	serveWorkerOn(t, victimAddr, crowdSize, "victim-reborn")

	deadline := time.Now().Add(10 * time.Second)
	for {
		view := coord.Membership()
		if view[0].State == "alive" && view[0].Reseeds >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never reseeded from the store; membership %+v\nevents:\n%s",
				view, strings.Join(eventLog(), "\n"))
		}
		time.Sleep(10 * time.Millisecond)
	}
	writeChaosLog(t, eventLog())

	total, err := coord.Responses()
	if err != nil {
		t.Fatal(err)
	}
	if total != len(subs) {
		t.Fatalf("cluster holds %d responses after store reseed, want %d (acked loss)", total, len(subs))
	}
	local := localReference(t, crowdSize, subs)
	requireEvaluateAllEqual(t, "monitor reseed from store", coord, local)
}

// TestReadSnapshotMissingFile: a store holding no snapshot file and no
// journal is a first start — recovery yields an empty slice, not an
// error — which is what lets a head tell a fresh deployment from a
// damaged one: it attaches the store over empty workers and rebuilds
// nothing.
func TestReadSnapshotMissingFile(t *testing.T) {
	const crowdSize = 5
	st := openTestStore(t, t.TempDir())
	defer st.Close()
	if _, ok, err := st.Snapshots.Latest(); ok || err != nil {
		t.Fatalf("fresh store reports a snapshot (ok %v, err %v)", ok, err)
	}
	if n := evaluatorFromStore(t, crowdSize, st).Responses(); n != 0 {
		t.Fatalf("first start recovered %d responses, want 0", n)
	}
	_, conn := freshReplica(t, crowdSize, 1)
	coord, err := NewCluster(crowdSize, slicesOf(conn), DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.AttachSliceStores([]*store.Store{st}); err != nil {
		t.Fatalf("attaching a fresh store: %v", err)
	}
	if total, err := coord.Responses(); err != nil || total != 0 {
		t.Fatalf("head over a fresh store serves %d responses (err %v), want 0", total, err)
	}
	if st.Log.LastSeq() != 0 {
		t.Fatalf("attaching a fresh store journaled up to seq %d", st.Log.LastSeq())
	}
}

// TestCheckpointGenerationFallback: the slice store keeps the previous
// compact snapshot generation. When the newest one is corrupted on disk and
// the slice then loses its only replica, the rebuild skips the corrupt file,
// restores the older generation and re-ingests the journal tail past it —
// zero acknowledged loss, bit-identical decisions.
func TestCheckpointGenerationFallback(t *testing.T) {
	const crowdSize, tasks = 6, 100
	subs := testStream(t, crowdSize, tasks, 59)
	coord, grid := newReplicatedCluster(t, crowdSize, 1, 1, 2)
	dir := t.TempDir()
	// Default segments: the journal keeps every record the older
	// generation needs.
	st, err := store.Open(store.OSFS{}, dir, store.Options{Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := coord.AttachSliceStores([]*store.Store{st}); err != nil {
		t.Fatal(err)
	}

	half := len(subs) / 2
	ingestBatches(t, coord, subs[:half], 16)
	if err := coord.CheckpointCompactSlice(0); err != nil {
		t.Fatal(err)
	}
	older, _, err := st.Snapshots.Latest()
	if err != nil {
		t.Fatal(err)
	}
	ingestBatches(t, coord, subs[half:], 16)
	if err := coord.CheckpointCompactSlice(0); err != nil {
		t.Fatal(err)
	}
	newest, _, err := st.Snapshots.Latest()
	if err != nil || newest.Seq <= older.Seq {
		t.Fatalf("second generation at seq %d, first at %d (err %v)", newest.Seq, older.Seq, err)
	}

	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for _, e := range names {
		if strings.HasPrefix(e.Name(), "snap-") && strings.Contains(e.Name(), fmt.Sprintf("%016x", newest.Seq)) {
			path := filepath.Join(dir, e.Name())
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)/2] ^= 0xFF
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			corrupted++
		}
	}
	if corrupted != 1 {
		t.Fatalf("corrupted %d snapshot files, want the newest one", corrupted)
	}
	if snap, ok, err := st.Snapshots.Latest(); err != nil || !ok || snap.Seq != older.Seq {
		t.Fatalf("newest valid generation is seq %d (ok %v, err %v), want the older %d", snap.Seq, ok, err, older.Seq)
	}

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
	if total, err := coord.Responses(); err != nil || total != len(subs) {
		t.Fatalf("cluster holds %d responses after the fallback rebuild (err %v), want %d", total, err, len(subs))
	}
	requireEvaluateAllEqual(t, "rebuilt from the older generation", coord, localReference(t, crowdSize, subs))
}

// TestWriteSnapshotDurabilitySequence: a slice checkpoint goes through
// the store's atomic temp+fsync+rename+dir-fsync sequence. A sync failure
// surfaces as an error, publishes nothing, and — because the journal is
// only truncated behind a published snapshot — drops no journal record;
// once the fault clears, the next cut succeeds and a restart recovers
// every acknowledged response.
func TestWriteSnapshotDurabilitySequence(t *testing.T) {
	const crowdSize = 6
	subs := testStream(t, crowdSize, 120, 23)
	dir := t.TempDir()
	ffs := store.NewFaultFS(store.OSFS{})
	st, err := store.Open(ffs, dir, store.Options{SegmentSize: 1024, Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	w, conn := freshReplica(t, crowdSize, 2)
	coord, err := NewCluster(crowdSize, slicesOf(conn), DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.AttachSliceStores([]*store.Store{st}); err != nil {
		t.Fatal(err)
	}
	half := len(subs) / 2
	ingestBatches(t, coord, subs[:half], 16)
	if err := coord.CheckpointCompactSlice(0); err != nil {
		t.Fatal(err)
	}
	published, _, err := st.Snapshots.Latest()
	if err != nil {
		t.Fatal(err)
	}
	ingestBatches(t, coord, subs[half:], 16)
	first, last := st.Log.FirstSeq(), st.Log.LastSeq()

	boom := errors.New("injected sync failure")
	ffs.SetSyncError(boom)
	if err := coord.CheckpointCompactSlice(0); !errors.Is(err, boom) {
		t.Fatalf("snapshot cut with a failing fsync: %v, want the injected failure", err)
	}
	ffs.SetSyncError(nil)
	if snap, _, err := st.Snapshots.Latest(); err != nil || snap.Seq != published.Seq {
		t.Fatalf("failed cut published a snapshot (seq %d, had %d; err %v)", snap.Seq, published.Seq, err)
	}
	if st.Log.FirstSeq() != first || st.Log.LastSeq() != last {
		t.Fatalf("failed cut moved the journal from [%d, %d] to [%d, %d]", first, last, st.Log.FirstSeq(), st.Log.LastSeq())
	}
	if err := coord.CheckpointCompactSlice(0); err != nil {
		t.Fatal(err)
	}
	coord.Close()
	w.Close()
	st.Close()

	st2 := openTestStore(t, dir)
	defer st2.Close()
	requireStoreHolds(t, "restart after the failed cut", crowdSize, st2, subs)
}

// TestAttachRefusesUnrecoverableStore: a slice store whose every snapshot
// is damaged on disk after the journal behind it was truncated cannot
// account for its state. The attach must refuse it, naming the slice, and
// touch neither the store nor the replicas — a head that served from it
// would serve skewed statistics.
func TestAttachRefusesUnrecoverableStore(t *testing.T) {
	const crowdSize, tasks = 8, 220
	subs := testStream(t, crowdSize, tasks, 401)
	dir := t.TempDir()

	w, conn := freshReplica(t, crowdSize, 2)
	coord, err := NewCluster(crowdSize, slicesOf(conn), DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	st := openTestStore(t, dir)
	if err := coord.AttachSliceStores([]*store.Store{st}); err != nil {
		t.Fatal(err)
	}
	ingestBatches(t, coord, subs, 16)
	if err := coord.CheckpointCompactSlice(0); err != nil {
		t.Fatal(err)
	}
	if first := st.Log.FirstSeq(); first <= 1 {
		t.Fatalf("journal still starts at seq %d after the checkpoint; nothing was truncated", first)
	}
	coord.Close()
	w.Close()
	st.Close()

	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	damaged := map[string][]byte{}
	for _, e := range names {
		if !strings.HasPrefix(e.Name(), "snap-") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0x20
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		damaged[path] = b
	}
	if len(damaged) == 0 {
		t.Fatal("the checkpoint left no snapshot file to damage")
	}

	st2 := openTestStore(t, dir)
	defer st2.Close()
	first, last := st2.Log.FirstSeq(), st2.Log.LastSeq()
	_, conn2 := freshReplica(t, crowdSize, 2)
	coord2, err := NewCluster(crowdSize, slicesOf(conn2), DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	err = coord2.AttachSliceStores([]*store.Store{st2})
	if err == nil || !strings.Contains(err.Error(), "slice 0") {
		t.Fatalf("attach over an unrecoverable store: err = %v, want a refusal naming slice 0", err)
	}
	if err := coord2.CheckpointCompactSlice(0); err == nil {
		t.Fatal("a refused store was attached anyway")
	}
	if total, err := coord2.Responses(); err != nil || total != 0 {
		t.Fatalf("refused attach left %d responses on the replica (err %v), want 0", total, err)
	}
	if st2.Log.FirstSeq() != first || st2.Log.LastSeq() != last {
		t.Fatalf("refused attach moved the journal from [%d, %d] to [%d, %d]", first, last, st2.Log.FirstSeq(), st2.Log.LastSeq())
	}
	for path, want := range damaged {
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("refused attach touched snapshot %s (err %v)", filepath.Base(path), err)
		}
	}
}

// TestAttachEmptyStoreOverLiveReplicas is the upgrade path from clusters
// whose head journaled nothing: an empty slice store attached over live
// replicas that already hold the stream is attached as is, and the first
// checkpoint captures what the replicas hold. From then on the store alone
// is the slice — a new head over fresh, empty workers on the reopened
// stores serves decisions bit-identical to a single-process evaluator.
func TestAttachEmptyStoreOverLiveReplicas(t *testing.T) {
	const crowdSize, tasks, slices = 8, 220, 2
	subs := testStream(t, crowdSize, tasks, 401)
	coord, _ := newReplicatedCluster(t, crowdSize, slices, 2, 2)
	ingestBatches(t, coord, subs, 16)

	dirs := make([]string, slices)
	stores := make([]*store.Store, slices)
	for si := range stores {
		dirs[si] = t.TempDir()
		stores[si] = openTestStore(t, dirs[si])
	}
	if err := coord.AttachSliceStores(stores); err != nil {
		t.Fatalf("attaching empty stores over live replicas: %v", err)
	}
	held := func() int {
		n := 0
		for _, st := range stores {
			k, err := storedResponses(st)
			if err != nil {
				t.Fatal(err)
			}
			n += k
		}
		return n
	}
	if n := held(); n != 0 {
		t.Fatalf("the stores hold %d responses before the first checkpoint, want 0", n)
	}
	if err := coord.CheckpointCompactAll(); err != nil {
		t.Fatal(err)
	}
	if n := held(); n != len(subs) {
		t.Fatalf("the stores hold %d of %d responses after the first checkpoint", n, len(subs))
	}
	coord.Close()
	for _, st := range stores {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}

	conns := make([]*Conn, slices)
	for si := range conns {
		_, conns[si] = freshReplica(t, crowdSize, 2)
		stores[si] = openTestStore(t, dirs[si])
		defer stores[si].Close()
	}
	restarted, err := NewCluster(crowdSize, slicesOf(conns...), DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if err := restarted.AttachSliceStores(stores); err != nil {
		t.Fatal(err)
	}
	requireEvaluateAllEqual(t, "restart after the upgrade checkpoint", restarted, localReference(t, crowdSize, subs))
}

// checksumCompact mirrors EncodeCompact's CRC trailer for tests that craft
// payloads by hand.
func checksumCompact(body []byte) uint64 {
	return crc64.Checksum(body, snapCRC)
}

// TestSliceBatchRefusedWhole: a slice batch with one response the replica
// already holds, or one that repeats a pair of its own, is refused whole.
// Before, the replica recorded the
// batch's prefix while the head, seeing the error, journaled nothing, so
// the live cluster decided on a response no client was acked for and a
// rebuild from the store dropped it.
func TestSliceBatchRefusedWhole(t *testing.T) {
	const crowdSize = 4
	st := openTestStore(t, t.TempDir())
	defer st.Close()
	w, conn := freshReplica(t, crowdSize, 2)
	coord, err := NewCluster(crowdSize, slicesOf(conn), DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.AttachSliceStores([]*store.Store{st}); err != nil {
		t.Fatal(err)
	}
	if err := coord.Ingest([]Response{{Worker: 0, Task: 1, Answer: crowd.Yes}}); err != nil {
		t.Fatal(err)
	}
	err = coord.Ingest([]Response{{Worker: 1, Task: 1, Answer: crowd.No}, {Worker: 0, Task: 1, Answer: crowd.Yes}})
	if err == nil || !strings.Contains(err.Error(), "already answered") {
		t.Fatalf("batch repeating a stored response: %v, want the repeat refused", err)
	}
	requireOne := func(batch string) {
		t.Helper()
		if n := w.Evaluator().Responses(); n != 1 {
			t.Fatalf("the replica holds %d responses after the refused %s, want 1", n, batch)
		}
		if n := evaluatorFromStore(t, crowdSize, st).Responses(); n != 1 {
			t.Fatalf("the journal recovers %d responses after the refused %s, want 1", n, batch)
		}
	}
	requireOne("batch")
	// A batch that repeats a pair within itself is refused whole as well:
	// nothing before the repeat is kept.
	err = coord.Ingest([]Response{{Worker: 2, Task: 1, Answer: crowd.No}, {Worker: 1, Task: 1, Answer: crowd.Yes}, {Worker: 2, Task: 1, Answer: crowd.No}})
	if err == nil || !strings.Contains(err.Error(), "already answered") {
		t.Fatalf("batch repeating a pair of its own: %v, want the repeat refused", err)
	}
	requireOne("batch with a repeat")
}
