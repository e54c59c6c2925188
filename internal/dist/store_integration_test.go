package dist

import (
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
	"crowdassess/internal/store"
)

// This file exercises the durable storage engine end to end through the
// distributed layer: the compact checkpoint codec, worker-side WAL
// journaling and recovery, coordinator-side slice stores, and the monitor's
// reseed-from-store path.

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

// compactOf ingests a stream into a fresh Incremental and cuts a compact
// checkpoint.
func compactOf(t *testing.T, workers int, subs []submission) *core.CompactState {
	t.Helper()
	return localReference(t, workers, subs).CompactCheckpoint()
}

// TestCompactRoundTrip: encode∘decode∘restore rebuilds an evaluator whose
// decisions are bit-identical, and the encoding is canonical — equal state
// always yields equal bytes, including across the single-lock and sharded
// evaluators. Canonicality is what lets the coordinator byte-compare
// replicas' compact pulls as a divergence check.
func TestCompactRoundTrip(t *testing.T) {
	const workers, tasks = 7, 120
	subs := testStream(t, workers, tasks, 211)
	local := localReference(t, workers, subs)

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

	// The sharded evaluator holding the same stream encodes identically.
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
		t.Fatal("sharded evaluator's compact payload differs from the single-lock one")
	}

	cs, err := DecodeCompact(payload)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := core.NewIncremental(workers)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreCompact(cs); err != nil {
		t.Fatal(err)
	}
	opts := core.EvalOptions{Confidence: 0.9}
	want, err := local.EvaluateAll(opts)
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
	stats, err := EncodeStats(cs.Stats)
	if err != nil {
		t.Fatal(err)
	}
	buf := append([]byte(nil), compactMagic[:]...)
	buf = appendUvarint(buf, compactVersion)
	buf = appendUvarint(buf, uint64(len(stats)))
	buf = append(buf, stats...)
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

// TestWorkerStoreLifecycle: a store-backed worker journals every acked
// ingest, CheckpointCompact truncates the journal behind an O(delta)
// snapshot, and a restart — new store handle, new worker, RecoverFromStore
// — rebuilds the evaluator with every response present and decisions
// bit-identical to the never-restarted local evaluator.
func TestWorkerStoreLifecycle(t *testing.T) {
	const crowdSize, tasks = 8, 200
	subs := testStream(t, crowdSize, tasks, 307)
	dir := t.TempDir()

	st := openTestStore(t, dir)
	w, err := NewWorker(WorkerOptions{Workers: crowdSize, Shards: 2, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := w.SelfConn()
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCluster(crowdSize, slicesOf(conn), DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}

	half := len(subs) / 2
	ingestBatches(t, coord, subs[:half], 16)
	if err := w.CheckpointCompact(); err != nil {
		t.Fatal(err)
	}
	if first := st.Log.FirstSeq(); first <= 1 {
		t.Fatalf("journal still starts at seq %d after checkpoint; truncation never happened", first)
	}
	ingestBatches(t, coord, subs[half:], 16)

	coord.Close()
	w.Close()
	st.Close()

	// Restart from disk.
	st2 := openTestStore(t, dir)
	defer st2.Close()
	w2, err := NewWorker(WorkerOptions{Workers: crowdSize, Shards: 2, Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	n, err := w2.RecoverFromStore()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(subs) {
		t.Fatalf("recovered %d responses, want %d", n, len(subs))
	}
	// Every acked response must be present: a duplicate re-add is rejected.
	for i, s := range subs {
		if err := w2.Evaluator().Add(s.w, s.t, s.r); err == nil {
			t.Fatalf("response %d (worker %d task %d) was lost across the restart", i, s.w, s.t)
		}
	}
	local := localReference(t, crowdSize, subs)
	opts := core.EvalOptions{Confidence: 0.9}
	want, err := local.EvaluateAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := w2.Evaluator().EvaluateAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	compareEstimates(t, "worker restart", got, want)

	// The recovered worker checkpoints again: the snapshot covers the full
	// journal, so recovery state keeps rolling forward.
	if err := w2.CheckpointCompact(); err != nil {
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
// bit-identical decisions. The replacement worker carries its own store,
// pinning that a wire-seeded node persists the seed before acking.
func TestCoordinatorSliceStoreRebuild(t *testing.T) {
	const crowdSize, tasks = 8, 220
	subs := testStream(t, crowdSize, tasks, 401)

	makeWorker := func(st *store.Store) (*Worker, *Conn) {
		t.Helper()
		w, err := NewWorker(WorkerOptions{Workers: crowdSize, Shards: 2, Store: st})
		if err != nil {
			t.Fatal(err)
		}
		conn, err := w.SelfConn()
		if err != nil {
			t.Fatal(err)
		}
		return w, conn
	}
	w0, c0 := makeWorker(nil)
	w1, c1 := makeWorker(nil)
	defer w1.Close()
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
	_, probe := makeWorker(nil)
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

	// Rebuild from the slice store onto a fresh, empty, store-backed worker.
	dirB := t.TempDir()
	stB := openTestStore(t, dirB)
	wB, connB := makeWorker(stB)
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

	// The wire-seeded replacement persisted its seed: its own store alone
	// rebuilds the same slice state after it too dies.
	sliceCount := wB.Evaluator().Responses()
	wB.Close()
	stB.Close()
	stB2 := openTestStore(t, dirB)
	defer stB2.Close()
	wB2, err := NewWorker(WorkerOptions{Workers: crowdSize, Shards: 2, Store: stB2})
	if err != nil {
		t.Fatal(err)
	}
	defer wB2.Close()
	n, err := wB2.RecoverFromStore()
	if err != nil {
		t.Fatal(err)
	}
	if n != sliceCount {
		t.Fatalf("replacement's own store recovered %d responses, want %d", n, sliceCount)
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
// journal is a first start — recovery yields an empty node, not an error —
// which is what lets a daemon tell a fresh deployment from a damaged one.
func TestReadSnapshotMissingFile(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	defer st.Close()
	if _, ok, err := st.Snapshots.Latest(); ok || err != nil {
		t.Fatalf("fresh store reports a snapshot (ok %v, err %v)", ok, err)
	}
	w, err := NewWorker(WorkerOptions{Workers: 5, Shards: 1, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if n, err := w.RecoverFromStore(); err != nil || n != 0 {
		t.Fatalf("first start recovered n=%d err=%v, want 0, nil", n, err)
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

// TestWriteSnapshotDurabilitySequence: a compact snapshot cut goes through
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
	w, err := NewWorker(WorkerOptions{Workers: crowdSize, Shards: 2, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := w.SelfConn()
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCluster(crowdSize, slicesOf(conn), DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	half := len(subs) / 2
	ingestBatches(t, coord, subs[:half], 16)
	if err := w.CheckpointCompact(); err != nil {
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
	if err := w.CheckpointCompact(); !errors.Is(err, boom) {
		t.Fatalf("snapshot cut with a failing fsync: %v, want the injected failure", err)
	}
	ffs.SetSyncError(nil)
	if snap, _, err := st.Snapshots.Latest(); err != nil || snap.Seq != published.Seq {
		t.Fatalf("failed cut published a snapshot (seq %d, had %d; err %v)", snap.Seq, published.Seq, err)
	}
	if st.Log.FirstSeq() != first || st.Log.LastSeq() != last {
		t.Fatalf("failed cut moved the journal from [%d, %d] to [%d, %d]", first, last, st.Log.FirstSeq(), st.Log.LastSeq())
	}
	if err := w.CheckpointCompact(); err != nil {
		t.Fatal(err)
	}
	coord.Close()
	w.Close()
	st.Close()

	st2 := openTestStore(t, dir)
	defer st2.Close()
	w2, err := NewWorker(WorkerOptions{Workers: crowdSize, Shards: 2, Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if n, err := w2.RecoverFromStore(); err != nil || n != len(subs) {
		t.Fatalf("recovered %d responses (err %v), want %d", n, err, len(subs))
	}
}

// checksumCompact mirrors EncodeCompact's CRC trailer for tests that craft
// payloads by hand.
func checksumCompact(body []byte) uint64 {
	return crc64.Checksum(body, snapCRC)
}
