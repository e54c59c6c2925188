package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"crowdassess/internal/crowd"
	"crowdassess/internal/dist"
	"crowdassess/internal/store"
)

// ingestFixture deterministically fills a 5-worker crowd over the given
// tasks, skipping cells where skip reports true.
func ingestFixture(tasks int, skip func(w, t int) bool) []dist.Response {
	var batch []dist.Response
	for task := 0; task < tasks; task++ {
		for cw := 0; cw < 5; cw++ {
			if !skip(cw, task) {
				batch = append(batch, dist.Response{Worker: cw, Task: task, Answer: crowd.Response(1 + crowdassessResponse(cw, task))})
			}
		}
	}
	return batch
}

// storeWorker opens a WAL store in dir and a 5-worker node journaling into
// it; segments are small so compaction visibly truncates the journal.
func storeWorker(t *testing.T, dir string) (*dist.Worker, *store.Store) {
	t.Helper()
	st, err := store.Open(store.OSFS{}, dir, store.Options{SegmentSize: 512, Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	w, err := dist.NewWorker(dist.WorkerOptions{Workers: 5, Shards: 2, Name: ":7333", Store: st})
	if err != nil {
		t.Fatal(err)
	}
	return w, st
}

// ingestVia pushes a batch through a coordinator over the worker, so it is
// journaled the way a live daemon journals it.
func ingestVia(t *testing.T, w *dist.Worker, batch []dist.Response) {
	t.Helper()
	conn, err := w.SelfConn()
	if err != nil {
		t.Fatal(err)
	}
	coord, err := dist.NewCluster(5, [][]dist.ReplicaSpec{{{Conn: conn}}}, dist.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	for lo := 0; lo < len(batch); lo += 16 {
		if err := coord.Ingest(batch[lo:min(lo+16, len(batch))]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointLifecycle drives the daemon's snapshot restart story at the
// helper level: a compact snapshot is cut into the store, a restart
// recovers a fresh worker from it, and the recovered node's state is
// byte-identical to the snapshot on disk.
func TestCheckpointLifecycle(t *testing.T) {
	dir := t.TempDir()
	w, st := storeWorker(t, dir)
	ingestVia(t, w, ingestFixture(40, func(cw, task int) bool { return (task+cw)%3 == 0 }))
	want := w.Evaluator().Responses()
	if err := w.CheckpointCompact(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	restarted, st2 := storeWorker(t, dir)
	defer st2.Close()
	t.Cleanup(func() { restarted.Close() })
	n, err := restarted.RecoverFromStore()
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("recovered %d responses, want %d", n, want)
	}
	onDisk, ok, err := st2.Snapshots.Latest()
	if err != nil || !ok {
		t.Fatalf("no snapshot on disk (ok %v, err %v)", ok, err)
	}
	got, err := dist.EncodeCompact(restarted.Evaluator().CompactCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, onDisk.Payload) {
		t.Fatal("restarted worker's state differs from the snapshot on disk")
	}
}

// crowdassessResponse deterministically picks a binary answer (0 or 1,
// offset to Yes/No by the caller).
func crowdassessResponse(w, t int) int { return (w*31 + t*17) % 2 }

// TestCheckpointCorruptionRefusesStart: a daemon whose store cannot account
// for its state — the only snapshot damaged on disk after the journal
// behind it was compacted away — must refuse to start, not serve skewed
// statistics.
func TestCheckpointCorruptionRefusesStart(t *testing.T) {
	dir := t.TempDir()
	w, st := storeWorker(t, dir)
	ingestVia(t, w, ingestFixture(60, func(cw, task int) bool { return (task+cw)%4 == 0 }))
	if err := w.CheckpointCompact(); err != nil {
		t.Fatal(err)
	}
	if first := st.Log.FirstSeq(); first <= 1 {
		t.Fatalf("journal still starts at seq %d after the snapshot; nothing was compacted", first)
	}
	w.Close()
	st.Close()
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range names {
		if strings.HasPrefix(e.Name(), "snap-") {
			path := filepath.Join(dir, e.Name())
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)/2] ^= 0x20
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	fresh, st2 := storeWorker(t, dir)
	defer st2.Close()
	t.Cleanup(func() { fresh.Close() })
	if _, err := fresh.RecoverFromStore(); err == nil {
		t.Fatal("recovery served state from a store whose only snapshot is corrupt")
	}
}

// TestValidateStorageFlags pins the persistence flag matrix: with -wal the
// snapshot interval must be positive and -fsync must parse.
func TestValidateStorageFlags(t *testing.T) {
	cases := []struct {
		name      string
		wal       string
		fsync     string
		snapEvery time.Duration
		wantErr   string
	}{
		{name: "no persistence", fsync: "always"},
		{name: "wal only", wal: "waldir", fsync: "always", snapEvery: time.Minute},
		{name: "wal interval fsync", wal: "waldir", fsync: "interval", snapEvery: time.Second},
		{name: "wal never fsync", wal: "waldir", fsync: "never", snapEvery: time.Second},
		{name: "zero snapshot interval", wal: "waldir", fsync: "always", snapEvery: 0, wantErr: "must be positive"},
		{name: "negative snapshot interval", wal: "waldir", fsync: "always", snapEvery: -time.Second, wantErr: "must be positive"},
		{name: "bad fsync", wal: "waldir", fsync: "sometimes", snapEvery: time.Minute, wantErr: "fsync"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := validateStorage(tc.wal, tc.fsync, tc.snapEvery)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid flags rejected: %v", err)
				}
				if cfg.wal != tc.wal {
					t.Fatalf("config dropped flag values: %+v", cfg)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid flags accepted: %+v", cfg)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
	// The parsed fsync policy must map to the engine's, not just not-error.
	cfg, err := validateStorage("waldir", "never", time.Minute)
	if err != nil || cfg.fsync != store.FsyncNever {
		t.Fatalf("fsync never parsed to %v (err %v)", cfg.fsync, err)
	}
}

// TestWALLifecycle drives the daemon's WAL restart story at the helper
// level: a store-backed worker journals coordinator ingests, and a restart
// through RecoverFromStore rebuilds the evaluator exactly.
func TestWALLifecycle(t *testing.T) {
	dir := t.TempDir()
	cfg, err := validateStorage(dir, "never", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	st, err := cfg.openWorkerStore(nil)
	if err != nil {
		t.Fatal(err)
	}
	w, err := dist.NewWorker(dist.WorkerOptions{Workers: 5, Shards: 2, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	ingestVia(t, w, ingestFixture(40, func(cw, task int) bool { return (task+cw)%3 == 0 }))
	want := w.Evaluator().Responses()
	w.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := cfg.openWorkerStore(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	w2, err := dist.NewWorker(dist.WorkerOptions{Workers: 5, Shards: 2, Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w2.Close() })
	n, err := w2.RecoverFromStore()
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("recovered %d responses, want %d", n, want)
	}
}

// TestValidateTimeouts: the duration flags reject nonsense with errors
// that name the flag. A negative -rpc-timeout used to be silently
// ignored; a zero -heartbeat-interval used to be silently replaced by
// the monitor's default.
func TestValidateTimeouts(t *testing.T) {
	if err := validateTimeouts(0, time.Second); err != nil {
		t.Errorf("zero rpc-timeout (= defaults) rejected: %v", err)
	}
	if err := validateTimeouts(30*time.Second, time.Second); err != nil {
		t.Errorf("valid timeouts rejected: %v", err)
	}
	err := validateTimeouts(-time.Second, time.Second)
	if err == nil || !strings.Contains(err.Error(), "-rpc-timeout") {
		t.Errorf("negative -rpc-timeout: err = %v, want an error naming the flag", err)
	}
	for _, hb := range []time.Duration{0, -time.Second} {
		err := validateTimeouts(0, hb)
		if err == nil || !strings.Contains(err.Error(), "-heartbeat-interval") {
			t.Errorf("heartbeat-interval %v: err = %v, want an error naming the flag", hb, err)
		}
	}
}
