package store

import (
	"errors"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gateFS counts segment fsyncs and, once armed, holds the next one until
// the test releases it, so a test can keep an fsync in flight.
type gateFS struct {
	FS
	syncs   atomic.Int64
	armed   atomic.Bool
	entered chan struct{} // receives when the held fsync starts
	release chan struct{} // closed to let the held fsync finish
}

func newGateFS(inner FS) *gateFS {
	return &gateFS{FS: inner, entered: make(chan struct{}, 1), release: make(chan struct{})}
}

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return gateFile{File: f, g: g}, nil
}

type gateFile struct {
	File
	g *gateFS
}

func (f gateFile) Sync() error {
	f.g.syncs.Add(1)
	if f.g.armed.CompareAndSwap(true, false) {
		f.g.entered <- struct{}{}
		<-f.g.release
	}
	return f.File.Sync()
}

// TestLogGroupCommitConcurrentWriters: writers that each Write a batch
// and SyncTo its sequence number, concurrently and across segment
// rotations, lose nothing: every batch whose SyncTo returned nil replays
// after a reopen, under the sequence number Write gave it. No batch costs
// more than one fsync of its own.
func TestLogGroupCommitConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentSize: 512, Fsync: FsyncAlways}
	gfs := newGateFS(OSFS{})
	l := openTestLog(t, gfs, dir, opts)
	const writers, batches = 8, 40
	acked := make([]map[uint64]int, writers) // seq → batch index
	var wg sync.WaitGroup
	for g := range writers {
		acked[g] = map[uint64]int{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range batches {
				i := g*batches + b
				seq, err := l.Write(testBatch(i))
				if err != nil {
					t.Errorf("write %d: %v", i, err)
					return
				}
				if err := l.SyncTo(seq); err != nil {
					t.Errorf("sync to %d: %v", seq, err)
					return
				}
				acked[g][seq] = i
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	segments, segFsyncs := len(l.segments), gfs.syncs.Load()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Each segment's header costs one fsync of its own.
	if segFsyncs > int64(writers*batches+segments) {
		t.Fatalf("%d fsyncs for %d batches in %d segments", segFsyncs, writers*batches, segments)
	}
	replayed := map[uint64]Record{}
	for _, r := range collect(t, openTestLog(t, OSFS{}, dir, opts), 1) {
		replayed[r.Seq] = r
	}
	if len(replayed) != writers*batches {
		t.Fatalf("replayed %d records, want %d", len(replayed), writers*batches)
	}
	for _, m := range acked {
		for seq, i := range m {
			r, ok := replayed[seq]
			if !ok || r.Responses[0].Task != i {
				t.Fatalf("acked batch %d at seq %d replays as %+v", i, seq, r)
			}
		}
	}
}

// TestLogGroupCommitSyncFailure: one fsync covers every record written
// before it starts, so when it fails, every caller waiting on one of
// those records fails with it. The log is then failed: no later SyncTo,
// Sync, Write or Append reports success, even for a record synced
// before the failure and after the fault clears.
func TestLogGroupCommitSyncFailure(t *testing.T) {
	ffs := NewFaultFS(OSFS{})
	gfs := newGateFS(ffs)
	l := openTestLog(t, gfs, t.TempDir(), Options{Fsync: FsyncAlways})
	first, err := l.Append(testBatch(0))
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	for i := 1; i <= 3; i++ {
		seq, err := l.Write(testBatch(i))
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	boom := errors.New("injected sync failure")
	ffs.SetSyncError(boom)
	before := gfs.syncs.Load()
	errs := make([]error, len(seqs))
	var wg sync.WaitGroup
	for i, seq := range seqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = l.SyncTo(seq)
		}()
	}
	wg.Wait()
	if n := gfs.syncs.Load() - before; n != 1 {
		t.Fatalf("%d fsyncs for three waiting writes, want one shared fsync", n)
	}
	for i, err := range errs {
		if !errors.Is(err, boom) || !errors.Is(err, ErrLogFailed) {
			t.Fatalf("waiter on seq %d: %v, want the injected failure and ErrLogFailed", seqs[i], err)
		}
	}
	ffs.SetSyncError(nil)
	for _, seq := range []uint64{first, seqs[0], seqs[2]} {
		if err := l.SyncTo(seq); !errors.Is(err, ErrLogFailed) {
			t.Fatalf("SyncTo(%d) after the failed fsync: %v, want ErrLogFailed", seq, err)
		}
	}
	if err := l.Sync(); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("Sync after the failed fsync: %v, want ErrLogFailed", err)
	}
	if _, err := l.Write(testBatch(4)); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("Write after the failed fsync: %v, want ErrLogFailed", err)
	}
	if _, err := l.Append(testBatch(4)); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("Append after the failed fsync: %v, want ErrLogFailed", err)
	}
}

// TestLogRotationWaitsForSyncInFlight: a Write that rotates the segment
// an fsync is still syncing waits for that fsync before it closes the
// segment, and both calls then succeed; the records replay after a
// reopen from the two segments.
func TestLogRotationWaitsForSyncInFlight(t *testing.T) {
	dir := t.TempDir()
	// One record of testBatch fits a segment; the second rotates.
	opts := Options{SegmentSize: segHeaderLen + int64(len(EncodeRecord(Record{Seq: 1, Responses: testBatch(0)}))), Fsync: FsyncAlways}
	gfs := newGateFS(OSFS{})
	l := openTestLog(t, gfs, dir, opts)
	seq1, err := l.Write(testBatch(0))
	if err != nil {
		t.Fatal(err)
	}
	gfs.armed.Store(true)
	synced := make(chan error, 1)
	go func() { synced <- l.SyncTo(seq1) }()
	<-gfs.entered

	type written struct {
		seq uint64
		err error
	}
	wrote := make(chan written, 1)
	go func() {
		seq, err := l.Write(testBatch(1))
		wrote <- written{seq, err}
	}()
	select {
	case w := <-wrote:
		t.Fatalf("a rotating Write returned (seq %d, %v) while the segment's fsync was in flight", w.seq, w.err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gfs.release)
	if err := <-synced; err != nil {
		t.Fatalf("SyncTo(%d) across the rotation: %v", seq1, err)
	}
	w := <-wrote
	if w.err != nil || w.seq != seq1+1 {
		t.Fatalf("rotating Write: seq %d, %v", w.seq, w.err)
	}
	if err := l.SyncTo(w.seq); err != nil {
		t.Fatal(err)
	}
	if len(l.segments) != 2 {
		t.Fatalf("%d segments, want the second Write to have rotated", len(l.segments))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs := collect(t, openTestLog(t, OSFS{}, dir, opts), 1)
	if len(recs) != 2 || recs[0].Responses[0].Task != 0 || recs[1].Responses[0].Task != 1 {
		t.Fatalf("replayed %+v, want the two batches in order", recs)
	}
}
