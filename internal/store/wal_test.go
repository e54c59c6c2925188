package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crowdassess/internal/crowd"
)

func testBatch(i int) []Response {
	return []Response{
		{Worker: i % 5, Task: i, Answer: crowd.Yes},
		{Worker: (i + 1) % 5, Task: i, Answer: crowd.No},
	}
}

func openTestLog(t *testing.T, fsys FS, dir string, opts Options) *DiskLog {
	t.Helper()
	l, err := OpenLog(fsys, dir, opts)
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// collect replays the whole log into a slice.
func collect(t *testing.T, l *DiskLog, from uint64) []Record {
	t.Helper()
	var recs []Record
	if err := l.Replay(from, func(r Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return recs
}

func TestLogAppendReplayAcrossRotations(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force many rotations.
	opts := Options{SegmentSize: 128, Fsync: FsyncAlways}
	l := openTestLog(t, OSFS{}, dir, opts)
	const n = 50
	for i := 0; i < n; i++ {
		seq, err := l.Append(testBatch(i))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append %d assigned seq %d", i, seq)
		}
	}
	recs := collect(t, l, 1)
	if len(recs) != n {
		t.Fatalf("replayed %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) || r.Responses[0].Task != i {
			t.Fatalf("record %d: %+v", i, r)
		}
	}
	names, _ := OSFS{}.ReadDir(dir)
	segs := 0
	for _, name := range names {
		if _, ok := parseSegName(name); ok {
			segs++
		}
	}
	if segs < 3 {
		t.Fatalf("expected multiple segments, have %d", segs)
	}
	// Reopen: same contents, appends continue from the same counter.
	l.Close()
	l2 := openTestLog(t, OSFS{}, dir, opts)
	if l2.LastSeq() != n {
		t.Fatalf("reopened LastSeq = %d, want %d", l2.LastSeq(), n)
	}
	if got := collect(t, l2, 1); len(got) != n {
		t.Fatalf("reopened replay has %d records", len(got))
	}
	if seq, err := l2.Append(testBatch(n)); err != nil || seq != n+1 {
		t.Fatalf("append after reopen: seq=%d err=%v", seq, err)
	}
	// Replay-from filters are exact.
	if tail := collect(t, l2, n); len(tail) != 2 {
		t.Fatalf("tail replay from %d has %d records, want 2", n, len(tail))
	}
}

func TestLogRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentSize: 1 << 20, Fsync: FsyncAlways}
	l := openTestLog(t, OSFS{}, dir, opts)
	for i := 0; i < 10; i++ {
		if _, err := l.Append(testBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Tear the last frame: chop 3 bytes off the single segment.
	names, _ := OSFS{}.ReadDir(dir)
	var seg string
	for _, name := range names {
		if _, ok := parseSegName(name); ok {
			seg = filepath.Join(dir, name)
		}
	}
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	l2 := openTestLog(t, OSFS{}, dir, opts)
	if l2.LastSeq() != 9 {
		t.Fatalf("after torn tail LastSeq = %d, want 9", l2.LastSeq())
	}
	if l2.Recovery().TruncatedBytes == 0 {
		t.Fatal("recovery reported no truncated bytes")
	}
	if got := collect(t, l2, 1); len(got) != 9 {
		t.Fatalf("replay has %d records, want 9", len(got))
	}
	// The log stays appendable; record 10 gets seq 10 again.
	if seq, err := l2.Append(testBatch(9)); err != nil || seq != 10 {
		t.Fatalf("append after recovery: seq=%d err=%v", seq, err)
	}
}

func TestLogRecoveryDropsSegmentsAfterCorruption(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentSize: 128, Fsync: FsyncAlways}
	l := openTestLog(t, OSFS{}, dir, opts)
	for i := 0; i < 30; i++ {
		if _, err := l.Append(testBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	names, _ := OSFS{}.ReadDir(dir)
	var segs []string
	for _, name := range names {
		if _, ok := parseSegName(name); ok {
			segs = append(segs, name)
		}
	}
	// Fixed-width segment names make ReadDir's lexicographic order the
	// sequence order — relied on here and pinned by this assertion.
	for i := 1; i < len(segs); i++ {
		a, _ := parseSegName(segs[i-1])
		b, _ := parseSegName(segs[i])
		if a >= b {
			t.Fatalf("segment names out of sequence order: %v", segs)
		}
	}
	if len(segs) < 3 {
		t.Fatalf("need ≥3 segments, have %d", len(segs))
	}
	// Flip a byte in the middle of the second segment's record area.
	victim := filepath.Join(dir, segs[1])
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[segHeaderLen+10] ^= 0xff
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := openTestLog(t, OSFS{}, dir, opts)
	recs := collect(t, l2, 1)
	if len(recs) == 0 || len(recs) >= 30 {
		t.Fatalf("replay has %d records, want a strict prefix", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}
	if l2.Recovery().DroppedSegments == 0 {
		t.Fatal("recovery reported no dropped segments")
	}
	if l2.LastSeq() != uint64(len(recs)) {
		t.Fatalf("LastSeq %d != %d replayed records", l2.LastSeq(), len(recs))
	}
	// Later segment files are gone from disk.
	after, _ := OSFS{}.ReadDir(dir)
	for _, name := range after {
		if name == segs[len(segs)-1] {
			t.Fatalf("segment %s survived past the corruption point", name)
		}
	}
}

func TestLogTruncateBeforeKeepsNewestSegment(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentSize: 128, Fsync: FsyncAlways}
	l := openTestLog(t, OSFS{}, dir, opts)
	for i := 0; i < 30; i++ {
		if _, err := l.Append(testBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	last := l.LastSeq()
	if err := l.TruncateBefore(last + 1); err != nil {
		t.Fatalf("TruncateBefore: %v", err)
	}
	names, _ := OSFS{}.ReadDir(dir)
	segs := 0
	for _, name := range names {
		if _, ok := parseSegName(name); ok {
			segs++
		}
	}
	if segs != 1 {
		t.Fatalf("%d segments survive full truncation, want exactly the newest", segs)
	}
	// Replay from the snapshot point yields nothing; the counter survives
	// a reopen because the newest segment was retained.
	if tail := collect(t, l, last+1); len(tail) != 0 {
		t.Fatalf("tail replay has %d records", len(tail))
	}
	l.Close()
	l2 := openTestLog(t, OSFS{}, dir, opts)
	if l2.LastSeq() != last {
		t.Fatalf("reopened LastSeq = %d, want %d", l2.LastSeq(), last)
	}
	if seq, err := l2.Append(testBatch(30)); err != nil || seq != last+1 {
		t.Fatalf("append after truncate+reopen: seq=%d err=%v", seq, err)
	}
}

// TestLogManualSync: under FsyncNever an append never fsyncs — it lands
// even while every sync would fail — and leaves the segment dirty; Sync
// then forces it to stable storage, and reports a sync failure.
func TestLogManualSync(t *testing.T) {
	ffs := NewFaultFS(OSFS{})
	l := openTestLog(t, ffs, t.TempDir(), Options{Fsync: FsyncNever})
	boom := errors.New("injected sync failure")
	ffs.SetSyncError(boom)
	if _, err := l.Append(testBatch(0)); err != nil {
		t.Fatalf("append under FsyncNever reached a sync: %v", err)
	}
	if l.synced == l.lastSeq {
		t.Fatal("append under FsyncNever should leave the segment dirty")
	}
	if err := l.Sync(); !errors.Is(err, boom) {
		t.Fatalf("manual Sync with a failing fsync: %v, want the injected failure", err)
	}

	l = openTestLog(t, OSFS{}, t.TempDir(), Options{Fsync: FsyncNever})
	if _, err := l.Append(testBatch(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if l.synced != l.lastSeq {
		t.Fatal("manual Sync should clear dirty")
	}
}

func TestLogAppendRejectsEmptyBatch(t *testing.T) {
	l := openTestLog(t, OSFS{}, t.TempDir(), Options{})
	if _, err := l.Append(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}

func TestLogAppendSplitsOversizedBatch(t *testing.T) {
	// A batch whose single-record encoding exceeds maxRecordPayload.
	// DecodeRecord rejects such frames as corrupt, so journaling one
	// unsplit would make the next recovery silently truncate acked data —
	// the append path must keep every frame it writes under the bound.
	batch := make([]Response, maxBatchResponses+3)
	for i := range batch {
		// Large indices and a two-byte answer give the worst-case 12-byte
		// encoding the chunk bound is derived from.
		batch[i] = Response{Worker: maxInt31, Task: maxInt31, Answer: crowd.Response(128 + i%128)}
	}
	if n := len(encodeBatchPayload(nil, batch)); n <= maxRecordPayload {
		t.Fatalf("test batch encodes to %d bytes, want > %d", n, maxRecordPayload)
	}

	dir := t.TempDir()
	opts := Options{Fsync: FsyncNever}
	l := openTestLog(t, OSFS{}, dir, opts)
	seq, err := l.Append(batch)
	if err != nil {
		t.Fatalf("oversized batch append: %v", err)
	}
	if seq != 2 {
		t.Fatalf("oversized batch assigned last seq %d, want 2 (split into two records)", seq)
	}
	check := func(l *DiskLog) {
		t.Helper()
		recs := collect(t, l, 1)
		var got []Response
		for i, r := range recs {
			if r.Seq != uint64(i+1) {
				t.Fatalf("record %d has seq %d", i, r.Seq)
			}
			if n := len(encodeBatchPayload(nil, r.Responses)); n > maxRecordPayload {
				t.Fatalf("record %d payload is %d bytes, above the decode bound", i, n)
			}
			got = append(got, r.Responses...)
		}
		if len(got) != len(batch) {
			t.Fatalf("replayed %d responses, want %d", len(got), len(batch))
		}
		for i := range got {
			if got[i] != batch[i] {
				t.Fatalf("response %d replayed as %+v, want %+v", i, got[i], batch[i])
			}
		}
	}
	check(l)
	l.Close()
	// The decisive half: reopen-time recovery must accept every frame
	// rather than treating the batch as corruption.
	l2 := openTestLog(t, OSFS{}, dir, opts)
	if info := l2.Recovery(); info.TruncatedBytes != 0 || info.DroppedSegments != 0 {
		t.Fatalf("recovery repaired a healthy log: %+v", info)
	}
	if l2.LastSeq() != 2 {
		t.Fatalf("reopened LastSeq = %d, want 2", l2.LastSeq())
	}
	check(l2)
}

func TestLogAppendRejectsUnjournalableResponses(t *testing.T) {
	// Fields the decoder would refuse must be rejected before they reach
	// disk: a journaled-but-undecodable record reads back as corruption
	// and truncates the log there on recovery.
	l := openTestLog(t, OSFS{}, t.TempDir(), Options{})
	bad := [][]Response{
		{{Worker: -1, Task: 0, Answer: crowd.Yes}},
		{{Worker: 0, Task: -3, Answer: crowd.Yes}},
		{{Worker: 0, Task: 0, Answer: crowd.None}},
		{{Worker: 0, Task: 0, Answer: crowd.Response(300)}},
	}
	for i, batch := range bad {
		if _, err := l.Append(batch); err == nil {
			t.Fatalf("case %d: undecodable batch journaled", i)
		}
	}
	if l.LastSeq() != 0 {
		t.Fatalf("rejected batches advanced the sequence counter to %d", l.LastSeq())
	}
	if seq, err := l.Append(testBatch(0)); err != nil || seq != 1 {
		t.Fatalf("valid append after rejections: seq=%d err=%v", seq, err)
	}
}

func TestLogRecoverySyncsTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentSize: 1 << 20, Fsync: FsyncAlways}
	l := openTestLog(t, OSFS{}, dir, opts)
	for i := 0; i < 10; i++ {
		if _, err := l.Append(testBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	names, _ := OSFS{}.ReadDir(dir)
	var seg string
	for _, name := range names {
		if _, ok := parseSegName(name); ok {
			seg = filepath.Join(dir, name)
		}
	}
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	// Recovery must fsync the cut before the log accepts new appends, and
	// a failing sync has to surface — a truncation living only in the page
	// cache can resurface after power loss, underneath records acked since.
	ffs := NewFaultFS(OSFS{})
	ffs.SetSyncError(errors.New("injected sync failure"))
	if _, err := OpenLog(ffs, dir, opts); err == nil || !strings.Contains(err.Error(), "sync truncated segment") {
		t.Fatalf("recovery with unsyncable truncation: %v, want surfaced sync failure", err)
	}
	ffs.SetSyncError(nil)
	l2 := openTestLog(t, ffs, dir, opts)
	if l2.LastSeq() != 9 {
		t.Fatalf("recovered LastSeq = %d, want 9", l2.LastSeq())
	}
}

func TestLogSegmentCreateFailureIsRetryable(t *testing.T) {
	ffs := NewFaultFS(OSFS{})
	dir := t.TempDir()
	l := openTestLog(t, ffs, dir, Options{Fsync: FsyncAlways})
	// Fail the very first write — the new segment's header. The partial
	// O_EXCL-created file must not survive to wedge every retry on a
	// misleading "file exists".
	ffs.SetWriteBudget(5, FaultENOSPC)
	if _, err := l.Append(testBatch(0)); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("append with failing header write: %v, want ErrNoSpace", err)
	}
	ffs.SetWriteBudget(-1, FaultNone)
	seq, err := l.Append(testBatch(0))
	if err != nil || seq != 1 {
		t.Fatalf("retry after header write failure: seq=%d err=%v", seq, err)
	}
	if got := collect(t, l, 1); len(got) != 1 {
		t.Fatalf("replay has %d records, want 1", len(got))
	}
}

func TestLogENOSPCFailsClosed(t *testing.T) {
	ffs := NewFaultFS(OSFS{})
	dir := t.TempDir()
	l := openTestLog(t, ffs, dir, Options{Fsync: FsyncAlways})
	if _, err := l.Append(testBatch(0)); err != nil {
		t.Fatal(err)
	}
	ffs.SetWriteBudget(5, FaultENOSPC)
	if _, err := l.Append(testBatch(1)); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("append on full disk: %v, want ErrNoSpace", err)
	}
	// The torn frame poisons the handle until reopened.
	ffs.SetWriteBudget(-1, FaultNone)
	if _, err := l.Append(testBatch(2)); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("append after write error: %v, want ErrLogFailed", err)
	}
	l.Close()
	// Recovery truncates the torn frame; only the acked record survives.
	l2 := openTestLog(t, ffs, dir, Options{Fsync: FsyncAlways})
	if l2.LastSeq() != 1 {
		t.Fatalf("recovered LastSeq = %d, want 1", l2.LastSeq())
	}
}

func TestLogCrashAtOffsetLosesNoAckedRecords(t *testing.T) {
	ffs := NewFaultFS(OSFS{})
	dir := t.TempDir()
	opts := Options{SegmentSize: 256, Fsync: FsyncAlways}
	l := openTestLog(t, ffs, dir, opts)
	// Arm a crash somewhere mid-stream, then append until it fires.
	ffs.SetWriteBudget(700, FaultCrash)
	acked := 0
	for i := 0; i < 1000; i++ {
		if _, err := l.Append(testBatch(i)); err != nil {
			if !errors.Is(err, ErrCrashed) {
				t.Fatalf("append %d failed with %v, want ErrCrashed", i, err)
			}
			break
		}
		acked++
	}
	if acked == 0 || acked == 1000 {
		t.Fatalf("crash never fired usefully (acked %d)", acked)
	}
	l.Close()

	// "Restart": the torn bytes stay on disk exactly as the crash left
	// them; recovery must surface every acked record and nothing after.
	ffs.Revive()
	l2 := openTestLog(t, ffs, dir, opts)
	recs := collect(t, l2, 1)
	if len(recs) != acked {
		t.Fatalf("recovered %d records, acked %d", len(recs), acked)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) || r.Responses[0].Task != i {
			t.Fatalf("record %d corrupted by recovery: %+v", i, r)
		}
	}
}

func TestSnapshotsSaveLatestAndPrune(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSnapshots(OSFS{}, dir, Options{KeepSnapshots: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Latest(); ok || err != nil {
		t.Fatalf("empty store: ok=%v err=%v", ok, err)
	}
	for seq := uint64(10); seq <= 40; seq += 10 {
		if err := s.Save(seq, []byte{byte(seq)}); err != nil {
			t.Fatalf("save %d: %v", seq, err)
		}
	}
	snap, ok, err := s.Latest()
	if err != nil || !ok || snap.Seq != 40 || !bytes.Equal(snap.Payload, []byte{40}) {
		t.Fatalf("latest: %+v ok=%v err=%v", snap, ok, err)
	}
	names, _ := OSFS{}.ReadDir(dir)
	kept := 0
	for _, name := range names {
		if _, ok := parseSnapName(name); ok {
			kept++
		}
	}
	if kept != 2 {
		t.Fatalf("%d snapshots kept, want 2", kept)
	}
}

func TestSnapshotsLatestSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSnapshots(OSFS{}, dir, Options{KeepSnapshots: 3})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := s.Save(seq, []byte{byte(seq)}); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt the newest: Latest must fall back to seq 2, not error out.
	newest := filepath.Join(dir, snapName(3))
	data, _ := os.ReadFile(newest)
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, ok, err := s.Latest()
	if err != nil || !ok || snap.Seq != 2 {
		t.Fatalf("latest after corruption: %+v ok=%v err=%v", snap, ok, err)
	}
	// Corrupt all: candidates exist, none valid → ok=false with an error.
	for seq := uint64(1); seq <= 2; seq++ {
		p := filepath.Join(dir, snapName(seq))
		if err := os.WriteFile(p, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, err := s.Latest(); ok || err == nil {
		t.Fatalf("all-corrupt store: ok=%v err=%v, want ok=false with error", ok, err)
	}
}

func TestStoreRecoverSnapshotPlusTail(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentSize: 256, Fsync: FsyncAlways}
	st, err := Open(OSFS{}, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := st.Log.Append(testBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot at seq 12, compact the prefix.
	if err := st.Snapshots.Save(12, []byte("state@12")); err != nil {
		t.Fatal(err)
	}
	if err := st.Log.TruncateBefore(13); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := Open(OSFS{}, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	var restored []byte
	var tail []uint64
	err = st2.Recover(
		func(s Snapshot) error { restored = s.Payload; return nil },
		func(r Record) error { tail = append(tail, r.Seq); return nil },
	)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if string(restored) != "state@12" {
		t.Fatalf("restored payload %q", restored)
	}
	if len(tail) != 8 || tail[0] != 13 || tail[len(tail)-1] != 20 {
		t.Fatalf("tail replay %v, want seqs 13..20", tail)
	}
}

func TestStoreRecoverRefusesLostPrefix(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentSize: 256, Fsync: FsyncAlways}
	st, err := Open(OSFS{}, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := st.Log.Append(testBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Snapshots.Save(12, []byte("state@12")); err != nil {
		t.Fatal(err)
	}
	if err := st.Log.TruncateBefore(13); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// Destroy every snapshot: the log alone no longer covers seqs 1..12.
	names, _ := OSFS{}.ReadDir(dir)
	for _, name := range names {
		if _, ok := parseSnapName(name); ok {
			if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	st2, err := Open(OSFS{}, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	err = st2.Recover(func(Snapshot) error { return nil }, func(Record) error { return nil })
	if err == nil {
		t.Fatal("recovery served partial state")
	}
}

func TestWriteFileAtomicSyncsParentDir(t *testing.T) {
	ffs := NewFaultFS(OSFS{})
	dir := t.TempDir()
	path := filepath.Join(dir, "target")
	if err := WriteFileAtomic(ffs, path, []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "payload" {
		t.Fatalf("read back: %q err=%v", got, err)
	}
	// A failing directory fsync must surface: rename alone is not durable.
	ffs.SetSyncError(errors.New("injected dir sync failure"))
	err = WriteFileAtomic(ffs, path, []byte("v2"), 0o644)
	if err == nil || !strings.Contains(err.Error(), "sync") {
		t.Fatalf("dir sync failure swallowed: %v", err)
	}
}
