package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"crowdassess/internal/obs"
)

// FsyncPolicy selects when appends reach stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every append: an acked batch survives
	// power loss. The safest and slowest policy.
	FsyncAlways FsyncPolicy = iota
	// FsyncNever performs no fsync at all — process crashes lose nothing
	// (the OS still has the writes), machine crashes lose the page cache.
	FsyncNever
)

// Options configures the disk-backed engine.
type Options struct {
	// SegmentSize rotates the active segment once it exceeds this many
	// bytes (default 4 MiB).
	SegmentSize int64
	// Fsync selects the append durability policy (default FsyncAlways).
	Fsync FsyncPolicy
	// KeepSnapshots bounds how many snapshot generations Save retains
	// (default 2: the newest plus one fallback).
	KeepSnapshots int
	// Obs, when set, wires the engine into an observability registry:
	// append/fsync/snapshot latency histograms and segment/truncation
	// counters (see internal/obs). Nil disables instrumentation; the
	// engine never makes a decision from these readings.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.SegmentSize <= 0 {
		o.SegmentSize = 4 << 20
	}
	if o.KeepSnapshots <= 0 {
		o.KeepSnapshots = 2
	}
	return o
}

// Segment files: wal-<firstSeq as %016x>.seg, a 17-byte self-checking
// header followed by framed records. The header pins the first sequence
// number the segment may contain, cross-checked against the filename.
const (
	segMagic     = "CAWL"
	segVersion   = 1
	segHeaderLen = 4 + 1 + 8 + 4 // magic + version + firstSeq + CRC
	segPrefix    = "wal-"
	segSuffix    = ".seg"
)

// ErrLogFailed reports an append after a prior write error: the segment
// tail is in an unknown state, so the log refuses to interleave more
// frames. Reopen the log to run recovery.
var ErrLogFailed = errors.New("store: log failed; reopen to recover")

// ErrClosed reports use after Close.
var ErrClosed = errors.New("store: closed")

// RecoveryInfo summarizes what OpenLog had to repair.
type RecoveryInfo struct {
	// TruncatedBytes is how many trailing bytes were cut from a torn or
	// corrupt segment.
	TruncatedBytes int64
	// DroppedSegments counts segments discarded because they followed a
	// corruption point (or were empty leftovers of an interrupted
	// rotation).
	DroppedSegments int
}

type segInfo struct {
	name  string
	first uint64
}

// DiskLog is the write-ahead journal the ingest path appends to before
// acking, on local disk. Sequence numbers are assigned contiguously
// starting at 1; replay filters on them, so re-applying a tail that
// overlaps an already-restored snapshot is idempotent by construction.
// All methods are safe for concurrent use.
type DiskLog struct {
	fsys    FS
	dir     string
	opts    Options
	metrics *storeMetrics // nil when Options.Obs is unset

	mu       sync.Mutex
	segments []segInfo // on-disk segments, ascending; includes the active one
	seg      File      // active segment handle, nil until first append
	segSize  int64
	lastSeq  uint64 // highest sequence number written
	synced   uint64 // highest sequence number an fsync covered
	failed   bool
	syncErr  error // the fsync failure that failed the log, if one did
	closed   bool
	recovery RecoveryInfo

	// syncing is set while an fsync of seg runs outside mu; syncDone,
	// on mu, is broadcast when it ends. Nothing closes or replaces seg
	// while syncing is set.
	syncing  bool
	syncDone sync.Cond
}

func segName(first uint64) string {
	// Fixed-width hex so lexicographic directory order is sequence order.
	return segPrefix + fmt.Sprintf("%016x", first) + segSuffix
}

// parseSegName returns the first-seq encoded in a segment filename.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	hex := name[len(segPrefix) : len(name)-len(segSuffix)]
	if hex == "" {
		return 0, false
	}
	first, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return first, true
}

func encodeSegHeader(first uint64) []byte {
	hdr := make([]byte, 0, segHeaderLen)
	hdr = append(hdr, segMagic...)
	hdr = append(hdr, segVersion)
	hdr = binary.LittleEndian.AppendUint64(hdr, first)
	return binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(hdr, castagnoli))
}

// decodeSegHeader validates a segment header and returns its first-seq.
func decodeSegHeader(b []byte) (uint64, error) {
	if len(b) < segHeaderLen {
		return 0, fmt.Errorf("%w: truncated segment header", ErrCorrupt)
	}
	if string(b[:4]) != segMagic {
		return 0, fmt.Errorf("%w: bad segment magic", ErrCorrupt)
	}
	want := binary.LittleEndian.Uint32(b[13:17])
	if got := crc32.Checksum(b[:13], castagnoli); got != want {
		return 0, fmt.Errorf("%w: segment header CRC mismatch", ErrCorrupt)
	}
	if v := b[4]; v != segVersion {
		return 0, fmt.Errorf("store: segment version %d not supported (max %d)", v, segVersion)
	}
	return binary.LittleEndian.Uint64(b[5:13]), nil
}

// OpenLog opens (or creates) the WAL in dir, running recovery: segments
// are scanned in sequence order, the first corrupt or torn record
// truncates the log at the last valid frame, and any segments past the
// corruption point are dropped. A log that lost its tail is still a valid
// log — exactly the prefix that was durable — which is the contract the
// ack path relies on.
func OpenLog(fsys FS, dir string, opts Options) (*DiskLog, error) {
	opts = opts.withDefaults()
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create wal dir: %w", err)
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: list wal dir: %w", err)
	}
	var segs []segInfo
	for _, name := range names {
		if first, ok := parseSegName(name); ok {
			segs = append(segs, segInfo{name: name, first: first})
		}
	}
	// ReadDir sorts lexicographically; fixed-width hex makes that sequence
	// order, but sort defensively on the parsed value anyway.
	for i := 1; i < len(segs); i++ {
		for j := i; j > 0 && segs[j-1].first > segs[j].first; j-- {
			segs[j-1], segs[j] = segs[j], segs[j-1]
		}
	}

	l := &DiskLog{fsys: fsys, dir: dir, opts: opts, metrics: newStoreMetrics(opts.Obs)}
	l.syncDone.L = &l.mu
	if err := l.recover(segs); err != nil {
		return nil, err
	}
	return l, nil
}

// recover scans segments in order, enforcing header validity, sequence
// continuity and per-record CRCs. The first violation truncates the log
// there: the offending segment is cut back to its valid prefix (removed
// entirely if nothing valid remains) and all later segments are dropped.
func (l *DiskLog) recover(segs []segInfo) error {
	lastSeq := uint64(0)
	mutated := false // any truncate/remove needs a directory fsync to stick
	for i := 0; i < len(segs); i++ {
		s := segs[i]
		path := filepath.Join(l.dir, s.name)
		data, err := l.fsys.ReadFile(path)
		if err != nil {
			return fmt.Errorf("store: read segment %s: %w", s.name, err)
		}
		valid := int64(0)
		segErr := func() error {
			first, err := decodeSegHeader(data)
			if err != nil {
				return err
			}
			if first != s.first {
				return fmt.Errorf("%w: segment %s header claims first seq %d", ErrCorrupt, s.name, first)
			}
			if i > 0 || lastSeq != 0 {
				if first != lastSeq+1 {
					return fmt.Errorf("%w: segment %s breaks sequence continuity (have %d, expect %d)", ErrCorrupt, s.name, first, lastSeq+1)
				}
			} else {
				// The oldest surviving segment defines where the log
				// starts (earlier ones were truncated away after
				// snapshots).
				lastSeq = first - 1
			}
			valid = segHeaderLen
			rest := data[segHeaderLen:]
			for len(rest) > 0 {
				rec, n, err := DecodeRecord(rest)
				if err != nil {
					return err
				}
				if rec.Seq != lastSeq+1 {
					return fmt.Errorf("%w: record seq %d breaks continuity (expect %d)", ErrCorrupt, rec.Seq, lastSeq+1)
				}
				lastSeq = rec.Seq
				valid += int64(n)
				rest = rest[n:]
			}
			return nil
		}()
		if segErr == nil && valid > segHeaderLen {
			continue
		}
		// Corruption, a torn tail, or an empty segment. Cut this segment
		// back to its valid prefix — or drop it entirely if no records
		// survive — and drop everything after it.
		if segErr != nil && !errors.Is(segErr, ErrCorrupt) {
			return segErr // unsupported version, IO error: surface, don't destroy
		}
		if valid > segHeaderLen {
			l.recovery.TruncatedBytes += int64(len(data)) - valid
			if err := l.fsys.Truncate(path, valid); err != nil {
				return fmt.Errorf("store: truncate torn segment %s: %w", s.name, err)
			}
			// The cut must be durable before any new appends: if it only
			// lives in the page cache and power is lost after fresh
			// records were acked, the tear resurfaces and the next
			// recovery truncates there — deleting the segments that held
			// the acked records.
			if l.opts.Fsync != FsyncNever {
				if err := l.fsys.SyncFile(path); err != nil {
					return fmt.Errorf("store: sync truncated segment %s: %w", s.name, err)
				}
			}
			mutated = true
			segs = segs[:i+1]
		} else {
			if err := l.fsys.Remove(path); err != nil {
				return fmt.Errorf("store: remove unusable segment %s: %w", s.name, err)
			}
			l.recovery.DroppedSegments++
			mutated = true
			segs = segs[:i]
		}
		// Everything after the truncation point is dropped below: with the
		// log ending here, later segments' records would open a sequence
		// gap.
		break
	}
	// Remove any segments past the retained prefix (they followed a
	// corruption point).
	keep := make(map[string]bool, len(segs))
	for _, s := range segs {
		keep[s.name] = true
	}
	all, err := l.fsys.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("store: list wal dir: %w", err)
	}
	for _, name := range all {
		if _, ok := parseSegName(name); ok && !keep[name] {
			if err := l.fsys.Remove(filepath.Join(l.dir, name)); err != nil {
				return fmt.Errorf("store: remove orphaned segment %s: %w", name, err)
			}
			l.recovery.DroppedSegments++
			mutated = true
		}
	}
	if mutated && l.opts.Fsync != FsyncNever {
		if err := l.fsys.SyncDir(l.dir); err != nil {
			return fmt.Errorf("store: sync wal dir: %w", err)
		}
	}
	l.segments = segs
	l.lastSeq, l.synced = lastSeq, lastSeq
	return nil
}

// Recovery reports what OpenLog repaired.
func (l *DiskLog) Recovery() RecoveryInfo { return l.recovery }

// Dir returns the directory the log lives in.
func (l *DiskLog) Dir() string { return l.dir }

// LastSeq returns the highest sequence number ever written (0 if none).
func (l *DiskLog) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// Append journals one accepted batch and returns its sequence number:
// Write, then SyncTo that number, for callers that hold no lock of their
// own across the call. When it returns nil under FsyncAlways, the batch is
// on stable storage; under FsyncNever it survives a process crash but not
// a machine crash.
func (l *DiskLog) Append(responses []Response) (uint64, error) {
	seq, err := l.Write(responses)
	if err != nil {
		return 0, err
	}
	if err := l.SyncTo(seq); err != nil {
		return 0, err
	}
	return seq, nil
}

// Write journals one accepted batch without waiting for stable storage
// and returns its sequence number. Records are written in sequence order,
// so a caller that serializes its Writes under its own lock fixes the
// journal's order without holding that lock through an fsync. A batch
// whose encoded payload would exceed maxRecordPayload — which
// DecodeRecord rejects as corrupt, so journaling it as one frame would
// turn the next recovery into silent truncation of acked data — is split
// across several records; the returned sequence number is the last one
// assigned, and SyncTo it covers the whole batch. The payloads are
// encoded before the log lock is taken; under it, each is framed with
// its sequence number and written.
func (l *DiskLog) Write(responses []Response) (uint64, error) {
	if len(responses) == 0 {
		return 0, fmt.Errorf("store: refusing to journal an empty batch")
	}
	if err := validateResponses(responses); err != nil {
		return 0, err
	}
	var start time.Time
	if l.metrics != nil {
		start = l.metrics.clock.Now()
	}
	var payloads [][]byte
	size := int64(0) // the framed size of the whole batch
	for rest := toResponses(responses); len(rest) > 0; {
		chunk := rest[:min(len(rest), maxBatchResponses)]
		rest = rest[len(chunk):]
		payloads = append(payloads, encodeBatchPayload(nil, chunk))
		size += recHeaderLen + int64(len(payloads[len(payloads)-1])) + recTrailerLen
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// A rotation closes the active segment, which an fsync in flight
	// still uses, so a batch that may rotate waits for that fsync first.
	// Once it has, no fsync can start until the batch is written.
	for l.syncing && !l.closed && !l.failed && l.segSize+size > l.opts.SegmentSize {
		l.syncDone.Wait()
	}
	switch {
	case l.closed:
		return 0, ErrClosed
	case l.failed:
		return 0, l.failedErr()
	}
	var appendedBytes uint64
	seq := l.lastSeq
	for _, payload := range payloads {
		seq++
		frame := appendRecord(nil, seq, recBatch, payload)
		if err := l.ensureSegmentLocked(int64(len(frame))); err != nil {
			return 0, err
		}
		if _, err := l.seg.Write(frame); err != nil {
			// The frame may be half on disk; recovery will truncate it,
			// but appending more frames after a torn one would bury
			// valid-looking garbage mid-log.
			l.failed = true
			return 0, fmt.Errorf("store: append record %d: %w", seq, err)
		}
		l.segSize += int64(len(frame))
		appendedBytes += uint64(len(frame))
		// Advance per frame so a mid-batch rotation names the next
		// segment after the records already written.
		l.lastSeq = seq
	}
	if m := l.metrics; m != nil {
		m.appendSec.Observe(m.clock.Since(start).Seconds())
		m.appendBytes.Add(appendedBytes)
		m.records.Add(uint64(len(payloads)))
	}
	return seq, nil
}

// SyncTo returns once every record up to seq is as durable as the policy
// makes an Append: on stable storage under FsyncAlways. One fsync covers
// every record written before it started, so concurrent callers share
// fsyncs. Under FsyncNever a written record already is, as far as the
// policy goes, so
// only a failed or closed log is reported. Otherwise the first caller to
// find no fsync in flight runs one, outside the log lock, covering every
// record written so far; callers whose record it covers return when it
// ends, and the rest wait their turn to run the next one. A failed fsync
// fails the log: its waiters, and every later caller, get its error.
func (l *DiskLog) SyncTo(seq uint64) error {
	if l.opts.Fsync == FsyncNever {
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.failed {
			return l.failedErr()
		}
		return nil
	}
	return l.syncTo(seq)
}

// syncTo runs fsyncs until record seq is covered, whatever the policy.
func (l *DiskLog) syncTo(seq uint64) error {
	for {
		f, target, err := l.claimSync(seq)
		if f == nil {
			return err
		}
		l.finishSync(target, l.timedSync(f))
	}
}

// claimSync waits out any fsync in flight, then reports seq's fate, or
// claims the next fsync: it returns the segment to sync and the last
// record that fsync covers. A nil segment means the caller is done, with
// the returned error.
func (l *DiskLog) claimSync(seq uint64) (File, uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.syncing {
		l.syncDone.Wait()
	}
	switch {
	case l.failed:
		return nil, 0, l.failedErr()
	case seq <= l.synced:
		return nil, 0, nil
	case l.closed:
		return nil, 0, ErrClosed
	case seq > l.lastSeq:
		return nil, 0, fmt.Errorf("store: sync to record %d past the last one written, %d", seq, l.lastSeq)
	case l.seg == nil:
		// Only a forced Sync under FsyncNever gets here: a segment is
		// synced when it is closed under the durable policies.
		return nil, 0, nil
	}
	l.syncing = true
	return l.seg, l.lastSeq, nil
}

// finishSync records the outcome of the fsync claimSync claimed, which
// covered every record up to target, and wakes its waiters.
func (l *DiskLog) finishSync(target uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.syncing = false
	l.syncDone.Broadcast()
	if err != nil {
		l.failed = true
		l.syncErr = fmt.Errorf("store: sync record %d: %w", target, err)
		return
	}
	l.synced = max(l.synced, target)
}

// failedErr is what a failed log reports: ErrLogFailed, carrying the
// fsync failure that failed it when one did. The caller holds l.mu.
func (l *DiskLog) failedErr() error {
	if l.syncErr != nil {
		return fmt.Errorf("%w: %w", ErrLogFailed, l.syncErr)
	}
	return ErrLogFailed
}

// toResponses is the identity — Append takes the exported type directly —
// kept as a seam should the journaled form ever diverge from the API form.
func toResponses(rs []Response) []Response { return rs }

// ensureSegmentLocked opens the active segment, rotating first when the
// incoming frame would push it past SegmentSize.
func (l *DiskLog) ensureSegmentLocked(incoming int64) error {
	if l.seg != nil && l.segSize > segHeaderLen && l.segSize+incoming > l.opts.SegmentSize {
		if err := l.closeSegmentLocked(); err != nil {
			l.failed = true
			return err
		}
	}
	if l.seg != nil {
		return nil
	}
	first := l.lastSeq + 1
	name := segName(first)
	path := filepath.Join(l.dir, name)
	f, err := l.fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: create segment %s: %w", name, err)
	}
	// A failure past the O_EXCL create must not leave the partial file
	// behind: it is not tracked in l.segments, so every retry would hit
	// "file exists" — a wedged log with a misleading error. Removing it
	// lets a retry start clean; if even the remove fails, mark the log
	// failed so callers get the canonical reopen-to-recover signal.
	abandon := func(cause error) error {
		f.Close()
		if rerr := l.fsys.Remove(path); rerr != nil {
			l.failed = true
		}
		return cause
	}
	hdr := encodeSegHeader(first)
	if _, err := f.Write(hdr); err != nil {
		return abandon(fmt.Errorf("store: write segment header %s: %w", name, err))
	}
	if l.opts.Fsync != FsyncNever {
		if err := f.Sync(); err != nil {
			return abandon(fmt.Errorf("store: sync segment header %s: %w", name, err))
		}
		if err := l.fsys.SyncDir(l.dir); err != nil {
			return abandon(fmt.Errorf("store: sync wal dir: %w", err))
		}
	}
	l.seg = f
	l.segSize = int64(len(hdr))
	l.segments = append(l.segments, segInfo{name: name, first: first})
	if l.metrics != nil {
		l.metrics.segCreated.Inc()
	}
	return nil
}

// closeSegmentLocked waits out an fsync in flight, then syncs (under
// durable policies) and closes the active segment.
func (l *DiskLog) closeSegmentLocked() error {
	for l.syncing {
		l.syncDone.Wait()
	}
	if l.seg == nil {
		return nil
	}
	if l.synced < l.lastSeq && l.opts.Fsync != FsyncNever {
		if err := l.timedSync(l.seg); err != nil {
			l.seg.Close()
			l.seg = nil
			l.failed = true
			l.syncErr = fmt.Errorf("store: sync segment: %w", err)
			return l.syncErr
		}
		l.synced = l.lastSeq
	}
	err := l.seg.Close()
	l.seg = nil
	l.segSize = 0
	if err != nil {
		return fmt.Errorf("store: close segment: %w", err)
	}
	return nil
}

// Replay streams every record with Seq >= from, in sequence order. It
// holds the log lock for the duration, so appends queue behind it.
func (l *DiskLog) Replay(from uint64, fn func(Record) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	expect := uint64(0)
	for _, s := range l.segments {
		data, err := l.fsys.ReadFile(filepath.Join(l.dir, s.name))
		if err != nil {
			return fmt.Errorf("store: read segment %s: %w", s.name, err)
		}
		first, err := decodeSegHeader(data)
		if err != nil || first != s.first {
			return fmt.Errorf("%w: segment %s header invalid on replay", ErrCorrupt, s.name)
		}
		rest := data[segHeaderLen:]
		for len(rest) > 0 {
			rec, n, err := DecodeRecord(rest)
			if err != nil {
				return fmt.Errorf("store: segment %s: %w", s.name, err)
			}
			if expect != 0 && rec.Seq != expect {
				return fmt.Errorf("%w: segment %s skips from seq %d to %d", ErrCorrupt, s.name, expect-1, rec.Seq)
			}
			expect = rec.Seq + 1
			rest = rest[n:]
			if rec.Seq < from {
				continue
			}
			if err := fn(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// TruncateBefore drops log prefixes wholly below seq — called after a
// snapshot at seq-1 has been made durable. It only removes whole
// segments, so some records below seq may survive; replay's sequence
// filter makes the overlap harmless. The newest segment is always retained even when fully below seq: its
// records carry the log's sequence position, so a crash after truncation
// still reopens with the counter intact (replay's filter makes the stale
// records harmless).
func (l *DiskLog) TruncateBefore(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	cut := 0
	for cut < len(l.segments)-1 {
		// A segment's records end where the next segment starts.
		if l.segments[cut+1].first-1 >= seq {
			break
		}
		cut++
	}
	if cut == 0 {
		return nil
	}
	for _, s := range l.segments[:cut] {
		if err := l.fsys.Remove(filepath.Join(l.dir, s.name)); err != nil {
			return fmt.Errorf("store: remove segment %s: %w", s.name, err)
		}
	}
	l.segments = append([]segInfo(nil), l.segments[cut:]...)
	if l.opts.Fsync != FsyncNever {
		if err := l.fsys.SyncDir(l.dir); err != nil {
			return fmt.Errorf("store: sync wal dir: %w", err)
		}
	}
	if m := l.metrics; m != nil {
		m.truncations.Inc()
		m.segRemoved.Add(uint64(cut))
	}
	return nil
}

// AlignTo advances the log's sequence counter to seq when a restored
// snapshot has outrun the journal — possible only if corruption destroyed
// the tail that produced the snapshot. The surviving segments all lie
// below seq (the snapshot covers them), so they are removed; appending
// fresh records below the snapshot's sequence would make future replays
// silently skip them, which is the one thing a WAL must never do.
func (l *DiskLog) AlignTo(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if seq <= l.lastSeq {
		return nil
	}
	if err := l.closeSegmentLocked(); err != nil {
		return err
	}
	for _, s := range l.segments {
		if err := l.fsys.Remove(filepath.Join(l.dir, s.name)); err != nil {
			return fmt.Errorf("store: remove segment %s: %w", s.name, err)
		}
	}
	if len(l.segments) > 0 && l.opts.Fsync != FsyncNever {
		if err := l.fsys.SyncDir(l.dir); err != nil {
			return fmt.Errorf("store: sync wal dir: %w", err)
		}
	}
	l.segments = nil
	l.lastSeq, l.synced = seq, seq
	return nil
}

// Sync forces every written record to stable storage, whatever the
// policy.
func (l *DiskLog) Sync() error {
	return l.syncTo(l.LastSeq())
}

// Close syncs (under durable policies) and releases the log.
func (l *DiskLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	err := l.closeSegmentLocked()
	l.closed = true
	return err
}
