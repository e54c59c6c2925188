package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// Snapshot is one stored snapshot: the opaque payload plus the WAL
// sequence number it covers — recovery restores the payload and replays
// the log from Seq+1.
type Snapshot struct {
	Seq     uint64
	Payload []byte
}

// Snapshot files: snap-<seq as %016x>.snap —
//
//	"CASN" magic, u8 version, u64le seq, u32le payload length, payload,
//	u32le CRC-32C over everything above.
//
// Files are written atomically (temp + fsync + rename + parent-dir fsync),
// so a crash mid-save leaves the previous generation untouched.
const (
	snapMagic     = "CASN"
	snapVersion   = 1
	snapHeaderLen = 4 + 1 + 8 + 4
	snapPrefix    = "snap-"
	snapSuffix    = ".snap"

	// maxSnapshotPayload bounds what a corrupt length field can demand;
	// matches the transport's snapshot frame class.
	maxSnapshotPayload = 1 << 30
)

// EncodeSnapshotFile frames a snapshot payload for disk.
func EncodeSnapshotFile(seq uint64, payload []byte) []byte {
	b := make([]byte, 0, snapHeaderLen+len(payload)+4)
	b = append(b, snapMagic...)
	b = append(b, snapVersion)
	b = binary.LittleEndian.AppendUint64(b, seq)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// DecodeSnapshotFile validates a snapshot file and returns its contents.
// It never panics on arbitrary input; any deviation — bad magic, wrong
// length, CRC mismatch, trailing bytes — is ErrCorrupt.
func DecodeSnapshotFile(b []byte) (Snapshot, error) {
	if len(b) < snapHeaderLen+4 {
		return Snapshot{}, fmt.Errorf("%w: truncated snapshot file", ErrCorrupt)
	}
	if string(b[:4]) != snapMagic {
		return Snapshot{}, fmt.Errorf("%w: bad snapshot magic", ErrCorrupt)
	}
	payloadLen := int(binary.LittleEndian.Uint32(b[13:17]))
	if payloadLen > maxSnapshotPayload {
		return Snapshot{}, fmt.Errorf("%w: snapshot payload %d exceeds bound", ErrCorrupt, payloadLen)
	}
	total := snapHeaderLen + payloadLen + 4
	if len(b) != total {
		return Snapshot{}, fmt.Errorf("%w: snapshot file is %d bytes, header implies %d", ErrCorrupt, len(b), total)
	}
	want := binary.LittleEndian.Uint32(b[total-4:])
	if got := crc32.Checksum(b[:total-4], castagnoli); got != want {
		return Snapshot{}, fmt.Errorf("%w: snapshot CRC mismatch", ErrCorrupt)
	}
	if v := b[4]; v != snapVersion {
		return Snapshot{}, fmt.Errorf("store: snapshot version %d not supported (max %d)", v, snapVersion)
	}
	return Snapshot{
		Seq:     binary.LittleEndian.Uint64(b[5:13]),
		Payload: append([]byte(nil), b[snapHeaderLen:total-4]...),
	}, nil
}

// DiskSnapshots persists compacted state snapshots on local disk, each
// tagged with the WAL sequence number it covers. The payload is opaque to
// the store — the distributed layer writes its canonical compact-state
// encoding — which keeps this package free of any dependency on what is
// being snapshotted. Safe for concurrent use.
type DiskSnapshots struct {
	fsys    FS
	dir     string
	keep    int
	metrics *storeMetrics // nil when Options.Obs is unset

	mu sync.Mutex
}

// OpenSnapshots opens (or creates) the snapshot directory.
func OpenSnapshots(fsys FS, dir string, opts Options) (*DiskSnapshots, error) {
	opts = opts.withDefaults()
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create snapshot dir: %w", err)
	}
	return &DiskSnapshots{fsys: fsys, dir: dir, keep: opts.KeepSnapshots, metrics: newStoreMetrics(opts.Obs)}, nil
}

func snapName(seq uint64) string {
	return snapPrefix + fmt.Sprintf("%016x", seq) + snapSuffix
}

func parseSnapName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	hex := name[len(snapPrefix) : len(name)-len(snapSuffix)]
	if hex == "" {
		return 0, false
	}
	seq, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// Save durably writes a snapshot covering the log through seq, then
// prunes generations beyond Options.KeepSnapshots.
func (s *DiskSnapshots) Save(seq uint64, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m := s.metrics; m != nil {
		start := m.clock.Now()
		defer func() {
			m.snapSaveSec.Observe(m.clock.Since(start).Seconds())
			m.snapSaved.Inc()
		}()
	}
	path := filepath.Join(s.dir, snapName(seq))
	if err := WriteFileAtomic(s.fsys, path, EncodeSnapshotFile(seq, payload), 0o644); err != nil {
		return err
	}
	// Prune beyond the retention bound, oldest first. Failures here are
	// non-fatal — the new snapshot is already durable — but surfaced so
	// operators notice a directory that only grows.
	names, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: list snapshot dir: %w", err)
	}
	var seqs []uint64
	for _, name := range names {
		if sq, ok := parseSnapName(name); ok {
			seqs = append(seqs, sq)
		}
	}
	if len(seqs) <= s.keep {
		return nil
	}
	// ReadDir's lexicographic order is sequence order for fixed-width hex.
	for _, sq := range seqs[:len(seqs)-s.keep] {
		if err := s.fsys.Remove(filepath.Join(s.dir, snapName(sq))); err != nil {
			return fmt.Errorf("store: prune snapshot %d: %w", sq, err)
		}
		if s.metrics != nil {
			s.metrics.snapPruned.Inc()
		}
	}
	return s.fsys.SyncDir(s.dir)
}

// Latest returns the newest snapshot that passes validation, skipping
// corrupt files (a snapshot with a bad CRC is refused, not trusted). ok is
// false when no valid snapshot exists; err is non-nil only when candidates
// existed but none could be read back cleanly.
func (s *DiskSnapshots) Latest() (Snapshot, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		return Snapshot{}, false, fmt.Errorf("store: list snapshot dir: %w", err)
	}
	var candidates []string
	for _, name := range names {
		if _, ok := parseSnapName(name); ok {
			candidates = append(candidates, name)
		}
	}
	var firstErr error
	for i := len(candidates) - 1; i >= 0; i-- {
		data, err := s.fsys.ReadFile(filepath.Join(s.dir, candidates[i]))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		snap, err := DecodeSnapshotFile(data)
		if err != nil {
			// Corrupt or torn: refuse it and fall back to the previous
			// generation rather than trusting a bad CRC.
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		return snap, true, nil
	}
	if len(candidates) == 0 {
		return Snapshot{}, false, nil
	}
	return Snapshot{}, false, firstErr
}
