// Package store is the durable storage engine under the streaming
// evaluators: a segmented append-only write-ahead log of accepted ingest
// batches plus a store of compacted state snapshots, composed so that
// recovery is always "restore the newest valid snapshot, replay the WAL
// tail".
//
// Every on-disk structure is CRC-32C framed and versioned. The WAL
// truncates at the first corrupt or torn record — the surviving prefix is
// exactly what was durable — and the snapshot store skips files that fail
// validation rather than trusting them. Records carry contiguous sequence
// numbers assigned at append time; replay filters on them, so re-applying
// a tail that overlaps the restored snapshot is idempotent by
// construction.
//
// The engine is written against the FS seam so tests can inject torn
// writes, ENOSPC and crash-at-offset faults (FaultFS).
package store

import (
	"fmt"
)

// Store composes the WAL and the snapshot store over one directory:
// segments and snapshots live side by side, distinguished by filename.
type Store struct {
	Log       *DiskLog
	Snapshots *DiskSnapshots
}

// Open opens (or creates) the storage engine in dir, running WAL recovery.
func Open(fsys FS, dir string, opts Options) (*Store, error) {
	log, err := OpenLog(fsys, dir, opts)
	if err != nil {
		return nil, err
	}
	snaps, err := OpenSnapshots(fsys, dir, opts)
	if err != nil {
		log.Close()
		return nil, err
	}
	return &Store{Log: log, Snapshots: snaps}, nil
}

// FirstSeq returns the sequence number of the oldest record still in the
// log (0 if the log holds none).
func (l *DiskLog) FirstSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segments) == 0 {
		return 0
	}
	first := l.segments[0].first
	if first > l.lastSeq {
		return 0
	}
	return first
}

// Recover rebuilds state from disk: the newest valid snapshot (if any) is
// handed to restore, then every WAL record past the snapshot's sequence
// number is handed to apply, in order. It fails — rather than silently
// serving partial state — when the log has been compacted past the point
// any surviving snapshot covers, which can only happen if every newer
// snapshot was corrupt.
func (s *Store) Recover(restore func(Snapshot) error, apply func(Record) error) error {
	snap, ok, snapErr := s.Snapshots.Latest()
	replayFrom := uint64(1)
	if ok {
		if err := restore(snap); err != nil {
			return fmt.Errorf("store: restore snapshot at seq %d: %w", snap.Seq, err)
		}
		replayFrom = snap.Seq + 1
		// A snapshot newer than the whole journal means the tail that
		// produced it was itself lost to corruption; realign so fresh
		// appends cannot hide below the snapshot's sequence.
		if snap.Seq > s.Log.LastSeq() {
			if err := s.Log.AlignTo(snap.Seq); err != nil {
				return err
			}
		}
	}
	first := s.Log.FirstSeq()
	if !ok && snapErr != nil && first != 1 {
		// Snapshots existed but every one was corrupt, and the log no
		// longer holds the full history they covered.
		return fmt.Errorf("store: no usable snapshot: %w", snapErr)
	}
	if first > replayFrom {
		return fmt.Errorf("%w: log starts at seq %d but recovery needs seq %d — the covering snapshot was lost", ErrCorrupt, first, replayFrom)
	}
	return s.Log.Replay(replayFrom, apply)
}

// Close releases the engine.
func (s *Store) Close() error {
	return s.Log.Close()
}
