package dist

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"crowdassess/internal/crowd"
	"crowdassess/internal/store"
)

// This file is the coordinator side of the durable storage engine: with one
// store attached per task slice, every acknowledged ingest fan-out is
// journaled to the slice's WAL, the periodic checkpoint becomes an O(delta)
// compact snapshot plus segment truncate, and a slice whose every replica
// died can be rebuilt from its store — newest valid snapshot pushed as a
// compact restore, WAL tail re-ingested — with zero acknowledged loss.

// AttachSliceStores hands the coordinator one durable store per task slice
// (nil entries leave that slice store-less). Attach before ingesting:
// journaling begins with the next fan-out, and batches acknowledged before
// the attach are only as durable as the workers themselves.
func (c *Coordinator) AttachSliceStores(stores []*store.Store) error {
	if len(stores) != len(c.slices) {
		return fmt.Errorf("dist: %d stores for %d task slices", len(stores), len(c.slices))
	}
	for si, st := range stores {
		s := c.slices[si]
		s.mu.Lock()
		s.store = st
		s.mu.Unlock()
	}
	return nil
}

// sliceStore returns slice si's attached store, or nil.
func (c *Coordinator) sliceStore(si int) *store.Store {
	s := c.slices[si]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store
}

// ingestSlice fans one batch out to slice si's live replicas and, when the
// slice carries a store, journals it before reporting success — the
// caller's ack means "applied on every live replica AND durable in the
// coordinator's WAL". The journal append happens under the slice lock, so
// a compact checkpoint's (state, seq) cut can never see a batch the
// journal doesn't.
func (c *Coordinator) ingestSlice(si int, recs []responseRec) ([]byte, error) {
	s := c.slices[si]
	s.mu.Lock()
	defer s.mu.Unlock()
	reply, err := c.broadcastLocked(si, s, msgIngest, encodeIngest(recs), msgIngestOK, false)
	if err != nil {
		return nil, err
	}
	if s.store != nil {
		rs := make([]store.Response, len(recs))
		for i, r := range recs {
			rs[i] = store.Response{Worker: r.Worker, Task: r.Task, Answer: crowd.Response(r.Answer)}
		}
		if _, err := s.store.Log.Append(rs); err != nil {
			return nil, fmt.Errorf("dist: journaling slice %d batch: %w", si, err)
		}
	}
	return reply, nil
}

// CheckpointCompactSlice cuts an O(delta) checkpoint of task slice si into
// its attached store: the compact state is pulled from every live replica
// (byte-validated — the compact codec is canonical, so this extends the
// divergence check to the answer bitsets) under the slice lock together
// with the WAL position, then saved and the journal truncated behind it.
func (c *Coordinator) CheckpointCompactSlice(si int) error {
	if si < 0 || si >= len(c.slices) {
		return fmt.Errorf("dist: slice %d out of range 0…%d", si, len(c.slices)-1)
	}
	s := c.slices[si]
	s.mu.Lock()
	st := s.store
	if st == nil {
		s.mu.Unlock()
		return fmt.Errorf("dist: slice %d has no store attached", si)
	}
	payload, err := c.broadcastLocked(si, s, msgPullCompact, nil, msgCompact, true)
	seq := st.Log.LastSeq()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	// Refuse to persist a payload recovery could not use.
	if _, err := DecodeCompact(payload); err != nil {
		return fmt.Errorf("dist: slice %d compact payload: %w", si, err)
	}
	if err := st.Snapshots.Save(seq, payload); err != nil {
		return fmt.Errorf("dist: saving slice %d snapshot at seq %d: %w", si, seq, err)
	}
	if err := st.Log.TruncateBefore(seq + 1); err != nil {
		return fmt.Errorf("dist: truncating slice %d journal behind seq %d: %w", si, seq, err)
	}
	return nil
}

// CheckpointCompactAll checkpoints every slice with an attached store,
// concurrently. Each slice's snapshot is a consistent cut of that slice;
// the set is not a cluster-wide barrier — and does not need to be, since
// slices are disjoint and restores are per slice. Slices without a store
// are skipped.
func (c *Coordinator) CheckpointCompactAll() error {
	errs := make([]error, len(c.slices))
	var wg sync.WaitGroup
	for si := range c.slices {
		if c.sliceStore(si) == nil {
			continue
		}
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			errs[si] = c.CheckpointCompactSlice(si)
		}(si)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// RestoreNodeFromStore rebuilds task slice si onto a replacement node from
// the slice's durable store: the newest valid compact snapshot is pushed
// as a compact restore, then the WAL tail past it is re-ingested batch by
// batch — O(snapshot + delta), never the full history. Only legal when
// every replica of the slice is gone (with a survivor, seed from it via
// RestoreNode: always fresher than disk). The coordinator takes ownership
// of conn; it is closed on failure.
func (c *Coordinator) RestoreNodeFromStore(si int, conn *Conn) error {
	n, err := c.replacement(si, conn)
	if err != nil {
		return err
	}
	s := c.slices[si]
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.store
	if st == nil {
		conn.Close()
		return fmt.Errorf("dist: slice %d has no store attached", si)
	}
	if len(s.liveLocked()) > 0 {
		conn.Close()
		return fmt.Errorf("dist: slice %d still has live replicas — seed from a survivor with RestoreNode", si)
	}
	err = st.Recover(
		func(snap store.Snapshot) error {
			if _, err := DecodeCompact(snap.Payload); err != nil {
				return err
			}
			_, err := n.roundTrip(c.policy, msgRestoreCompact, snap.Payload, msgRestoreOK)
			return err
		},
		func(rec store.Record) error {
			batch := make([]responseRec, len(rec.Responses))
			for i, r := range rec.Responses {
				batch[i] = responseRec{Worker: r.Worker, Task: r.Task, Answer: int(r.Answer)}
			}
			_, err := n.roundTrip(c.policy, msgIngest, encodeIngest(batch), msgIngestOK)
			return err
		})
	if err != nil {
		conn.Close()
		return fmt.Errorf("dist: restoring slice %d from its store: %w", si, err)
	}
	s.attachLocked(si, n, time.Now())
	return nil
}
