package dist

import (
	"errors"
	"fmt"

	"crowdassess/internal/crowd"
	"crowdassess/internal/store"
)

// This file is the worker side of the durable storage engine: WAL
// journaling of accepted ingest batches, O(delta) compact snapshots, and
// recovery. Everything here is a no-op for workers without a Store.

// journal appends an accepted ingest batch to the WAL; caller holds
// journalMu.RLock when a store is attached. A journaling failure fails the
// ingest — the coordinator never receives an ack for a batch that is not
// durable (to the fsync policy's guarantee).
func (w *Worker) journal(batch []responseRec) error {
	st := w.opts.Store
	if st == nil || len(batch) == 0 {
		return nil
	}
	rs := make([]store.Response, len(batch))
	for i, s := range batch {
		rs[i] = store.Response{Worker: s.Worker, Task: s.Task, Answer: crowd.Response(s.Answer)}
	}
	if _, err := st.Log.Append(rs); err != nil {
		return fmt.Errorf("dist: journaling ingest batch: %w", err)
	}
	return nil
}

// persistSeed makes wire-seeded state durable: after a compact restore,
// the node's evaluator holds responses its empty local WAL never
// saw, so a compact snapshot is cut immediately — otherwise a crash after
// the restore ack would silently lose the seed. Without a store it is a
// no-op.
func (w *Worker) persistSeed() error {
	if w.opts.Store == nil {
		return nil
	}
	return w.CheckpointCompact()
}

// CheckpointCompact cuts an O(delta) checkpoint into the worker's store:
// the compact state and the WAL position are read as one consistent cut
// (ingests are excluded for the microseconds the cut takes — not for the
// encode or the fsync), the snapshot is persisted, and the WAL segments it
// covers are dropped. Cost is flat in ingested history; only the crowd and
// task-horizon sizes matter.
func (w *Worker) CheckpointCompact() error {
	st := w.opts.Store
	if st == nil {
		return errors.New("dist: worker has no store attached")
	}
	w.journalMu.Lock()
	cs := w.inc.CompactCheckpoint()
	seq := st.Log.LastSeq()
	w.journalMu.Unlock()
	payload, err := EncodeCompact(cs)
	if err != nil {
		return err
	}
	if err := st.Snapshots.Save(seq, payload); err != nil {
		return fmt.Errorf("dist: saving compact snapshot at seq %d: %w", seq, err)
	}
	if err := st.Log.TruncateBefore(seq + 1); err != nil {
		return fmt.Errorf("dist: truncating journal behind seq %d: %w", seq, err)
	}
	return nil
}

// RecoverFromStore rebuilds the worker's evaluator from its store — newest
// valid compact snapshot plus WAL tail replay — and returns the number of
// responses recovered. The evaluator must be empty (recover on startup,
// before serving). Without a store it is a no-op.
func (w *Worker) RecoverFromStore() (int, error) {
	st := w.opts.Store
	if st == nil {
		return 0, nil
	}
	err := st.Recover(
		func(snap store.Snapshot) error {
			cs, err := DecodeCompact(snap.Payload)
			if err != nil {
				return err
			}
			return w.inc.RestoreCompact(cs)
		},
		func(rec store.Record) error {
			for _, r := range rec.Responses {
				if err := w.inc.Add(r.Worker, r.Task, r.Answer); err != nil {
					return fmt.Errorf("replaying journal seq %d: %w", rec.Seq, err)
				}
			}
			return nil
		})
	if err != nil {
		return 0, err
	}
	return w.inc.Responses(), nil
}
