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
// died — or that the head finds empty after a cold restart — can be rebuilt
// from its store — newest valid snapshot pushed as a compact restore, WAL
// tail re-ingested — with zero acknowledged loss.

// AttachSliceStores hands the coordinator one durable store per task slice
// (nil entries leave that slice store-less). Journaling begins with the
// next fan-out. Batches acknowledged before the attach live only in the
// workers' memory until the slice's next checkpoint saves what its
// replicas hold — the upgrade path for a cluster whose head journaled
// nothing.
//
// What the attach does for a slice depends on its store and its live
// replicas:
//
//   - The store is empty: the store is attached as is.
//   - The store holds responses and every live replica is empty — a cold
//     restart, the head back over workers that came up empty: every live
//     replica is rebuilt from the store (newest snapshot pushed, journal
//     tail re-ingested) before the store is attached.
//   - Otherwise, when some live replica holds fewer responses than the
//     store, the attach is refused with an error naming the slice. Without
//     the refusal the next checkpoint would save that replica's short state
//     and truncate the journal that still holds the rest.
//
// Every slice is checked before any replica is rebuilt or any store
// attached, so a refusal leaves every store and replica untouched.
func (c *Coordinator) AttachSliceStores(stores []*store.Store) error {
	if len(stores) != len(c.slices) {
		return fmt.Errorf("dist: %d stores for %d task slices", len(stores), len(c.slices))
	}
	// Slice locks are taken in index order; nothing else holds two.
	for _, s := range c.slices {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	rebuild := make([]bool, len(stores))
	for si, st := range stores {
		if st == nil {
			continue
		}
		held, err := storedResponses(st)
		if err != nil {
			return fmt.Errorf("dist: reading slice %d store: %w", si, err)
		}
		if held == 0 {
			continue
		}
		counts, err := c.replicaResponsesLocked(si, c.slices[si])
		if err != nil {
			return err
		}
		least, most := held, 0
		for _, n := range counts {
			least, most = min(least, n), max(most, n)
		}
		switch {
		case most == 0:
			rebuild[si] = len(counts) > 0
		case least < held:
			return fmt.Errorf("dist: slice %d: a live replica holds %d of the %d responses in the slice's store; restart the slice's workers empty so the store rebuilds them", si, least, held)
		}
	}
	for si, st := range stores {
		s := c.slices[si]
		if rebuild[si] {
			if err := c.replayStore(st, s.liveLocked()); err != nil {
				return fmt.Errorf("dist: rebuilding slice %d from its store: %w", si, err)
			}
		}
		s.store = st
	}
	return nil
}

// storedResponses counts the responses st recovers: the newest valid
// snapshot's plus the journal tail's.
func storedResponses(st *store.Store) (int, error) {
	n := 0
	err := st.Recover(
		func(snap store.Snapshot) error {
			cs, err := DecodeCompact(snap.Payload)
			if err != nil {
				return err
			}
			n = compactResponses(cs)
			return nil
		},
		func(rec store.Record) error {
			n += len(rec.Responses)
			return nil
		})
	return n, err
}

// replicaResponsesLocked returns the response count of each live replica
// of slice si that answers; caller holds s.mu. A slice with no live
// replica yields none.
func (c *Coordinator) replicaResponsesLocked(si int, s *slice) ([]int, error) {
	replies, err := c.fanoutLocked(si, s, msgPullCounts, nil, msgCounts)
	if errors.Is(err, ErrNoReplica) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	counts := make([]int, len(replies))
	for i, reply := range replies {
		m, err := decodeCounts(reply)
		if err != nil {
			return nil, fmt.Errorf("dist: slice %d counts: %w", si, err)
		}
		counts[i] = m.Responses
	}
	return counts, nil
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
// coordinator's WAL". The journal write happens under the slice lock, so
// a compact checkpoint's (state, seq) cut can never see a batch the
// journal doesn't, and the journal holds the slice's batches in the order
// its replicas applied them. The fsync that makes the batch durable runs
// after the lock is released, so the slice's next batch reaches the
// replicas while this one syncs, and an fsync in flight covers every
// batch written before it started.
func (c *Coordinator) ingestSlice(si int, recs []responseRec) error {
	s := c.slices[si]
	body := encodeIngest(recs)
	s.mu.Lock()
	_, err := c.broadcastLocked(si, s, msgIngest, body, msgIngestOK, false)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	st := s.store
	var seq uint64
	if st != nil {
		rs := make([]store.Response, len(recs))
		for i, r := range recs {
			rs[i] = store.Response{Worker: r.Worker, Task: r.Task, Answer: crowd.Response(r.Answer)}
		}
		seq, err = st.Log.Write(rs)
	}
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("dist: journaling slice %d batch: %w", si, err)
	}
	if st != nil {
		if err := st.Log.SyncTo(seq); err != nil {
			return fmt.Errorf("dist: syncing slice %d journal to record %d: %w", si, seq, err)
		}
	}
	return nil
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
	if err := c.replayStore(st, []*node{n}); err != nil {
		conn.Close()
		return fmt.Errorf("dist: restoring slice %d from its store: %w", si, err)
	}
	s.attachLocked(si, n, time.Now())
	return nil
}

// replayStore rebuilds empty nodes from st: the newest valid compact
// snapshot is pushed as a compact restore, then every journal record past
// it is re-ingested in order — O(snapshot + delta), never the full
// history. A node that fails leaves the rest of the replay undone.
func (c *Coordinator) replayStore(st *store.Store, nodes []*node) error {
	return st.Recover(
		func(snap store.Snapshot) error {
			if _, err := DecodeCompact(snap.Payload); err != nil {
				return err
			}
			for _, n := range nodes {
				if _, err := n.roundTrip(c.policy, msgRestoreCompact, snap.Payload, msgRestoreOK); err != nil {
					return err
				}
			}
			return nil
		},
		func(rec store.Record) error {
			batch := make([]responseRec, len(rec.Responses))
			for i, r := range rec.Responses {
				batch[i] = responseRec{Worker: r.Worker, Task: r.Task, Answer: int(r.Answer)}
			}
			body := encodeIngest(batch)
			for _, n := range nodes {
				if _, err := n.roundTrip(c.policy, msgIngest, body, msgIngestOK); err != nil {
					return err
				}
			}
			return nil
		})
}

// DefaultCheckpointInterval is how often a daemon cuts compact checkpoints
// into its stores while serving.
const DefaultCheckpointInterval = time.Minute

// CheckpointEvery runs cut every interval until the returned stop is
// called; stop waits out a cut in progress. A failed cut goes to onErr and
// the next tick tries again: the journal stays durable, it only grows
// until a cut lands.
func CheckpointEvery(interval time.Duration, cut func() error, onErr func(error)) (stop func()) {
	quit, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if err := cut(); err != nil {
					onErr(err)
				}
			case <-quit:
				return
			}
		}
	}()
	return func() { close(quit); <-exited }
}
