// Package durability is an analyzer fixture for journal-before-ack. It
// imports the real crowdassess/internal/store so the Append, Write and
// SyncTo recognizers are exercised against the live storage API. The ack under the invariant
// is the head's relayed ingest reply: reply, err := …(msgIngestOK) …
// return reply, nil.
package durability

import "crowdassess/internal/store"

const (
	msgIngest   = 0x01
	msgIngestOK = 0x02
)

// head fans a batch out to its replicas through rt and journals it to
// its slice store.
type head struct {
	st *store.Store
	rt func(req byte, rs []store.Response, want byte) ([]byte, error)
}

// ingestGood is the canonical shape: relay, journal, check, then ack.
func (h *head) ingestGood(rs []store.Response) ([]byte, error) {
	reply, err := h.rt(msgIngest, rs, msgIngestOK)
	if err != nil {
		return nil, err
	}
	if _, err := h.st.Log.Append(rs); err != nil {
		return nil, err
	}
	return reply, nil
}

// ingestNoJournal relays the replicas' ack without journaling: an ack
// for a batch nobody persisted.
func (h *head) ingestNoJournal(rs []store.Response) ([]byte, error) {
	reply, err := h.rt(msgIngest, rs, msgIngestOK)
	if err != nil {
		return nil, err
	}
	return reply, nil // want "durability: ingest ack without a journal append"
}

// ingestUnchecked journals but drops the append error on the floor.
func (h *head) ingestUnchecked(rs []store.Response) ([]byte, error) {
	reply, err := h.rt(msgIngest, rs, msgIngestOK)
	if err != nil {
		return nil, err
	}
	h.st.Log.Append(rs) // want "durability: journal append error is not checked"
	return reply, nil
}

// ingestDropped binds the sequence number but discards the append error:
// the ack can outrun a failed append.
func (h *head) ingestDropped(rs []store.Response) ([]byte, error) {
	reply, err := h.rt(msgIngest, rs, msgIngestOK)
	if err != nil {
		return nil, err
	}
	seq, _ := h.st.Log.Append(rs) // want "durability: journal append error is not checked"
	_ = seq
	return reply, nil
}

// ingestAckFirst relays the ack on one path before the append runs.
func (h *head) ingestAckFirst(rs []store.Response) ([]byte, error) {
	reply, err := h.rt(msgIngest, rs, msgIngestOK)
	if err != nil {
		return nil, err
	}
	if len(rs) == 1 {
		return reply, nil // want "durability: ingest ack precedes the journal append"
	}
	if _, err := h.st.Log.Append(rs); err != nil {
		return nil, err
	}
	return reply, nil
}

// ingestLaterCheck binds the error first and consults it afterwards:
// still checked.
func (h *head) ingestLaterCheck(rs []store.Response) ([]byte, error) {
	reply, err := h.rt(msgIngest, rs, msgIngestOK)
	if err != nil {
		return nil, err
	}
	_, err = h.st.Log.Append(rs)
	if err != nil {
		return nil, err
	}
	return reply, nil
}

// ingestWriteSync writes the batch under a lock and syncs it after the
// lock is released: durable at the SyncTo, with both errors checked.
func (h *head) ingestWriteSync(rs []store.Response) ([]byte, error) {
	reply, err := h.rt(msgIngest, rs, msgIngestOK)
	if err != nil {
		return nil, err
	}
	seq, err := h.st.Log.Write(rs)
	if err != nil {
		return nil, err
	}
	if err := h.st.Log.SyncTo(seq); err != nil {
		return nil, err
	}
	return reply, nil
}

// ingestWriteOnly writes the batch but acks before any fsync: a crash
// can lose the page cache that holds it.
func (h *head) ingestWriteOnly(rs []store.Response) ([]byte, error) {
	reply, err := h.rt(msgIngest, rs, msgIngestOK)
	if err != nil {
		return nil, err
	}
	if _, err := h.st.Log.Write(rs); err != nil {
		return nil, err
	}
	return reply, nil // want "durability: ingest ack after a journal write without SyncTo"
}

// ingestSyncUnchecked syncs but drops the sync error: a failed fsync
// would still be acked.
func (h *head) ingestSyncUnchecked(rs []store.Response) ([]byte, error) {
	reply, err := h.rt(msgIngest, rs, msgIngestOK)
	if err != nil {
		return nil, err
	}
	seq, err := h.st.Log.Write(rs)
	if err != nil {
		return nil, err
	}
	h.st.Log.SyncTo(seq) // want "durability: journal sync error is not checked"
	return reply, nil
}

// ingestWriteUnchecked drops the write error, then syncs whatever the
// log holds.
func (h *head) ingestWriteUnchecked(rs []store.Response) ([]byte, error) {
	reply, err := h.rt(msgIngest, rs, msgIngestOK)
	if err != nil {
		return nil, err
	}
	seq, _ := h.st.Log.Write(rs) // want "durability: journal write error is not checked"
	if err := h.st.Log.SyncTo(seq); err != nil {
		return nil, err
	}
	return reply, nil
}

// ingestAckBeforeSync acks on one path between the write and the sync.
func (h *head) ingestAckBeforeSync(rs []store.Response) ([]byte, error) {
	reply, err := h.rt(msgIngest, rs, msgIngestOK)
	if err != nil {
		return nil, err
	}
	seq, err := h.st.Log.Write(rs)
	if err != nil {
		return nil, err
	}
	if len(rs) == 1 {
		return reply, nil // want "durability: ingest ack precedes the journal sync"
	}
	if err := h.st.Log.SyncTo(seq); err != nil {
		return nil, err
	}
	return reply, nil
}

// relayInCase relays from inside a msgIngest case clause: the same
// invariant holds there.
func (h *head) relayInCase(t byte, rs []store.Response) ([]byte, error) {
	switch t {
	case msgIngest:
		reply, err := h.rt(msgIngest, rs, msgIngestOK)
		if err != nil {
			return nil, err
		}
		return reply, nil // want "durability: ingest ack without a journal append"
	}
	return nil, nil
}

// worker applies a batch and replies to the head. Its msgIngestOK is a
// reply, not a durability promise — the head journals before it relays
// the ack — so it reports nothing.
type worker struct{ applied int }

func (w *worker) handle(t byte, rs []store.Response) (byte, error) {
	switch t {
	case msgIngest:
		w.applied += len(rs)
		return msgIngestOK, nil
	}
	return 0, nil
}
