// Package durability is an analyzer fixture for journal-before-ack. It
// imports the real crowdassess/internal/store so the Append recognizer
// is exercised against the live storage API. The ack under the invariant
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
