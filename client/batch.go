package client

import (
	"context"
	"sync"
)

// maxBatch mirrors the gateway's per-request batch limit; the batcher
// clamps its size to it so a flush is never rejected for being too big.
const maxBatch = 10000

// Batcher accumulates responses and ships them in fixed-size batches —
// the cheap way to feed a streaming source through the batch ingest
// route without one HTTP round-trip per response. It is safe for
// concurrent use; flushes serialize.
type Batcher struct {
	c    *Client
	size int

	mu    sync.Mutex
	buf   []Response
	total IngestResult
}

// NewBatcher returns a batcher flushing through c every size responses
// (clamped to [1, 10000], the gateway's batch limit). Call Flush before
// discarding it: responses below the size threshold sit in the buffer
// until then.
func (c *Client) NewBatcher(size int) *Batcher {
	if size < 1 {
		size = 1
	}
	if size > maxBatch {
		size = maxBatch
	}
	return &Batcher{c: c, size: size, buf: make([]Response, 0, size)}
}

// Add buffers one response, shipping every full batch the buffer holds.
// An error is a flush error: a batch's delivery failed (it stays buffered
// so a later Add or Flush retries it), but r itself was buffered either
// way.
func (b *Batcher) Add(ctx context.Context, r Response) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf = append(b.buf, r)
	return b.flushLocked(ctx, false)
}

// Flush ships whatever is buffered, in batches of at most the batcher's
// size. On error the unsent responses are retained, so calling Flush again
// retries the failed batch — safe when the failure was a 429 (nothing was
// admitted), at the caller's discretion after ambiguous network failures.
func (b *Batcher) Flush(ctx context.Context) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.flushLocked(ctx, true)
}

// flushLocked ships the buffer front to back, b.size responses per request
// — a buffer that grew past the size while a flush kept failing is still
// never sent as one oversized request. It ships the final partial batch
// only when all is set, and on error keeps the failed batch and everything
// after it.
func (b *Batcher) flushLocked(ctx context.Context, all bool) error {
	for len(b.buf) >= b.size || (all && len(b.buf) > 0) {
		n := min(b.size, len(b.buf))
		res, err := b.c.IngestBatch(ctx, b.buf[:n])
		if err != nil {
			return err
		}
		b.total.Ingested += res.Ingested
		b.total.Rejected += res.Rejected
		b.buf = b.buf[:copy(b.buf, b.buf[n:])]
	}
	return nil
}

// Totals reports the cumulative ingest outcome across every successful
// flush so far.
func (b *Batcher) Totals() IngestResult {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total
}
