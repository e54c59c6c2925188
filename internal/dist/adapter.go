package dist

import (
	"errors"
	"fmt"
	"sync"

	"crowdassess/internal/core"
	"crowdassess/internal/crowd"
)

// DefaultClusterBatch is the Add-buffer size NewClusterEvaluator uses when
// given a non-positive batch: large enough that per-frame overhead
// vanishes against the covariance solves, small enough that a review
// flushing the buffer never stalls noticeably.
const DefaultClusterBatch = 256

// ClusterEvaluator adapts a Coordinator to core.StreamingEvaluator, so
// pool.Manager — and anything else programmed against the streaming
// interface — runs unchanged against a whole cluster. Adds are buffered
// and shipped as batched ingest fan-outs (one frame per slice); every
// reading method flushes the buffer first, so reads always observe every
// response accepted so far. Evaluation pulls the slices' statistics into
// the coordinator's running merge and solves there — the exact integer
// merge — so estimates, spammer screens and therefore pool review
// decisions are bit-identical to a local evaluator fed the same responses.
//
// All methods are safe for concurrent use. Only the buffer and its flush
// serialize on the adapter; the read that follows a flush runs outside the
// adapter's lock, so one caller's ingest flush never queues behind another
// caller's pull and solve. A read therefore sees every Add flushed before
// it, and — like ShardedIncremental's per-shard cut — each task slice as of
// the moment the read pulled that slice: responses flushed concurrently by
// other callers may be in it for some slices and not yet for others. Once
// ingestion quiesces, reads are exact again.
//
// Error contract: Add reports remote rejections at the flush that carries
// them, not at the call that buffered the bad response — a duplicate may
// therefore surface a few Adds late, attributed to the flush.
// MajorityDisagreement, whose interface signature cannot return an error,
// returns zeros when the cluster is unreachable and parks the failure,
// which the next fallible call (Add, Flush, Evaluate*) returns.
type ClusterEvaluator struct {
	coord *Coordinator
	batch int

	mu  sync.Mutex
	buf []Response
	err error // parked failure from MajorityDisagreement
}

var _ core.StreamingEvaluator = (*ClusterEvaluator)(nil)

// NewClusterEvaluator wraps a coordinator in the streaming-evaluator
// interface. batch sets how many buffered Adds trigger a flush;
// non-positive selects DefaultClusterBatch, 1 disables buffering.
func NewClusterEvaluator(coord *Coordinator, batch int) *ClusterEvaluator {
	if batch <= 0 {
		batch = DefaultClusterBatch
	}
	return &ClusterEvaluator{coord: coord, batch: batch}
}

// Coordinator returns the underlying cluster coordinator (for checkpoint
// and replica-management operations, which are not part of the streaming
// interface).
func (c *ClusterEvaluator) Coordinator() *Coordinator { return c.coord }

// Workers returns the crowd size the cluster is indexed by.
func (c *ClusterEvaluator) Workers() int { return c.coord.Workers() }

// Add buffers worker w's response r on task t, shipping the buffer as one
// batched cluster ingest when it reaches the batch size. Locally checkable
// rejections (range, arity) fail immediately; remote ones (duplicates)
// surface at the flush that carries them.
func (c *ClusterEvaluator) Add(w, t int, r crowd.Response) error {
	if w < 0 || w >= c.coord.Workers() {
		return fmt.Errorf("dist: worker %d out of range 0…%d", w, c.coord.Workers()-1)
	}
	if t < 0 {
		return fmt.Errorf("dist: negative task index %d", t)
	}
	if r != crowd.Yes && r != crowd.No {
		return fmt.Errorf("dist: streaming evaluator is binary; response %d: %w", r, crowd.ErrArity)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buf = append(c.buf, Response{Worker: w, Task: t, Answer: r})
	if len(c.buf) >= c.batch {
		return c.flushLocked()
	}
	return nil
}

// Flush ships any buffered responses to the cluster immediately. It also
// surfaces a failure parked by MajorityDisagreement.
func (c *ClusterEvaluator) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushLocked()
}

func (c *ClusterEvaluator) flushLocked() error {
	// A parked failure never short-circuits the flush: the buffer is
	// always shipped (or dropped with its ingest error) on this call, so a
	// failed flush can never leave responses behind that a later flush
	// silently delivers after their Add was reported failed.
	parked := c.err
	c.err = nil
	var ingestErr error
	if len(c.buf) > 0 {
		batch := c.buf
		c.buf = c.buf[:0]
		// The per-response contract matches Coordinator.Ingest: on error,
		// earlier responses of the batch may already be ingested; the
		// buffer is not retried (re-ingesting it would duplicate the
		// accepted prefix).
		ingestErr = c.coord.Ingest(batch)
	}
	return errors.Join(parked, ingestErr)
}

// park records a failure of MajorityDisagreement for the next fallible
// call.
func (c *ClusterEvaluator) park(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.err = errors.Join(c.err, err)
}

// Evaluate flushes, then pulls and solves one worker's interval.
func (c *ClusterEvaluator) Evaluate(worker int, opts core.EvalOptions) (core.WorkerEstimate, error) {
	if err := c.Flush(); err != nil {
		return core.WorkerEstimate{}, err
	}
	return c.coord.Evaluate(worker, opts)
}

// EvaluateAll flushes, then solves every worker from one pull.
func (c *ClusterEvaluator) EvaluateAll(opts core.EvalOptions) ([]core.WorkerEstimate, error) {
	if err := c.Flush(); err != nil {
		return nil, err
	}
	return c.coord.EvaluateAll(opts)
}

// EvaluateSubset flushes, then solves the listed workers from one pull.
func (c *ClusterEvaluator) EvaluateSubset(workers []int, opts core.EvalOptions) ([]core.WorkerEstimate, error) {
	if err := c.Flush(); err != nil {
		return nil, err
	}
	return c.coord.EvaluateSubset(workers, opts)
}

// MajorityDisagreement flushes, then runs the spammer screen cluster-wide
// (integer tallies summed across slices — exact). On an unreachable
// cluster it returns all zeros and parks the error; the evaluation call
// that follows in every review loop then fails loudly, so a pool can
// never quietly fire nobody forever.
func (c *ClusterEvaluator) MajorityDisagreement() []float64 {
	if err := c.Flush(); err != nil {
		c.park(err)
		return make([]float64, c.coord.Workers())
	}
	rates, err := c.coord.MajorityDisagreement()
	if err != nil {
		c.park(err)
		return make([]float64, c.coord.Workers())
	}
	return rates
}

// WorkerResponses flushes, then returns how many responses each crowd
// worker has in the cluster — what a pool manager built over a cluster
// that already holds responses (a restarted head) seeds its counts from.
func (c *ClusterEvaluator) WorkerResponses() ([]int, error) {
	if err := c.Flush(); err != nil {
		return nil, err
	}
	return c.coord.WorkerResponses()
}
