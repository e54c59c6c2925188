package dist

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"crowdassess/internal/core"
	"crowdassess/internal/crowd"
	"crowdassess/internal/obs"
)

// Response is one crowd submission routed through the coordinator: crowd
// worker w answered task t with r.
type Response struct {
	Worker int
	Task   int
	Answer crowd.Response
}

// Coordinator drives a set of worker nodes. The task space is partitioned
// into slices by the same kind of multiplicative hash the sharded
// evaluator stripes tasks with, so each slice's statistics cover a
// disjoint task set. The coordinator keeps every slice's statistics as of
// its last pull plus one running merge of them (a core.StatsAccumulator);
// evaluation brings each slice up to date — after the first pull, a slice
// ships only the counters and attendance bits that changed since the
// previous one (delta.go) — and solves on the running merge. Because the
// merge is exact integer addition and the solve is the very same
// Algorithm A2 path, the intervals are bit-identical to a single local
// core.ShardedIncremental fed every response.
//
// Each slice is owned by one or more replica nodes (NewCluster).
// Ingestion fans every batch out to all live replicas of the slice;
// statistics pulls read every live replica and byte-compare the canonical
// replies (delta and state digest together), taking one authoritative
// copy — replicas that have silently diverged
// surface as ErrDivergence rather than skewing estimates. A replica whose
// connection breaks is marked down and dropped from the fan-out; the slice
// keeps serving from its survivors, and a replacement node can be attached
// and brought up to date with RestoreNode. Per-slice operations serialize
// on the slice, which is what keeps replicas in lockstep: a statistics
// pull never observes a batch that only some replicas have ingested.
//
// All methods are safe for concurrent use; requests on the same node
// serialize on that node's connection.
type Coordinator struct {
	workers int
	slices  []*slice
	policy  Policy

	monitorMu sync.Mutex
	monitor   *Monitor

	// mergeMu guards merged and every slice's stored state against
	// rebuilds: a slice's state is written only under both its slice lock
	// and mergeMu, so mergeMu alone reads every slice's state consistently.
	// Lock order: slice mu, then mergeMu. merged is the sum of the slices'
	// stored states; folds update it in place, rebuilds replace it.
	mergeMu sync.Mutex
	merged  *core.StatsAccumulator

	// Observability wiring, installed by Instrument (metrics.go); all nil
	// until then. obsMu guards the trio so a concurrent Instrument never
	// hands a retry loop a half-set observer.
	obsMu  sync.Mutex
	obsReg *obs.Registry
	obsFn  RPCObserver
	obsNow func() time.Time
}

// ReplicaSpec describes one replica slot of a task slice for NewCluster:
// an open connection, and optionally how to reconnect to (a replacement
// for) the node behind it, which is what retries and the self-healing
// monitor redial through.
type ReplicaSpec struct {
	// Conn is the slot's open connection; the coordinator takes
	// ownership. Required.
	Conn *Conn
	// Dial re-establishes a connection to this slot — typically the same
	// listen address, where a restarted crowdd (or its replacement)
	// comes back up. The function must bound its own blocking (use
	// DialTCPTimeout). Optional: without it the slot is not redialable
	// and only RestoreNode can refill it.
	Dial func() (*Conn, error)
}

// NewCluster handshakes worker connections into a replicated cluster:
// groups[si] is the replica set jointly owning task slice si, each replica
// a node that will ingest — and must agree on — that slice's every
// response. Replicas make a slice survive node death: as long as one
// replica lives, the slice serves; dead slots are refilled by RestoreNode,
// or automatically by a Monitor when the slot carries a dialer. The policy
// bounds every RPC (deadlines, retries, backoff) and sets the degraded-
// read mode; DefaultPolicy is the usual choice. An unreplicated cluster is
// one single-replica group per slice. NewCluster takes ownership of all
// connections: they are closed on handshake failure and by Close.
func NewCluster(workers int, groups [][]ReplicaSpec, policy Policy) (*Coordinator, error) {
	if len(groups) == 0 {
		return nil, errors.New("dist: coordinator needs at least one task slice")
	}
	closeAll := func() {
		for _, g := range groups {
			for _, spec := range g {
				if spec.Conn != nil {
					spec.Conn.Close()
				}
			}
		}
	}
	if workers < 3 {
		closeAll()
		return nil, fmt.Errorf("dist: need at least 3 crowd workers, have %d", workers)
	}
	merged, err := core.NewStatsAccumulator(workers)
	if err != nil {
		closeAll()
		return nil, err
	}
	c := &Coordinator{workers: workers, policy: policy, merged: merged}
	for si, g := range groups {
		if len(g) == 0 {
			closeAll()
			return nil, fmt.Errorf("dist: slice %d has no replica connections", si)
		}
		s := &slice{}
		for ri, spec := range g {
			if spec.Conn == nil {
				closeAll()
				return nil, fmt.Errorf("dist: slice %d replica %d has no connection", si, ri)
			}
			spec.Conn.SetTimeout(policy.RPCTimeout)
			n, err := handshake(workers, spec.Conn)
			if err != nil {
				closeAll()
				return nil, fmt.Errorf("dist: handshake with slice %d replica %d: %w", si, ri, err)
			}
			n.id = uint64(si)<<32 | uint64(ri)
			n.dial = spec.Dial
			n.lastBeat = time.Now()
			s.replicas = append(s.replicas, n)
		}
		c.slices = append(c.slices, s)
	}
	return c, nil
}

// Policy returns the failure policy the coordinator runs under.
func (c *Coordinator) Policy() Policy { return c.policy }

// handshake negotiates protocol version and crowd size with one node. The
// connection's timeout must already be armed by the caller.
func handshake(workers int, conn *Conn) (*node, error) {
	replyType, reply, err := conn.roundTrip(msgHello, encodeHello(helloMsg{Version: ProtocolVersion, Workers: workers}))
	if err == nil && replyType != msgHelloOK {
		err = fmt.Errorf("dist: unexpected handshake reply 0x%02x", replyType)
	}
	var hello helloMsg
	if err == nil {
		hello, err = decodeHello(reply)
	}
	if err == nil && hello.Version != ProtocolVersion {
		err = fmt.Errorf("dist: node speaks protocol version %d, coordinator speaks %d", hello.Version, ProtocolVersion)
	}
	if err == nil && hello.Workers != workers {
		err = fmt.Errorf("dist: node serves %d crowd workers, want %d", hello.Workers, workers)
	}
	if err != nil {
		return nil, err
	}
	return &node{conn: conn, shards: hello.Shards, name: hello.Name, instance: hello.Instance}, nil
}

// idempotent reports whether a request may be safely re-sent after a
// transient failure: the read-only pulls and heartbeats. Ingest is
// not — a timed-out batch may already be applied, and re-sending it would
// trip duplicate detection mid-frame — so a failing ingest marks the
// replica down instead (its siblings carry the slice; that IS the write
// path's sibling retry).
func idempotent(msgType byte) bool {
	switch msgType {
	case msgPullDelta, msgPullCounts, msgPullDis, msgPullCompact, msgPing:
		return true
	}
	return false
}

// call runs one round-trip on a node under the policy: the message type's
// deadline budget and — for idempotent requests that fail transiently —
// reconnect-and-retry with jittered exponential backoff. A timed-out frame
// leaves the byte stream unframed, so every retry re-dials the slot first;
// a slot without a dialer gets no retries.
func (c *Coordinator) call(n *node, msgType byte, body []byte, wantReply byte) ([]byte, error) {
	reply, err := n.roundTrip(c.policy, msgType, body, wantReply)
	if err == nil || !idempotent(msgType) || !Transient(err) || c.policy.Retries <= 0 || n.dial == nil {
		return reply, err
	}
	errs := []error{err}
	for attempt := 0; attempt < c.policy.Retries; attempt++ {
		if d := c.policy.backoff(attempt, n.id); d > 0 {
			time.Sleep(d)
			c.noteBackoff(d)
		}
		c.noteRetry(msgType)
		if rerr := c.redial(n); rerr != nil {
			// The slot is unreachable, not just flaky; further attempts
			// would re-dial the same dead address. Hand recovery to the
			// monitor's reseed pass.
			errs = append(errs, rerr)
			break
		}
		if reply, err = n.roundTrip(c.policy, msgType, body, wantReply); err == nil || !Transient(err) {
			return reply, err
		}
		errs = append(errs, err)
	}
	return nil, errors.Join(errs...)
}

// redial replaces a node's connection through its dialer, re-running the
// handshake before the swap. A reconnect is only safe when it reaches the
// SAME incarnation of the worker — same process, slice state intact; a
// different incarnation means the node restarted empty, and retrying a
// pull against it would return hollow statistics as authoritative. That
// case fails here (permanently, for this slot's current life): the caller
// marks the slot down and the monitor reseeds it through a full
// RestoreNode state transfer instead.
func (c *Coordinator) redial(n *node) error {
	conn, err := n.dial()
	if err != nil {
		return err
	}
	conn.SetTimeout(c.policy.RPCTimeout)
	c.instrumentConn(conn)
	fresh, err := handshake(c.workers, conn)
	if err != nil {
		conn.Close()
		return err
	}
	n.mu.Lock()
	if n.instance != 0 && fresh.instance != 0 && fresh.instance != n.instance {
		n.mu.Unlock()
		conn.Close()
		c.noteIncarnationRefusal()
		return fmt.Errorf("dist: reconnect reached a restarted node (incarnation %x, had %x): state lost, slot needs reseed", fresh.instance, n.instance)
	}
	old := n.conn
	n.conn = conn
	n.shards = fresh.shards
	n.mu.Unlock()
	old.Close()
	return nil
}

// Workers returns the crowd size the cluster is indexed by.
func (c *Coordinator) Workers() int { return c.workers }

// Slices returns the number of task slices the cluster is partitioned
// into — the routing width, fixed for the coordinator's lifetime.
func (c *Coordinator) Slices() int { return len(c.slices) }

// Nodes returns the number of live worker nodes across every slice.
func (c *Coordinator) Nodes() int {
	total := 0
	for _, s := range c.slices {
		s.mu.Lock()
		total += len(s.liveLocked())
		s.mu.Unlock()
	}
	return total
}

// LiveReplicas returns how many replicas of task slice si are still live.
func (c *Coordinator) LiveReplicas(si int) int {
	s := c.slices[si]
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.liveLocked())
}

// Close stops the self-healing monitor (if running) and closes every
// worker connection, live or down.
func (c *Coordinator) Close() error {
	c.StopMonitor()
	var first error
	for _, s := range c.slices {
		s.mu.Lock()
		for _, n := range s.replicas {
			n.mu.Lock()
			err := n.conn.Close()
			n.mu.Unlock()
			// Down replicas were already closed; their second Close's
			// error is noise.
			if first == nil && err != nil && n.state != Down {
				first = err
			}
		}
		s.mu.Unlock()
	}
	return first
}

// ReplicaHealth is one replica slot's entry in the membership view.
type ReplicaHealth struct {
	Slice    int       `json:"slice"`
	Replica  int       `json:"replica"`
	Node     string    `json:"node,omitempty"` // remote identity from the handshake
	State    string    `json:"state"`          // alive | suspect | down
	LastBeat time.Time `json:"last_beat"`      // last proof of life (probe or any RPC)
	Missed   int       `json:"missed"`         // consecutive missed heartbeats
	Reseeds  int       `json:"reseeds"`        // times the slot was re-seeded
}

// Membership returns the failure detector's view of every replica slot,
// in (slice, replica) order — what monitor_replica_state exports.
func (c *Coordinator) Membership() []ReplicaHealth {
	var view []ReplicaHealth
	for si, s := range c.slices {
		s.mu.Lock()
		for ri, n := range s.replicas {
			view = append(view, ReplicaHealth{
				Slice:    si,
				Replica:  ri,
				Node:     n.name,
				State:    n.state.String(),
				LastBeat: n.lastBeat,
				Missed:   n.missed,
				Reseeds:  n.reseeds,
			})
		}
		s.mu.Unlock()
	}
	return view
}

// Degraded returns the slices currently serving reads from their last-good
// cache because every replica is gone — statistics pulled from them are
// stale until a replica is reseeded and a validated pull lands. Empty
// means every slice is serving live.
func (c *Coordinator) Degraded() []int {
	var out []int
	for si, s := range c.slices {
		s.mu.Lock()
		if s.stale {
			out = append(out, si)
		}
		s.mu.Unlock()
	}
	return out
}

// sliceOf routes task t to its owning slice, deterministically, spreading
// contiguous task ranges evenly. It deliberately uses a different mixer
// (splitmix64's finalizer) than ShardedIncremental.shardOf: with the same
// hash at both levels, every task a slice receives would satisfy
// H(t) ≡ slice (mod slices), collapsing the node's local shard striping
// H(t) mod shards onto gcd(slices, shards) residues — one shard lock doing
// all the work whenever the counts share a factor.
func (c *Coordinator) sliceOf(t int) int {
	h := uint64(t) + 0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return int(h % uint64(len(c.slices)))
}

// roundTrip runs one serialized request/response on a node under the
// policy's deadline budget for the message class and checks the reply
// type.
func (n *node) roundTrip(p Policy, msgType byte, body []byte, wantReply byte) ([]byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.conn.SetTimeout(p.timeoutFor(msgType))
	replyType, reply, err := n.conn.roundTrip(msgType, body)
	if err != nil {
		return nil, err
	}
	if replyType != wantReply {
		return nil, fmt.Errorf("dist: unexpected reply 0x%02x to 0x%02x", replyType, msgType)
	}
	return reply, nil
}

// Add routes one response to its owning slice (every live replica). For
// throughput, prefer Ingest: it ships whole batches per slice in single
// frames.
func (c *Coordinator) Add(w, t int, r crowd.Response) error {
	if t < 0 {
		return fmt.Errorf("dist: negative task index %d", t)
	}
	batch := []responseRec{{Worker: w, Task: t, Answer: int(r)}}
	return c.ingestSlice(c.sliceOf(t), batch)
}

// Ingest routes a batch of responses: one frame per involved slice, fanned
// out to every live replica of the slice, slices in parallel. Responses
// for the same task always land on the same slice, in their order within
// the batch. On failure the errors of every failing slice are joined (in
// slice order). A slice refuses its part of the batch whole, so a refused
// part leaves nothing on its replicas or in its journal, but the parts
// other slices accepted stay ingested — a rejected response never
// corrupts state.
func (c *Coordinator) Ingest(batch []Response) error {
	perSlice := make([][]responseRec, len(c.slices))
	for _, s := range batch {
		if s.Task < 0 {
			return fmt.Errorf("dist: negative task index %d", s.Task)
		}
		si := c.sliceOf(s.Task)
		perSlice[si] = append(perSlice[si], responseRec{Worker: s.Worker, Task: s.Task, Answer: int(s.Answer)})
	}
	errs := make([]error, len(c.slices))
	var wg sync.WaitGroup
	for si, recs := range perSlice {
		if len(recs) == 0 {
			continue
		}
		wg.Add(1)
		go func(si int, recs []responseRec) {
			defer wg.Done()
			errs[si] = c.ingestSlice(si, recs)
		}(si, recs)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// counts pulls every slice's cheap running totals concurrently.
func (c *Coordinator) counts() (tasks, responses int, err error) {
	msgs := make([]countsMsg, len(c.slices))
	errs := make([]error, len(c.slices))
	var wg sync.WaitGroup
	for si := range c.slices {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			reply, err := c.broadcast(si, msgPullCounts, nil, msgCounts, true)
			if err != nil {
				errs[si] = err
				return
			}
			msgs[si], errs[si] = decodeCounts(reply)
		}(si)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, 0, err
	}
	for _, m := range msgs {
		if m.Tasks > tasks {
			tasks = m.Tasks
		}
		responses += m.Responses
	}
	return tasks, responses, nil
}

// Responses sums the slices' running response totals — a few bytes per
// slice, pulled concurrently, so the cost is one round-trip rather than a
// statistics merge. Streaming reviews may call this every batch.
func (c *Coordinator) Responses() (int, error) {
	_, responses, err := c.counts()
	return responses, err
}

// Tasks returns the task horizon across the cluster: the highest task
// index seen plus one.
func (c *Coordinator) Tasks() (int, error) {
	tasks, _, err := c.counts()
	return tasks, err
}

// MajorityDisagreement runs the paper's spammer screen over the cluster:
// each slice reports its integer attempted/disagree tallies (majorities
// are per task, and each task lives wholly in one slice, so the tallies
// are additive), the coordinator sums them and divides once — the same
// rates, bit for bit, as a local evaluator fed every response.
func (c *Coordinator) MajorityDisagreement() ([]float64, error) {
	attempted, disagree, err := c.tallies()
	if err != nil {
		return nil, err
	}
	rates := make([]float64, c.workers)
	for w := range rates {
		if attempted[w] > 0 {
			rates[w] = float64(disagree[w]) / float64(attempted[w])
		}
	}
	return rates, nil
}

// WorkerResponses returns how many responses each crowd worker has in the
// cluster: the attempted half of the spammer screen's tallies.
func (c *Coordinator) WorkerResponses() ([]int, error) {
	attempted, _, err := c.tallies()
	return attempted, err
}

// tallies sums every slice's per-worker attempted and disagree counts.
func (c *Coordinator) tallies() (attempted, disagree []int, err error) {
	attempted = make([]int, c.workers)
	disagree = make([]int, c.workers)
	type tally struct{ attempted, disagree []int }
	out := make([]tally, len(c.slices))
	errs := make([]error, len(c.slices))
	var wg sync.WaitGroup
	for si := range c.slices {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			reply, err := c.broadcast(si, msgPullDis, nil, msgDis, true)
			if err != nil {
				errs[si] = err
				return
			}
			out[si].attempted, out[si].disagree, errs[si] = decodeTallies(reply)
		}(si)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}
	for si, tl := range out {
		if len(tl.attempted) != c.workers {
			return nil, nil, fmt.Errorf("dist: slice %d reported tallies for %d workers, want %d", si, len(tl.attempted), c.workers)
		}
		for w := range attempted {
			attempted[w] += tl.attempted[w]
			disagree[w] += tl.disagree[w]
		}
	}
	return attempted, disagree, nil
}

// Merge brings every slice's statistics up to date (concurrently,
// validated across replicas) and returns a caller-owned copy of the merged
// counters. The counters are integers, so the merged state — and
// everything evaluated from it — is independent of pull timing and
// identical to a single evaluator's.
func (c *Coordinator) Merge() (*core.StatsAccumulator, error) {
	acc, err := c.pull()
	if err != nil {
		return nil, err
	}
	return acc.Clone(), nil
}

// pull brings every slice up to date concurrently and returns the running
// merge. It covers, per slice, every batch acknowledged before the pull
// began; a batch acknowledged while it runs may or may not be in it. The
// caller may evaluate on the result without copying it: the accumulator
// serializes its own mutation against evaluations.
func (c *Coordinator) pull() (*core.StatsAccumulator, error) {
	errs := make([]error, len(c.slices))
	var wg sync.WaitGroup
	for si := range c.slices {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			s := c.slices[si]
			s.mu.Lock()
			defer s.mu.Unlock()
			errs[si] = c.pullSliceLocked(si, s)
		}(si)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	c.mergeMu.Lock()
	defer c.mergeMu.Unlock()
	return c.merged, nil
}

// errResync reports a delta whose result does not match the worker's
// digest: the slice's stored state no longer describes what the worker
// holds and the slice must be reset.
var errResync = errors.New("dist: slice state out of step with its replicas")

// pullSliceLocked brings slice si's stored state, and with it the running
// merge, up to date; caller holds s.mu. The request carries the digest of
// the stored state as the cursor, so replicas that last shipped exactly
// that state answer with a delta. When their replies disagree on kind —
// one reset, one delta: a fresh, reseeded or restarted replica, or a reply
// that was lost after the worker moved its base — or a delta does not lead
// to the digest the replicas report, the slice is re-pulled without cursor
// from every replica, once, and so reset. Any other disagreement is
// divergence. With no live replica the stored state is served, flagged
// stale, unless the policy is strict.
func (c *Coordinator) pullSliceLocked(si int, s *slice) error {
	cursor := uint64(noCursor)
	if s.state != nil {
		cursor = s.state.Digest()
	}
	for {
		replies, err := c.fanoutLocked(si, s, msgPullDelta, encodeCursor(cursor), msgDelta)
		if errors.Is(err, ErrNoReplica) && c.degradedLocked(s, msgPullDelta) {
			return nil
		}
		if err != nil {
			return err
		}
		if !sameBytes(replies) {
			if cursor != noCursor && mixedKinds(replies) {
				cursor = noCursor
				continue
			}
			return fmt.Errorf("%w: slice %d replicas disagree on request 0x%02x", ErrDivergence, si, msgPullDelta)
		}
		r, err := decodePullReply(replies[0])
		if err != nil {
			return fmt.Errorf("dist: slice %d statistics: %w", si, err)
		}
		if cursor == noCursor && !r.Reset {
			return fmt.Errorf("%w: slice %d answered a pull without cursor with a delta", ErrCodec, si)
		}
		if err := c.foldLocked(si, s, r); err != nil {
			if errors.Is(err, errResync) && cursor != noCursor {
				cursor = noCursor
				continue
			}
			return err
		}
		s.stale = false
		return nil
	}
}

// mixedKinds reports whether the pull replies are not all of one kind.
func mixedKinds(replies [][]byte) bool {
	// replies[0] is visited first, so its kind byte exists when compared.
	for _, reply := range replies {
		if len(reply) == 0 || reply[0] != replies[0][0] {
			return true
		}
	}
	return false
}

// foldLocked applies one validated pull reply to slice si; caller holds
// s.mu. A reset starts the slice's stored state from the empty state. The
// delta is applied to the stored state and must lead to the worker's
// digest: a reset then rebuilds the merge, and a delta is folded into it
// in O(change). When a delta does not match, the stored state is dropped
// and errResync returned; when a reset does not, the reply is malformed.
func (c *Coordinator) foldLocked(si int, s *slice, r core.StatsCut) error {
	c.mergeMu.Lock()
	defer c.mergeMu.Unlock()
	if r.Reset {
		st, err := core.NewStatsAccumulator(c.workers)
		if err != nil {
			return err
		}
		s.state = st
	} else if s.state == nil {
		return errResync
	}
	err := s.state.ApplyDelta(r.Delta)
	if err == nil && s.state.Digest() != r.Digest {
		err = fmt.Errorf("%w: statistics do not match their digest", ErrCodec)
	}
	if err != nil {
		s.state = nil
		if err := c.rebuildLocked(); err != nil {
			return err
		}
		if r.Reset {
			return fmt.Errorf("dist: slice %d statistics: %w", si, err)
		}
		return errResync
	}
	if r.Reset {
		c.noteFullPull(si)
		return c.rebuildLocked()
	}
	if err := c.merged.ApplyDelta(r.Delta); err != nil {
		// The merge no longer extends into this delta (slices overlapping
		// in tasks): rebuild it from the stored states, which are current.
		return errors.Join(fmt.Errorf("dist: folding slice %d: %w", si, err), c.rebuildLocked())
	}
	return nil
}

// rebuildLocked recomputes the running merge from the slices' stored
// states; caller holds mergeMu.
func (c *Coordinator) rebuildLocked() error {
	m, err := core.NewStatsAccumulator(c.workers)
	if err != nil {
		return err
	}
	for _, s := range c.slices {
		if s.state != nil {
			if err := m.Merge(s.state); err != nil {
				return err
			}
		}
	}
	c.merged = m
	return nil
}

// Evaluate brings the statistics up to date and solves one worker's
// interval.
func (c *Coordinator) Evaluate(worker int, opts core.EvalOptions) (core.WorkerEstimate, error) {
	acc, err := c.pull()
	if err != nil {
		return core.WorkerEstimate{}, err
	}
	return acc.Evaluate(worker, opts)
}

// EvaluateAll brings every slice's statistics up to date and solves every
// worker's interval — the distributed form of
// ShardedIncremental.EvaluateAll, bit-identical to it on the same
// responses.
func (c *Coordinator) EvaluateAll(opts core.EvalOptions) ([]core.WorkerEstimate, error) {
	acc, err := c.pull()
	if err != nil {
		return nil, err
	}
	return acc.EvaluateAll(opts)
}

// EvaluateSubset brings the statistics up to date once, then solves only
// the listed workers.
func (c *Coordinator) EvaluateSubset(workers []int, opts core.EvalOptions) ([]core.WorkerEstimate, error) {
	acc, err := c.pull()
	if err != nil {
		return nil, err
	}
	return acc.EvaluateSubset(workers, opts)
}
