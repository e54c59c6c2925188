package dist

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"crowdassess/internal/core"
	"crowdassess/internal/store"
)

// Liveness is a replica's failure-detector state.
type Liveness int

const (
	// Alive: answering probes (or any RPC) within the policy budget.
	Alive Liveness = iota
	// Suspect: missed at least MonitorOptions.SuspectAfter consecutive
	// heartbeats. Still served and still in every fan-out — suspicion is
	// a warning, not a verdict — but one the membership view surfaces.
	Suspect
	// Down: the connection broke, or DownAfter heartbeats went
	// unanswered. Out of every fan-out; only a reseed (automatic or
	// RestoreNode) brings the slot back.
	Down
)

// String renders the state the way health endpoints report it.
func (l Liveness) String() string {
	switch l {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	}
	return fmt.Sprintf("liveness(%d)", int(l))
}

// node is one replica slot; mu serializes request/response round-trips on
// its connection. The failure-detector fields (state, lastBeat, missed,
// reseeds, lastReseed) are guarded by the owning slice's mu, like the old
// down flag was.
type node struct {
	mu       sync.Mutex
	conn     *Conn
	shards   int    // node-local shard count, from the handshake
	name     string // remote identity, from the handshake (may be empty)
	instance uint64 // remote incarnation, from the handshake (0 = unreported)
	id       uint64 // stable slot identity (slice<<32|replica): backoff jitter key

	dial func() (*Conn, error) // reconnects to (a replacement for) this slot; nil = not redialable

	state      Liveness
	lastBeat   time.Time // last proof of life: successful probe or RPC
	missed     int       // consecutive missed heartbeats
	reseeds    int       // times this slot was re-seeded with a fresh node
	lastReseed time.Time // last reseed attempt, for the rate limit
}

// slice is one task slice and the replica set that jointly owns it. mu
// serializes the slice's state-bearing operations — an ingest fan-out
// completes on every live replica before any statistics pull observes the
// slice, so live replicas are always in lockstep at pull time and a
// byte-level comparison of their canonical replies is a sound divergence
// check, not a race.
type slice struct {
	mu       sync.Mutex
	replicas []*node

	// state is the slice's statistics as of the last validated pull: the
	// base the next delta folds onto, and what statistics reads serve when
	// every replica is gone. nil until the first pull lands. Written only
	// under both mu and the coordinator's mergeMu (coordinator.go).
	state *core.StatsAccumulator
	// lastGood caches the authoritative reply of the latest validated
	// pull, per message type, for the other read-only pulls: what degraded
	// reads serve when every replica of the slice is gone. stale marks the
	// slice as currently serving from state or this cache.
	lastGood map[byte][]byte
	stale    bool

	// store, when attached (AttachSliceStores), is the slice's durable
	// engine: acknowledged fan-outs are journaled to its WAL and compact
	// checkpoints cut into its snapshot store, so the slice survives the
	// loss of every replica.
	store *store.Store
}

// liveLocked returns the non-down replicas in attach order; caller holds
// s.mu. Suspect replicas are included: they still hold the slice's state
// and still answer — suspicion only primes the detector.
func (s *slice) liveLocked() []*node {
	live := make([]*node, 0, len(s.replicas))
	for _, n := range s.replicas {
		if n.state != Down {
			live = append(live, n)
		}
	}
	return live
}

// beatLocked records proof of life; caller holds the owning slice's mu. A
// down node is never resurrected by a late reply — its connection is
// already closed; only a reseed brings the slot back.
func beatLocked(n *node, at time.Time) {
	if n.state == Down {
		return
	}
	n.lastBeat = at
	n.missed = 0
	n.state = Alive
}

// ErrNoReplica reports that every replica of a task slice is gone: the
// slice cannot serve until a node is attached with RestoreNodeFromStore,
// or RestoreNode with a compact seed, since no live source remains.
var ErrNoReplica = errors.New("dist: no live replica for task slice")

// ErrDivergence reports that two live replicas of one slice returned
// different statistics for the same responses — corruption or out-of-band
// writes, never timing (slice operations are serialized). The cluster
// refuses to pick a side; detach the bad replica and restore it from a
// healthy one.
var ErrDivergence = errors.New("dist: replica divergence")

// isRemote reports whether err is an application-level worker rejection
// (node healthy, request refused) rather than a transport failure.
func isRemote(err error) bool {
	var re *RemoteError
	return errors.As(err, &re)
}

// markDownLocked retires a replica whose connection failed; caller holds
// the owning slice's mu.
func markDownLocked(n *node) {
	n.state = Down
	n.conn.Close()
}

// degradable reports whether a read may still be served when every replica
// of its slice is gone: only the read-only pulls. The statistics pull
// serves the slice's stored state (pullSliceLocked), the others their last
// validated reply. Writes (ingest) and state transfers never degrade.
func degradable(msgType byte) bool {
	switch msgType {
	case msgPullDelta, msgPullCounts, msgPullDis:
		return true
	}
	return false
}

// broadcast runs one request on every live replica of slice si and
// returns one authoritative reply (see fanoutLocked). With validate set,
// all surviving replies must be byte-identical (the codec is canonical, so
// equal state ⇔ equal bytes); a mismatch is ErrDivergence.
//
// A read-only pull against a slice with no live replica degrades to the
// cached reply of the last validated pull — flagged via Degraded — unless
// the policy opts into StrictReads, which preserves ErrNoReplica.
func (c *Coordinator) broadcast(si int, msgType byte, body []byte, wantReply byte, validate bool) ([]byte, error) {
	s := c.slices[si]
	s.mu.Lock()
	defer s.mu.Unlock()
	return c.broadcastLocked(si, s, msgType, body, wantReply, validate)
}

func (c *Coordinator) broadcastLocked(si int, s *slice, msgType byte, body []byte, wantReply byte, validate bool) ([]byte, error) {
	replies, err := c.fanoutLocked(si, s, msgType, body, wantReply)
	if errors.Is(err, ErrNoReplica) && c.degradedLocked(s, msgType) {
		return s.lastGood[msgType], nil
	}
	if err != nil {
		return nil, err
	}
	if validate {
		if !sameBytes(replies) {
			return nil, fmt.Errorf("%w: slice %d replicas disagree on request 0x%02x", ErrDivergence, si, msgType)
		}
		if degradable(msgType) {
			if s.lastGood == nil {
				s.lastGood = make(map[byte][]byte)
			}
			s.lastGood[msgType] = replies[0]
			s.stale = false
		}
	}
	return replies[0], nil
}

// sameBytes reports whether every reply is byte-identical to the first.
func sameBytes(replies [][]byte) bool {
	for _, reply := range replies[1:] {
		if !bytes.Equal(replies[0], reply) {
			return false
		}
	}
	return true
}

// fanoutLocked runs one request on every live replica of slice si
// concurrently and returns the replies of those that answered, in attach
// order; caller holds s.mu. Transport failures mark the replica down and
// the call proceeds on the survivors; an application-level rejection
// (RemoteError) is returned without touching liveness — every replica
// holds the same state and rejects the same requests. When no replica
// answers, the error wraps ErrNoReplica, joined with the transport errors
// that emptied the slice if this very call did.
func (c *Coordinator) fanoutLocked(si int, s *slice, msgType byte, body []byte, wantReply byte) ([][]byte, error) {
	live := s.liveLocked()
	if len(live) == 0 {
		return nil, fmt.Errorf("%w %d", ErrNoReplica, si)
	}
	replies := make([][]byte, len(live))
	errs := make([]error, len(live))
	var wg sync.WaitGroup
	for i, n := range live {
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			replies[i], errs[i] = c.call(n, msgType, body, wantReply)
		}(i, n)
	}
	wg.Wait()
	now := time.Now()
	var appErr error
	var lost []error
	ok := replies[:0]
	for i, n := range live {
		switch {
		case errs[i] == nil:
			beatLocked(n, now)
			ok = append(ok, replies[i])
		case isRemote(errs[i]):
			// The node answered — it is alive — but refused the request.
			beatLocked(n, now)
			if appErr == nil {
				appErr = errs[i]
			}
		default:
			markDownLocked(n)
			lost = append(lost, errs[i])
		}
	}
	if appErr != nil {
		return nil, appErr
	}
	if len(ok) == 0 {
		return nil, fmt.Errorf("%w %d: %w", ErrNoReplica, si, errors.Join(lost...))
	}
	return ok, nil
}

// degradedLocked decides a request against a slice with no live replica:
// it reports whether the request is answered from what the coordinator
// stored at the slice's last validated pull — the slice state for a
// statistics pull, the cached reply for the other read-only pulls — and
// marks the slice stale if so. Writes, a strict policy, and a slice that
// died before its first validated pull get ErrNoReplica instead.
func (c *Coordinator) degradedLocked(s *slice, msgType byte) bool {
	if c.policy.StrictReads || !degradable(msgType) {
		return false
	}
	stored := s.state != nil
	if msgType != msgPullDelta {
		_, stored = s.lastGood[msgType]
	}
	if stored {
		s.stale = true
	}
	return stored
}

// RestoreNode attaches a replacement node to task slice si and brings it
// up to date before it serves: the newcomer is handshaken, seeded with a
// compact restore — the slice's state pulled from every live replica (and
// byte-validated across them) when seed is nil, or the given compact state
// otherwise — and only then joins the replica set. The slice is locked for
// the duration, so no batch can land between the seed and the attach; the
// newcomer is in lockstep from its first fan-out. The transfer is
// O(statistics): pairwise counters plus attendance and answer bitsets,
// never the response history.
//
// A seed can only join a slice whose live replicas hold exactly the seeded
// state (verified before anything is sent); restoring a stale seed next to
// live survivors would hand the validator a guaranteed divergence. When
// every replica of the slice is gone, the seed is the recovery path —
// re-ingest whatever the stream carried after the seed's cut, and the slice
// is whole again (RestoreNodeFromStore does exactly that from the slice's
// store).
//
// The coordinator takes ownership of conn; it is closed if the restore
// fails at any step.
func (c *Coordinator) RestoreNode(si int, conn *Conn, seed *core.CompactState) error {
	n, err := c.replacement(si, conn)
	if err != nil {
		return err
	}
	s := c.slices[si]
	s.mu.Lock()
	defer s.mu.Unlock()
	live, err := c.broadcastLocked(si, s, msgPullCompact, nil, msgCompact, true)
	switch {
	case err != nil && seed == nil:
		conn.Close()
		return fmt.Errorf("dist: no live source to restore slice %d from (pass a compact seed): %w", si, err)
	case err != nil && !errors.Is(err, ErrNoReplica):
		conn.Close()
		return err
	}
	payload := live
	if seed != nil {
		if payload, err = EncodeCompact(seed); err != nil {
			conn.Close()
			return err
		}
		if live != nil && !bytes.Equal(payload, live) {
			conn.Close()
			return fmt.Errorf("dist: seed is stale against slice %d's live replicas — restore from a replica (nil seed) instead", si)
		}
	}
	if _, err := n.roundTrip(c.policy, msgRestoreCompact, payload, msgRestoreOK); err != nil {
		conn.Close()
		return fmt.Errorf("dist: seeding replacement for slice %d: %w", si, err)
	}
	s.attachLocked(si, n, time.Now())
	return nil
}

// replacement handshakes conn as a replacement node for task slice si,
// closing it on failure.
func (c *Coordinator) replacement(si int, conn *Conn) (*node, error) {
	if si < 0 || si >= len(c.slices) {
		conn.Close()
		return nil, fmt.Errorf("dist: slice %d out of range 0…%d", si, len(c.slices)-1)
	}
	conn.SetTimeout(c.policy.RPCTimeout)
	c.instrumentConn(conn)
	n, err := handshake(c.workers, conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("dist: handshake with replacement for slice %d: %w", si, err)
	}
	return n, nil
}

// attachLocked installs a seeded replacement into the replica set; caller
// holds s.mu. The first down slot is replaced in place — the newcomer
// inherits the slot's identity, dialer and reseed history — so repeated
// failures do not grow the replica list without bound. With no down slot
// the node joins as a net-new replica.
func (s *slice) attachLocked(si int, n *node, at time.Time) {
	n.lastBeat = at
	for ri, old := range s.replicas {
		if old.state == Down {
			n.id = old.id
			if n.dial == nil {
				n.dial = old.dial
			}
			n.reseeds = old.reseeds + 1
			n.lastReseed = at
			s.replicas[ri] = n
			return
		}
	}
	n.id = uint64(si)<<32 | uint64(len(s.replicas))
	s.replicas = append(s.replicas, n)
}
