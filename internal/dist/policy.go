package dist

import (
	"errors"
	"io"
	"net"
	"os"
	"time"
)

// Policy bounds every failure mode a cluster operation can hit: how long
// dials and round-trips may take, how often idempotent requests are
// retried and with what backoff, and whether reads may degrade to stale
// statistics when a task slice loses its last replica. A zero Policy means
// "no bounds" — the pre-policy behavior — so existing callers keep their
// semantics; DefaultPolicy is what deployments should start from.
//
// Timeouts are progress-based, not end-to-end: a deadline covers each
// frame chunk (transport.go re-arms it as bytes move), so a multi-gigabyte
// state transfer is never killed for being large, only for stalling.
type Policy struct {
	// DialTimeout bounds establishing a (replacement) connection to a
	// worker, handshake included. 0 means unbounded.
	DialTimeout time.Duration
	// RPCTimeout bounds ordinary control-plane round-trips — ingest,
	// statistics/counts/tally pulls, heartbeats. It is armed per frame
	// chunk on both the request and the awaited reply. 0 means unbounded.
	RPCTimeout time.Duration
	// StateTimeout bounds compact state-transfer round-trips (pulls and
	// restores), whose worker-side work — validating and installing a
	// slice's whole state — legitimately dwarfs an ordinary RPC. 0 means
	// unbounded.
	StateTimeout time.Duration
	// Retries is how many times an idempotent request (statistics pulls,
	// heartbeats — never ingest, which is not idempotent) is re-attempted
	// after a transient failure, reconnecting first when the node carries
	// a dialer. 0 disables retries.
	Retries int
	// Backoff is the base delay before the first retry; each further
	// retry doubles it, capped at MaxBackoff, with deterministic jitter
	// in [d/2, d] (seeded by JitterSeed) so a fleet of coordinators never
	// retries in lockstep.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// JitterSeed seeds the deterministic backoff jitter. Two coordinators
	// with different seeds spread their retries; one coordinator replays
	// the same schedule for the same seed, which is what the backoff
	// tests pin.
	JitterSeed uint64
	// StrictReads restores the pre-degradation contract: a statistics,
	// counts or tally pull against a slice with no live replica fails
	// with ErrNoReplica even when a last-merged copy is cached. Leave it
	// false to serve stale (flagged via Coordinator.Degraded) instead of
	// failing reads outright.
	StrictReads bool
}

// DefaultPolicy is the deployment starting point: generous enough that a
// healthy cluster never trips it, tight enough that a wedged peer is cut
// loose in seconds, not forever.
func DefaultPolicy() Policy {
	return Policy{
		DialTimeout:  5 * time.Second,
		RPCTimeout:   30 * time.Second,
		StateTimeout: 10 * time.Minute,
		Retries:      2,
		Backoff:      50 * time.Millisecond,
		MaxBackoff:   2 * time.Second,
	}
}

// timeoutFor maps a message type to the policy budget its round-trip runs
// under.
func (p Policy) timeoutFor(msgType byte) time.Duration {
	switch msgType {
	case msgPullCompact, msgRestoreCompact:
		return p.StateTimeout
	default:
		return p.RPCTimeout
	}
}

// splitmix64 is the 64-bit finalizer used for deterministic jitter; the
// same mixer the slice router uses, applied to a different stream.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// backoff returns the delay before retry attempt (0-based), for the retry
// stream identified by key: exponential doubling from Policy.Backoff,
// capped at MaxBackoff, with deterministic jitter in [d/2, d]. A
// non-positive base disables backoff entirely.
func (p Policy) backoff(attempt int, key uint64) time.Duration {
	if p.Backoff <= 0 {
		return 0
	}
	d := p.Backoff
	for i := 0; i < attempt; i++ {
		d *= 2
		if p.MaxBackoff > 0 && d >= p.MaxBackoff {
			d = p.MaxBackoff
			break
		}
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	// Jitter in [d/2, d]: enough spread to break lockstep, a floor so a
	// retry never fires immediately into the same congestion.
	half := d / 2
	if half <= 0 {
		return d
	}
	j := splitmix64(p.JitterSeed ^ splitmix64(key^uint64(attempt)))
	return half + time.Duration(j%uint64(half+1))
}

// Transient reports whether an RPC failure is worth retrying (against the
// same node after a reconnect, or a sibling replica): timeouts, resets,
// closed or broken connections — the failures a flaky network or a
// restarting peer produces. Application-level failures are never
// transient: a *RemoteError means the node is healthy and rejected the
// request (every replica would reject it identically), ErrDivergence means
// replica state disagrees (retrying re-reads the same disagreement), and
// ErrCodec means a malformed frame (a peer speaking garbage does not
// recover by being asked again).
func Transient(err error) bool {
	if err == nil {
		return false
	}
	if isRemote(err) || errors.Is(err, ErrDivergence) || errors.Is(err, ErrCodec) || errors.Is(err, errFrameTooBig) {
		return false
	}
	// errResync is settled inside the statistics pull by one reset;
	// re-sending the same delta request would only repeat it.
	if errors.Is(err, errResync) {
		return false
	}
	// ErrNoReplica means the slice lost every replica: a retry cannot
	// conjure one — recovery is the monitor's reseed (or a degraded read),
	// not the RPC layer's.
	if errors.Is(err, ErrNoReplica) {
		return false
	}
	if errors.Is(err, os.ErrDeadlineExceeded) ||
		errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	var op *net.OpError
	if errors.As(err, &op) {
		// Connection-level syscall failures: reset, refused, broken pipe.
		return true
	}
	// Unrecognized transport failures default to transient: the cost of a
	// wasted retry is a backoff delay, the cost of misclassifying a
	// recoverable blip as permanent is a downed replica.
	return true
}
