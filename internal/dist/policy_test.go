package dist

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

// TestBackoffSchedulePinned pins the retry schedule: exponential doubling
// from the base, capped, jittered into [d/2, d], and fully deterministic
// for a fixed (seed, key) — the property deployments rely on to reproduce
// an incident's timing from its logs.
func TestBackoffSchedulePinned(t *testing.T) {
	p := Policy{Backoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond, JitterSeed: 42}
	exp := []time.Duration{10, 20, 40, 80, 80, 80} // pre-jitter envelope, ms
	for attempt, ms := range exp {
		envelope := ms * time.Millisecond
		got := p.backoff(attempt, 7)
		if got < envelope/2 || got > envelope {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, got, envelope/2, envelope)
		}
		if again := p.backoff(attempt, 7); again != got {
			t.Fatalf("attempt %d: backoff not deterministic (%v then %v)", attempt, got, again)
		}
	}
	// Different keys (and different seeds) must spread the schedule:
	// retries across slots never fire in lockstep.
	spread := false
	for key := uint64(0); key < 8; key++ {
		if p.backoff(2, key) != p.backoff(2, key+100) {
			spread = true
			break
		}
	}
	if !spread {
		t.Fatal("jitter produced identical delays across every key")
	}
	other := p
	other.JitterSeed = 43
	diff := false
	for attempt := 0; attempt < 6; attempt++ {
		if p.backoff(attempt, 7) != other.backoff(attempt, 7) {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("jitter identical across seeds")
	}
	if d := (Policy{}).backoff(3, 1); d != 0 {
		t.Fatalf("zero policy backed off %v, want 0", d)
	}
}

// TestTimeoutClasses pins which budget each message class runs under.
func TestTimeoutClasses(t *testing.T) {
	p := Policy{RPCTimeout: 1 * time.Second, StateTimeout: 2 * time.Second, SweepTimeout: 3 * time.Second}
	cases := []struct {
		msgType byte
		want    time.Duration
	}{
		{msgIngest, p.RPCTimeout},
		{msgPullDelta, p.RPCTimeout},
		{msgPullCounts, p.RPCTimeout},
		{msgPing, p.RPCTimeout},
		{msgPullCompact, p.StateTimeout},
		{msgRestoreCompact, p.StateTimeout},
		{msgSweep, p.SweepTimeout},
	}
	for _, c := range cases {
		if got := p.timeoutFor(c.msgType); got != c.want {
			t.Errorf("timeoutFor(0x%02x) = %v, want %v", c.msgType, got, c.want)
		}
	}
}

// TestTransientClassification pins retry eligibility: transport failures
// retry, application verdicts never do.
func TestTransientClassification(t *testing.T) {
	transient := []error{
		os.ErrDeadlineExceeded,
		io.EOF,
		io.ErrUnexpectedEOF,
		io.ErrClosedPipe,
		net.ErrClosed,
		&net.OpError{Op: "read", Err: errors.New("connection reset by peer")},
		fmt.Errorf("wrapped: %w", os.ErrDeadlineExceeded),
		errors.New("some unknown transport failure"), // unknown defaults transient
	}
	for _, err := range transient {
		if !Transient(err) {
			t.Errorf("Transient(%v) = false, want true", err)
		}
	}
	permanent := []error{
		&RemoteError{Msg: "bad response"},
		fmt.Errorf("call failed: %w", &RemoteError{Msg: "wrapped"}),
		ErrDivergence,
		fmt.Errorf("%w: slice 3", ErrDivergence),
		ErrCodec,
		errFrameTooBig,
		errResync,
	}
	for _, err := range permanent {
		if Transient(err) {
			t.Errorf("Transient(%v) = true, want false", err)
		}
	}
	if Transient(nil) {
		t.Error("Transient(nil) = true")
	}
}

// TestIdempotentClassification pins which requests the retry layer may
// re-send: every read-only pull, ping and sweep — and never ingest, whose
// re-send would trip duplicate rejection on replicas that already applied
// the timed-out batch.
func TestIdempotentClassification(t *testing.T) {
	yes := []byte{msgPullDelta, msgPullCounts, msgPullDis, msgPullTotal, msgPullCompact, msgPing, msgSweep}
	for _, m := range yes {
		if !idempotent(m) {
			t.Errorf("idempotent(0x%02x) = false, want true", m)
		}
	}
	no := []byte{msgIngest, msgRestoreCompact, msgHello}
	for _, m := range no {
		if idempotent(m) {
			t.Errorf("idempotent(0x%02x) = true, want false", m)
		}
	}
}

// TestDegradableClassification pins which reads may still be answered when
// every replica of a slice is gone: the read-only pulls — the statistics
// pull from the coordinator's stored slice state, the others from their
// last validated reply — and never a write or a state transfer.
func TestDegradableClassification(t *testing.T) {
	for _, m := range []byte{msgPullDelta, msgPullCounts, msgPullDis, msgPullTotal} {
		if !degradable(m) {
			t.Errorf("degradable(0x%02x) = false, want true", m)
		}
	}
	for _, m := range []byte{msgIngest, msgRestoreCompact, msgPullCompact, msgPing, msgSweep, msgHello} {
		if degradable(m) {
			t.Errorf("degradable(0x%02x) = true, want false", m)
		}
	}
}

// TestHelloCarriesIdentity round-trips the v3 handshake payload: name and
// incarnation survive, oversized names are truncated rather than rejected.
func TestHelloCarriesIdentity(t *testing.T) {
	in := helloMsg{Version: ProtocolVersion, Workers: 12, Shards: 4, Name: "worker-7:9041", Instance: 0xDEADBEEF}
	out, err := decodeHello(encodeHello(in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("hello round-trip: got %+v, want %+v", out, in)
	}
	long := in
	for len(long.Name) <= maxNodeName {
		long.Name += long.Name
	}
	out, err = decodeHello(encodeHello(long))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Name) != maxNodeName {
		t.Fatalf("oversized name encoded to %d bytes, want truncation to %d", len(out.Name), maxNodeName)
	}
}

// TestRetryRecoversFromReset: a reset connection plus a working dialer
// means a read retry succeeds against the same incarnation — while the
// same reset reaching a RESTARTED (different-incarnation) node must fail
// rather than silently pull hollow statistics from an empty evaluator.
func TestRetryRecoversFromReset(t *testing.T) {
	const crowdSize = 8
	w, addr := serveWorkerOn(t, "", crowdSize, "resettable")
	conn, err := DialTCPTimeout(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	policy := chaosPolicy()
	coord, err := NewCluster(crowdSize, [][]ReplicaSpec{{{
		Conn: conn,
		Dial: func() (*Conn, error) { return DialTCPTimeout(addr, 5*time.Second) },
	}}}, policy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	subs := testStream(t, crowdSize, 60, 11)
	var batch []Response
	for _, s := range subs {
		batch = append(batch, Response{Worker: s.w, Task: s.t, Answer: s.r})
	}
	if err := coord.Ingest(batch); err != nil {
		t.Fatal(err)
	}
	want, err := coord.Responses()
	if err != nil {
		t.Fatal(err)
	}

	// Same incarnation: cut the wire, the pull reconnects and succeeds.
	n := coord.slices[0].replicas[0]
	n.mu.Lock()
	n.conn.Close()
	n.mu.Unlock()
	got, err := coord.Responses()
	if err != nil {
		t.Fatalf("pull after reset should retry through the dialer: %v", err)
	}
	if got != want {
		t.Fatalf("retried pull returned %d responses, want %d", got, want)
	}

	// Different incarnation: replace the process; the retry must refuse
	// the empty impostor. (StrictReads isolates the refusal from the
	// degraded-read path.)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	serveWorkerOn(t, addr, crowdSize, "resettable-reborn")
	coord.policy.StrictReads = true
	if _, err := coord.Responses(); err == nil {
		t.Fatal("pull against a restarted incarnation succeeded; hollow statistics adopted")
	} else if !errors.Is(err, ErrNoReplica) {
		t.Fatalf("want ErrNoReplica (slot retired for reseed), got: %v", err)
	}
}
