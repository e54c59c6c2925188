package dist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"time"
)

// Message types. Every frame is one message: a 4-byte big-endian payload
// length, a type byte, then the type's body.
const (
	msgHello    byte = 0x01 // coordinator → worker: helloMsg
	msgHelloOK  byte = 0x02 // worker → coordinator: helloMsg
	msgIngest   byte = 0x03 // coordinator → worker: response batch
	msgIngestOK byte = 0x04 // worker → coordinator: running response total
	// 0x05 and 0x06 carried the full-statistics pull before protocol 5.
	// 0x07 and 0x08 carried the replicate sweep before protocol 7.
	msgError byte = 0x09 // worker → coordinator: UTF-8 failure text
	// 0x0a carried the response-total pull before protocol 7.
	msgPullCounts byte = 0x0b // coordinator → worker: empty
	msgCounts     byte = 0x0c // worker → coordinator: countsMsg
	msgPullDis    byte = 0x0d // coordinator → worker: empty
	msgDis        byte = 0x0e // worker → coordinator: disagreement tallies
	// 0x0f–0x11 carried the response-log snapshot transfer before protocol 6.
	msgRestoreOK byte = 0x12 // worker → coordinator: countsMsg after restore
	msgPing      byte = 0x13 // coordinator → worker: empty heartbeat probe
	msgPong      byte = 0x14 // worker → coordinator: countsMsg liveness reply

	msgPullCompact    byte = 0x15 // coordinator → worker: empty
	msgCompact        byte = 0x16 // worker → coordinator: EncodeCompact payload
	msgRestoreCompact byte = 0x17 // coordinator → worker: EncodeCompact payload

	msgPullDelta byte = 0x18 // coordinator → worker: encodeCursor
	msgDelta     byte = 0x19 // worker → coordinator: reset or delta pull reply
)

// maxFrame bounds an ordinary frame payload (type byte included): the
// pairwise counter triangle grows quadratically, and a statistics reset
// spends six or more bytes on each non-zero pair of a large crowd (two
// two-byte indices and two counts), so 64 MiB carries crowds up to about
// 4 700 workers — past every deployment this protocol targets — while
// keeping a corrupt length prefix from making a peer allocate unbounded
// memory. A worker whose statistics outgrow it replies msgError rather
// than dropping the connection.
const maxFrame = 1 << 26

// maxSnapFrame bounds compact state-transfer frames (msgCompact,
// msgRestoreCompact). They carry no response log, but their attendance and
// answer bitsets scale with workers×tasks and outgrow maxFrame on the very
// long-horizon nodes whose recovery paths must not fail. Oversized frames
// are only admitted after the type byte proves them a state transfer, and
// the receiver allocates incrementally as bytes actually arrive, so a
// lying length prefix costs an attacker the bytes it claims.
const maxSnapFrame = 1 << 30

// snapshotFrame reports whether a message type carries compact state
// transfer and may use the larger frame cap.
func snapshotFrame(msgType byte) bool {
	switch msgType {
	case msgCompact, msgRestoreCompact:
		return true
	}
	return false
}

// frameCap returns the payload bound (type byte included) for a message
// type.
func frameCap(msgType byte) int {
	if snapshotFrame(msgType) {
		return maxSnapFrame
	}
	return maxFrame
}

// errFrameTooBig tags send-side frame-cap violations, so a worker can
// distinguish "my reply is too large" (report it) from a broken pipe
// (hang up).
var errFrameTooBig = errors.New("dist: frame exceeds limit")

// deadliner is the per-direction deadline surface net.Conn and net.Pipe
// both provide; transports without it (plain files, test buffers) simply
// run unbounded.
type deadliner interface {
	SetReadDeadline(time.Time) error
	SetWriteDeadline(time.Time) error
}

// frameChunk is the unit deadlines are armed over: a frame larger than
// this has its deadline re-armed as each chunk completes, so timeouts
// measure stall, not size — a huge-but-moving state transfer survives, a
// peer frozen mid-frame is cut loose within one budget.
const frameChunk = 1 << 22

// RPCObserver observes one completed request/response round-trip on a
// Conn: the message type, request and reply payload sizes, the elapsed
// time, and the outcome. Observers must be fast and must not call back
// into the connection; they run on the round-tripping goroutine.
type RPCObserver func(msgType byte, sentBytes, recvBytes int, elapsed time.Duration, err error)

// Conn is one framed, bidirectional coordinator↔worker byte stream. The
// same frame codec runs over every transport; TCP and the in-process pipe
// differ only in the underlying ReadWriteCloser. A Conn is not safe for
// concurrent use by itself — the coordinator serializes request/response
// round-trips per connection, and a worker serves each connection from one
// goroutine.
type Conn struct {
	rw io.ReadWriteCloser
	br *bufio.Reader
	bw *bufio.Writer

	// observe, when set, is invoked after every roundTrip; obsNow is the
	// clock it is timed with (injected so instrumented deployments own
	// their clock — see internal/obs). Mutated only between round-trips
	// by the conn's owner, like timeout.
	observe RPCObserver
	obsNow  func() time.Time

	// timeout bounds every send and recv, armed per frame chunk; 0 runs
	// unbounded. Mutated only between round-trips by the conn's owner
	// (the coordinator holds the node lock, a worker serves from one
	// goroutine), never concurrently with I/O.
	timeout time.Duration
	// idleWait makes recv wait for the first byte of a frame without a
	// deadline — the worker side, where an idle coordinator connection is
	// healthy — while still bounding the rest of the frame once it has
	// begun. Coordinators leave it false: a reply they are waiting on is
	// already due.
	idleWait bool
	dl       deadliner // c.rw's deadline surface, nil when it has none
}

// NewConn frames an arbitrary byte stream. The caller hands over ownership:
// Close closes the underlying stream.
func NewConn(rw io.ReadWriteCloser) *Conn {
	c := &Conn{rw: rw, br: bufio.NewReader(rw), bw: bufio.NewWriter(rw)}
	c.dl, _ = rw.(deadliner)
	return c
}

// SetTimeout bounds every subsequent frame send and receive on the
// connection: the deadline is armed per frame chunk, so it trips on a
// stalled peer, never on a large-but-moving transfer. 0 removes the bound.
// It is a no-op on transports without deadline support. Not safe to call
// concurrently with an in-flight send or recv — set it between
// round-trips, under whatever lock serializes them.
func (c *Conn) SetTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.timeout = d
}

// SetObserver installs fn to observe every subsequent roundTrip on the
// connection, timed with now (nil selects the wall clock). Like
// SetTimeout it must be called between round-trips, under whatever lock
// serializes them; nil fn removes the observer.
func (c *Conn) SetObserver(fn RPCObserver, now func() time.Time) {
	c.observe = fn
	if now == nil {
		now = time.Now
	}
	c.obsNow = now
}

// setIdleWait selects the worker-side receive discipline: waiting for the
// first byte of the next request is unbounded (idle connections are
// healthy), but once a frame has begun the remainder must keep arriving
// within the timeout — a coordinator that stalls mid-frame cannot wedge
// the serving goroutine, or the drain in Worker.Close, forever.
func (c *Conn) setIdleWait(v bool) { c.idleWait = v }

// armRead re-arms the read deadline for the next chunk; clear removes it.
func (c *Conn) armRead() error {
	if c.dl == nil {
		return nil
	}
	if c.timeout <= 0 {
		return c.dl.SetReadDeadline(time.Time{})
	}
	return c.dl.SetReadDeadline(time.Now().Add(c.timeout))
}

func (c *Conn) clearRead() error {
	if c.dl == nil {
		return nil
	}
	return c.dl.SetReadDeadline(time.Time{})
}

// armWrite re-arms the write deadline for the next chunk.
func (c *Conn) armWrite() error {
	if c.dl == nil {
		return nil
	}
	if c.timeout <= 0 {
		return c.dl.SetWriteDeadline(time.Time{})
	}
	return c.dl.SetWriteDeadline(time.Now().Add(c.timeout))
}

// DialTCP connects to a crowdd worker listening on addr, unbounded.
func DialTCP(addr string) (*Conn, error) { return DialTCPTimeout(addr, 0) }

// DialTCPTimeout connects to a crowdd worker listening on addr, giving up
// after the timeout (0 = unbounded). The timeout covers the TCP connect
// only; arm per-RPC deadlines with Conn.SetTimeout (the coordinator does
// this from its Policy).
func DialTCPTimeout(addr string, timeout time.Duration) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("dist: dial %s: %w", addr, err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		// Frames are already write-buffered and flushed whole.
		tc.SetNoDelay(true)
		tc.SetKeepAlive(true)
		tc.SetKeepAlivePeriod(30 * time.Second)
	}
	return NewConn(nc), nil
}

// Pipe returns two connected in-process conns: the transport tests and
// single-process deployments use, with the exact frame codec the TCP path
// runs.
func Pipe() (*Conn, *Conn) {
	a, b := net.Pipe()
	return NewConn(a), NewConn(b)
}

// send writes one frame and flushes it, under the connection's write
// deadline (re-armed per chunk — stall-based, not size-based). An
// oversized body is rejected before any bytes hit the wire, so the
// connection stays framed.
func (c *Conn) send(msgType byte, body []byte) error {
	if limit := frameCap(msgType); len(body)+1 > limit {
		return fmt.Errorf("%w: %d bytes (limit %d)", errFrameTooBig, len(body)+1, limit)
	}
	if err := c.armWrite(); err != nil {
		return err
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)+1))
	if _, err := c.bw.Write(hdr[:]); err != nil {
		return err
	}
	if err := c.bw.WriteByte(msgType); err != nil {
		return err
	}
	for off := 0; off < len(body); off += frameChunk {
		if err := c.armWrite(); err != nil {
			return err
		}
		if _, err := c.bw.Write(body[off:min(off+frameChunk, len(body))]); err != nil {
			return err
		}
	}
	if err := c.armWrite(); err != nil {
		return err
	}
	return c.bw.Flush()
}

// recv reads one frame, enforcing the per-type length cap and the
// connection's read deadline (re-armed per chunk). In idle-wait mode the
// first byte of a frame is waited for without a deadline; from that byte
// on, the frame must keep arriving. Payloads past maxFrame (state
// transfers) are read in bounded chunks, growing the buffer only as bytes
// arrive.
func (c *Conn) recv() (byte, []byte, error) {
	var hdr [4]byte
	if c.idleWait {
		if err := c.clearRead(); err != nil {
			return 0, nil, err
		}
		first, err := c.br.ReadByte()
		if err != nil {
			return 0, nil, err
		}
		hdr[0] = first
		if err := c.armRead(); err != nil {
			return 0, nil, err
		}
		if _, err := io.ReadFull(c.br, hdr[1:]); err != nil {
			return 0, nil, err
		}
	} else {
		if err := c.armRead(); err != nil {
			return 0, nil, err
		}
		if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
			return 0, nil, err
		}
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return 0, nil, fmt.Errorf("%w: empty frame", ErrCodec)
	}
	if n > maxSnapFrame {
		return 0, nil, fmt.Errorf("%w: frame of %d bytes exceeds limit %d", ErrCodec, n, maxSnapFrame)
	}
	msgType, err := c.br.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	if int(n) > frameCap(msgType) {
		return 0, nil, fmt.Errorf("%w: frame of %d bytes exceeds limit %d for message 0x%02x", ErrCodec, n, frameCap(msgType), msgType)
	}
	total := int(n) - 1
	payload := make([]byte, 0, min(total, frameChunk))
	for len(payload) < total {
		if err := c.armRead(); err != nil {
			return 0, nil, err
		}
		k := min(frameChunk, total-len(payload))
		start := len(payload)
		payload = slices.Grow(payload, k)[:start+k]
		if _, err := io.ReadFull(c.br, payload[start:]); err != nil {
			return 0, nil, err
		}
	}
	return msgType, payload, nil
}

// Close closes the underlying stream.
func (c *Conn) Close() error { return c.rw.Close() }

// RemoteError is an application-level failure a worker reported in a
// msgError frame: the node is healthy and the connection intact, the
// request itself was rejected (a bad response in a batch, an oversized
// reply). The replication layer distinguishes it from transport failures —
// a RemoteError leaves a replica live (every replica of the slice rejects
// the same request identically), while a broken connection marks it down.
type RemoteError struct {
	Msg string
}

func (e *RemoteError) Error() string { return "dist: worker error: " + e.Msg }

// roundTrip sends a request and reads the reply, converting a worker-side
// msgError into a *RemoteError. When an observer is installed, the whole
// round-trip — send through reply — is measured and reported to it.
func (c *Conn) roundTrip(msgType byte, body []byte) (byte, []byte, error) {
	if c.observe == nil {
		return c.roundTripInner(msgType, body)
	}
	start := c.obsNow()
	replyType, reply, err := c.roundTripInner(msgType, body)
	c.observe(msgType, len(body), len(reply), c.obsNow().Sub(start), err)
	return replyType, reply, err
}

func (c *Conn) roundTripInner(msgType byte, body []byte) (byte, []byte, error) {
	if err := c.send(msgType, body); err != nil {
		return 0, nil, err
	}
	replyType, reply, err := c.recv()
	if err != nil {
		return 0, nil, err
	}
	if replyType == msgError {
		return 0, nil, &RemoteError{Msg: string(reply)}
	}
	return replyType, reply, nil
}
