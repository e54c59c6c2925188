package dist

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"crowdassess/internal/core"
	"crowdassess/internal/crowd"
	"crowdassess/internal/obs"
)

// WorkerOptions configures a worker node.
type WorkerOptions struct {
	// Workers is the crowd size — the worker-index space of the responses
	// this node will ingest. Every node and the coordinator must agree on
	// it; the handshake enforces that. Required, at least 3.
	Workers int
	// Shards is the node's local task-stripe shard count for concurrent
	// ingestion (0 selects GOMAXPROCS).
	Shards int
	// Name is a free-form node identity echoed in the handshake (typically
	// its listen address), so coordinator membership views name real
	// nodes. Diagnostic only.
	Name string
	// FrameTimeout bounds how long a coordinator may stall mid-frame —
	// request or reply — before the connection is cut: waiting idle for
	// the next request is always unbounded (idle connections are
	// healthy), but once a frame has begun, every chunk of it must land
	// within this budget, so a hung peer can never wedge a serving
	// goroutine or the drain in Close. 0 selects DefaultFrameTimeout;
	// negative disables the bound.
	FrameTimeout time.Duration
}

// DefaultFrameTimeout is the worker-side mid-frame stall budget: generous
// against slow links (deadlines are re-armed per 4 MiB chunk, so transfer
// size never trips it), tight enough that a frozen coordinator frees the
// connection in seconds.
const DefaultFrameTimeout = 30 * time.Second

// WorkerStats is a point-in-time snapshot for health/stats endpoints.
type WorkerStats struct {
	Workers     int           `json:"workers"`
	Shards      int           `json:"shards"`
	Tasks       int           `json:"tasks"`
	Responses   int           `json:"responses"`
	Connections int           `json:"connections"`
	Uptime      time.Duration `json:"uptime_ns"`
}

// Worker is one node of a distributed deployment: it owns a
// core.ShardedIncremental over the task slice the coordinator routes to
// it and serves statistics pulls from its live counters. It carries crowd
// statistics only; replicate sweeps run in the caller's process. Connections
// are served concurrently; the underlying evaluator's Add is already safe
// across goroutines, so two coordinaton connections (or one coordinator's
// concurrent batches) never corrupt state.
type Worker struct {
	opts     WorkerOptions
	inc      *core.ShardedIncremental
	start    time.Time
	instance uint64 // incarnation: fresh per Worker, announced in the hello

	// obsReg, when set by Instrument, receives serve-path metrics. An
	// atomic pointer so installing on a live worker is race-free.
	obsReg atomic.Pointer[obs.Registry]

	mu        sync.Mutex
	closed    bool
	listeners map[net.Listener]struct{}
	// conns maps each live connection to its serving lock: held while a
	// request is being handled and replied to, and taken by Close before
	// closing the connection — so a reply that started is fully written
	// before the stream goes away.
	conns map[*Conn]*sync.Mutex
	wg    sync.WaitGroup
}

// NewWorker returns an idle worker node; connect it to a coordinator with
// Serve (TCP) or SelfConn (in-process).
func NewWorker(opts WorkerOptions) (*Worker, error) {
	if opts.Shards == 0 {
		opts.Shards = runtime.GOMAXPROCS(0)
	}
	if opts.FrameTimeout == 0 {
		opts.FrameTimeout = DefaultFrameTimeout
	}
	if opts.FrameTimeout < 0 {
		opts.FrameTimeout = 0
	}
	inc, err := core.NewShardedIncremental(opts.Workers, opts.Shards)
	if err != nil {
		return nil, err
	}
	return &Worker{
		opts:      opts,
		inc:       inc,
		start:     time.Now(),
		instance:  newInstanceID(),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[*Conn]*sync.Mutex),
	}, nil
}

// newInstanceID draws a worker incarnation: unique per process start with
// overwhelming probability, never zero (zero on the wire means "not
// reported"). Its only job is to make "reconnected to the same state" and
// "reconnected to a restarted, empty node" distinguishable.
func newInstanceID() uint64 {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err == nil {
		return binary.BigEndian.Uint64(b[:]) | 1
	}
	return uint64(time.Now().UnixNano()) | 1
}

// Stats snapshots the node for health endpoints.
func (w *Worker) Stats() WorkerStats {
	w.mu.Lock()
	conns := len(w.conns)
	w.mu.Unlock()
	return WorkerStats{
		Workers:     w.opts.Workers,
		Shards:      w.opts.Shards,
		Tasks:       w.inc.Tasks(),
		Responses:   w.inc.Responses(),
		Connections: conns,
		Uptime:      time.Since(w.start),
	}
}

// Evaluator exposes the node's local evaluator, for deployments that also
// want node-local intervals (they cover only this node's task slice).
func (w *Worker) Evaluator() *core.ShardedIncremental { return w.inc }

// Serve accepts and serves connections until the listener fails or Close
// runs. It returns nil after a graceful Close.
func (w *Worker) Serve(l net.Listener) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		l.Close()
		return errors.New("dist: worker is closed")
	}
	w.listeners[l] = struct{}{}
	w.mu.Unlock()
	for {
		nc, err := l.Accept()
		if err != nil {
			w.mu.Lock()
			closed := w.closed
			delete(w.listeners, l)
			w.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		conn := NewConn(nc)
		serving, ok := w.track(conn)
		if !ok {
			conn.Close()
			return nil
		}
		go func() {
			defer w.wg.Done()
			defer w.untrack(conn)
			w.serveConn(conn, serving)
		}()
	}
}

// SelfConn returns the coordinator end of a new in-process connection to
// this worker, served on its own goroutine — the in-process transport.
func (w *Worker) SelfConn() (*Conn, error) {
	local, remote := Pipe()
	serving, ok := w.track(remote)
	if !ok {
		local.Close()
		remote.Close()
		return nil, errors.New("dist: worker is closed")
	}
	go func() {
		defer w.wg.Done()
		defer w.untrack(remote)
		w.serveConn(remote, serving)
	}()
	return local, nil
}

// track registers a connection, its serving lock and its wait-group slot
// under one critical section, so Close's wg.Wait always covers every
// tracked connection's goroutine.
func (w *Worker) track(c *Conn) (*sync.Mutex, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, false
	}
	// Worker receive discipline: idle waits are unbounded, frames that
	// have begun — and every reply — must keep moving.
	c.SetTimeout(w.opts.FrameTimeout)
	c.setIdleWait(true)
	serving := new(sync.Mutex)
	w.conns[c] = serving
	w.wg.Add(1)
	return serving, true
}

func (w *Worker) untrack(c *Conn) {
	w.mu.Lock()
	delete(w.conns, c)
	w.mu.Unlock()
	c.Close()
}

// Close stops accepting, drains every live connection and waits for the
// per-connection goroutines to exit. A request whose handling has begun
// completes — its reply is fully written before the connection is closed
// (Close takes each connection's serving lock first). A request that
// arrives while shutdown is racing its recv may instead observe the
// connection closing; the coordinator sees a clean connection error, never
// a half-written frame.
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	for l := range w.listeners {
		l.Close()
	}
	conns := make(map[*Conn]*sync.Mutex, len(w.conns))
	for c, serving := range w.conns {
		conns[c] = serving
	}
	w.mu.Unlock()
	for c, serving := range conns {
		serving.Lock()
		c.Close()
		serving.Unlock()
	}
	w.wg.Wait()
	return nil
}

// serveConn answers one connection's requests until it drops. Request
// handling errors are replied as msgError frames and the connection stays
// up; only transport failures end the loop. The serving lock is held from
// dispatch through reply, which is what lets Close drain instead of
// cutting a reply mid-frame.
func (w *Worker) serveConn(c *Conn, serving *sync.Mutex) {
	for {
		msgType, body, err := c.recv()
		if err != nil {
			return // connection closed or broken; nothing to reply to
		}
		serving.Lock()
		ok := w.reply(c, msgType, body)
		serving.Unlock()
		if !ok {
			return
		}
	}
}

// reply handles one request and writes its response, reporting whether the
// connection is still usable.
func (w *Worker) reply(c *Conn, msgType byte, body []byte) bool {
	reg := w.obsReg.Load()
	var start time.Time
	if reg != nil {
		start = reg.Clock().Now()
	}
	replyType, reply, err := w.handle(msgType, body)
	if reg != nil {
		msg := obs.Label{Key: "msg", Value: msgName(msgType)}
		reg.Histogram("dist_serve_seconds",
			"Worker-side request handling latency by message type.", nil, msg).
			Observe(reg.Clock().Since(start).Seconds())
		if err != nil {
			reg.Counter("dist_serve_errors_total",
				"Worker-side request failures by message type.", msg).Inc()
		} else if msgType == msgIngest {
			reg.Counter("worker_ingest_batches_total",
				"Ingest batches accepted (applied to the node's evaluator).").Inc()
		}
	}
	if err != nil {
		replyType, reply = msgError, []byte(err.Error())
	}
	if err := c.send(replyType, reply); err != nil {
		// A reply that outgrew the frame cap (a statistics export past
		// maxFrame) never touched the wire; report it instead of hanging
		// up, so the coordinator sees the cause, not an EOF.
		if errors.Is(err, errFrameTooBig) {
			return c.send(msgError, []byte(err.Error())) == nil
		}
		return false
	}
	return true
}

// handle dispatches one request to its reply.
func (w *Worker) handle(msgType byte, body []byte) (byte, []byte, error) {
	switch msgType {
	case msgHello:
		m, err := decodeHello(body)
		if err != nil {
			return 0, nil, err
		}
		if m.Version != ProtocolVersion {
			return 0, nil, fmt.Errorf("dist: protocol version %d not supported (worker speaks %d)", m.Version, ProtocolVersion)
		}
		if m.Workers != w.opts.Workers {
			return 0, nil, fmt.Errorf("dist: coordinator expects %d crowd workers, node is configured for %d", m.Workers, w.opts.Workers)
		}
		return msgHelloOK, encodeHello(helloMsg{Version: ProtocolVersion, Workers: w.opts.Workers, Shards: w.opts.Shards, Name: w.opts.Name, Instance: w.instance}), nil

	case msgIngest:
		batch, err := decodeIngest(body)
		if err != nil {
			return 0, nil, err
		}
		for _, s := range batch {
			if err := w.inc.Add(s.Worker, s.Task, crowd.Response(s.Answer)); err != nil {
				// The batch stops at the first rejected response. Earlier
				// responses are already ingested; the coordinator reports
				// the failure to its caller, matching the local evaluator's
				// per-Add error contract.
				return 0, nil, err
			}
		}
		return msgIngestOK, encodeTotal(w.inc.Responses()), nil

	case msgPullDelta:
		cursor, err := decodeCursor(body)
		if err != nil {
			return 0, nil, err
		}
		payload, err := w.pullReply(cursor)
		if err != nil {
			return 0, nil, err
		}
		return msgDelta, payload, nil

	case msgPullCounts:
		return msgCounts, encodeCounts(countsMsg{Tasks: w.inc.Tasks(), Responses: w.inc.Responses()}), nil

	case msgPing:
		// The heartbeat: cheap by construction (two running counters, read
		// under each shard's mutex, which an Add holds for one response and
		// a statistics cut or checkpoint for its length; never behind a
		// solve), answered even mid-ingest. The counts let the failure
		// detector double as lag telemetry.
		return msgPong, encodeCounts(countsMsg{Tasks: w.inc.Tasks(), Responses: w.inc.Responses()}), nil

	case msgPullDis:
		attempted, disagree := w.inc.DisagreementCounts()
		return msgDis, encodeTallies(attempted, disagree), nil

	case msgPullCompact:
		payload, err := EncodeCompact(w.inc.CompactCheckpoint())
		if err != nil {
			return 0, nil, err
		}
		return msgCompact, payload, nil

	case msgRestoreCompact:
		cs, err := DecodeCompact(body)
		if err != nil {
			return 0, nil, err
		}
		if err := w.inc.RestoreCompact(cs); err != nil {
			return 0, nil, err
		}
		return msgRestoreOK, encodeCounts(countsMsg{Tasks: w.inc.Tasks(), Responses: w.inc.Responses()}), nil

	}
	return 0, nil, fmt.Errorf("dist: unknown message type 0x%02x", msgType)
}

// pullReply answers a statistics pull from a cut of the evaluator (see
// core.ShardedIncremental.CutStats). When the coordinator's cursor is the
// digest of the cut this worker last shipped, the reply is the exact delta
// from that cut to the current one; otherwise — a fresh, restarted or
// reseeded worker, a lost reply, a coordinator that lost its copy — it is
// the full state. Either way the current state becomes the base of the next
// delta as soon as the reply is built: if it never arrives, the
// coordinator's next cursor will not match and it gets the full state.
// The coordinator is the evaluator's one cut consumer.
func (w *Worker) pullReply(cursor uint64) ([]byte, error) {
	cut := w.inc.CutStats(cursor, cursor != noCursor)
	if cut.Delta != nil {
		return encodeDeltaReply(cut.Delta, cut.Digest)
	}
	return encodeFullReply(cut.Full, cut.Digest)
}
