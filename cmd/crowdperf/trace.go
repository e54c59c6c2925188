package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"crowdassess/internal/core"
	"crowdassess/internal/crowd"
	"crowdassess/internal/store"
)

// Tracing lives entirely in the benchmark: every layer is timed from
// outside, around calls into its public functions. A nil *tracer is the
// untraced run — each method is a no-op and nothing is wrapped.

// span is one timed call at a layer boundary. Spans of one client
// operation share Req; Parent is the span that caused this one (0 for a
// client operation, or where the caller could not be identified).
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Req     uint64 `json:"req,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans and layer samples in memory until the run ends.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64

	mu      sync.Mutex
	spans   []span
	samples map[string][]float64
	sums    map[string]float64

	// active maps a goroutine to the span it is serving, so code that
	// receives no context (an evaluator called by pool.Manager) can still
	// name its parent.
	active sync.Map
	// handled maps a request id to its handler time, for the client to
	// subtract from its round trip.
	handled sync.Map
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: map[string][]float64{}, sums: map[string]float64{}}
}

func (tr *tracer) newID() uint64 {
	if tr == nil {
		return 0
	}
	return tr.nextID.Add(1)
}

// record keeps one finished span.
func (tr *tracer) record(name string, id, parent, req uint64, start, end time.Time) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		StartNs: start.Sub(tr.t0).Nanoseconds(), EndNs: end.Sub(tr.t0).Nanoseconds()})
}

// observe adds one sample to a named layer timing or size.
func (tr *tracer) observe(name string, v float64) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.samples[name] = append(tr.samples[name], v)
}

// add accumulates a named total (time in ms, bytes, calls).
func (tr *tracer) add(name string, v float64) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.sums[name] += v
}

// reset drops everything recorded so far: set-up is not part of the timed
// phase's per-layer numbers.
func (tr *tracer) reset() {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = nil
	tr.samples = map[string][]float64{}
	tr.sums = map[string]float64{}
}

// sample returns a copy of a named sample set.
func (tr *tracer) sample(name string) []float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]float64(nil), tr.samples[name]...)
}

func (tr *tracer) sum(name string) float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.sums[name]
}

// enter marks the calling goroutine as serving span id until leave.
func (tr *tracer) enter(id uint64) uint64 {
	if tr == nil {
		return 0
	}
	g := goid()
	tr.active.Store(g, id)
	return g
}

func (tr *tracer) leave(g uint64) {
	if tr != nil {
		tr.active.Delete(g)
	}
}

// parent returns the span the calling goroutine is serving, or 0.
func (tr *tracer) parent() uint64 {
	if tr == nil {
		return 0
	}
	if v, ok := tr.active.Load(goid()); ok {
		return v.(uint64)
	}
	return 0
}

// goid parses the calling goroutine's id from its stack header
// ("goroutine 123 [running]: ..."). It costs about a microsecond, so the
// tracer calls it per request and per evaluation, never per Add.
func goid() uint64 {
	var buf [32]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64) // a malformed header only loses the parent link
	return id
}

// writeSpans writes every recorded span as one JSON object per line.
func (tr *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	tr.mu.Lock()
	for _, s := range tr.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	tr.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// addSampleEvery thins Add latency samples: a dense run makes millions of
// Adds, and one in 16 gives a median as exact as all of them.
const addSampleEvery = 16

// timedEvaluator is the traced run's core.StreamingEvaluator: it times
// every call into the evaluator it wraps under the layer's name ("core"
// for a local tenant, "dist" for a cluster-backed one). Adds are too
// frequent for a span or a lock each; they are counted and summed in
// atomics instead.
type timedEvaluator struct {
	core.StreamingEvaluator
	layer string
	tr    *tracer

	adds     atomic.Int64
	addNs    atomic.Int64
	lastRead atomic.Int64
}

func (e *timedEvaluator) Add(w, t int, r crowd.Response) error {
	start := time.Now()
	err := e.StreamingEvaluator.Add(w, t, r)
	d := time.Since(start)
	e.addNs.Add(int64(d))
	if n := e.adds.Add(1); n%addSampleEvery == 0 {
		e.tr.observe(e.layer+".add_us", float64(d)/float64(time.Microsecond))
	}
	return err
}

// reset starts the counters over at the timed phase.
func (e *timedEvaluator) reset() {
	e.adds.Store(0)
	e.addNs.Store(0)
	e.lastRead.Store(0)
}

// read times one evaluation call as a span under the caller's request.
func (e *timedEvaluator) read(name string, workers int, call func() error) error {
	id, parent, start := e.tr.newID(), e.tr.parent(), time.Now()
	err := call()
	end := time.Now()
	e.tr.record(e.layer+"."+name, id, parent, 0, start, end)
	e.tr.observe(e.layer+"."+name+"_ms", ms(end.Sub(start)))
	e.tr.add("backend_ms", ms(end.Sub(start)))
	if name == "evaluate" {
		adds := e.adds.Load()
		e.tr.observe(e.layer+".churn_per_read", float64(adds-e.lastRead.Swap(adds)))
		e.tr.add(e.layer+".evaluate_calls", 1)
		e.tr.add(e.layer+".workers_solved", float64(workers))
	}
	return err
}

func (e *timedEvaluator) Evaluate(worker int, opts core.EvalOptions) (est core.WorkerEstimate, err error) {
	err = e.read("evaluate", 1, func() error {
		est, err = e.StreamingEvaluator.Evaluate(worker, opts)
		return err
	})
	return est, err
}

func (e *timedEvaluator) EvaluateAll(opts core.EvalOptions) (ests []core.WorkerEstimate, err error) {
	err = e.read("evaluate", e.Workers(), func() error {
		ests, err = e.StreamingEvaluator.EvaluateAll(opts)
		return err
	})
	return ests, err
}

func (e *timedEvaluator) EvaluateSubset(workers []int, opts core.EvalOptions) (ests []core.WorkerEstimate, err error) {
	err = e.read("evaluate", len(workers), func() error {
		ests, err = e.StreamingEvaluator.EvaluateSubset(workers, opts)
		return err
	})
	return ests, err
}

func (e *timedEvaluator) MajorityDisagreement() (rates []float64) {
	// The error is always nil; the wrapped method has no error to report.
	_ = e.read("majority", 0, func() error {
		rates = e.StreamingEvaluator.MajorityDisagreement()
		return nil
	})
	return rates
}

// spanHeader carries a client operation's span id to the gateway's
// handler wrapper; the id also names the operation's request.
const spanHeader = "X-Crowdperf-Span"

type spanKey struct{}

// headerTransport copies the context's client span id into a header.
type headerTransport struct{ next http.RoundTripper }

func (t headerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(spanKey{}).(uint64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	return t.next.RoundTrip(r)
}

func withSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

// tracedHandler times the gateway's handler for every request as a span
// parented on the client's span, by route.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// An unparsable id (a request not sent by crowdperf) reads as 0.
	req, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	id := h.tr.newID()
	g := h.tr.enter(id)
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	h.tr.leave(g)
	route := routeOf(r)
	h.tr.record("gate."+route, id, req, req, start, end)
	d := ms(end.Sub(start))
	h.tr.observe("gate."+route+"_serve_ms", d)
	h.tr.add("handler_ms", d)
	h.tr.add("handler_requests", 1)
	h.tr.handled.Store(req, d)
}

// routeOf names a gateway route the way the per-layer metrics do.
func routeOf(r *http.Request) string {
	switch {
	case r.URL.Path == "/v1/responses:batch":
		return "ingest"
	case r.URL.Path == "/v1/pool/review":
		return "review"
	default:
		return "query"
	}
}

// byteCounter totals bytes crossing the benchmark's own listeners.
type byteCounter struct{ n atomic.Int64 }

// countingListener counts every byte read from or written to the
// connections it accepts.
type countingListener struct {
	net.Listener
	c *byteCounter
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{conn, l.c}, nil
}

type countingConn struct {
	net.Conn
	c *byteCounter
}

func (c countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.c.n.Add(int64(n))
	return n, err
}

// timingFS is the store.FS the traced run opens slice stores through: it
// times writes and fsyncs of the write-ahead log and snapshot files.
type timingFS struct {
	store.FS
	tr *tracer
}

func (f timingFS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return timingFile{file, f.tr}, nil
}

func (f timingFS) SyncFile(name string) error {
	return f.tr.fsync(func() error { return f.FS.SyncFile(name) })
}
func (f timingFS) SyncDir(name string) error {
	return f.tr.fsync(func() error { return f.FS.SyncDir(name) })
}

// fsync times one fsync of the storage engine.
func (tr *tracer) fsync(call func() error) error {
	id, parent, start := tr.newID(), tr.parent(), time.Now()
	err := call()
	end := time.Now()
	tr.record("store.fsync", id, parent, 0, start, end)
	tr.observe("store.fsync_ms", ms(end.Sub(start)))
	return err
}

type timingFile struct {
	store.File
	tr *tracer
}

func (f timingFile) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(b)
	f.tr.add("store.write_ms", ms(time.Since(start)))
	f.tr.add("store.write_bytes", float64(n))
	return n, err
}

func (f timingFile) Sync() error { return f.tr.fsync(f.File.Sync) }
