package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"crowdassess/client"
	"crowdassess/internal/core"
	"crowdassess/internal/dist"
	"crowdassess/internal/gate"
	"crowdassess/internal/pool"
)

// gatewayClients is how many closed-loop clients drive a gateway, each
// over one keep-alive connection: one per core of the reference box.
const gatewayClients = 2

const token = "crowdperf"

// script is a gateway client's operation mix: op i is a query when
// i%queryEvery == queryEvery-1, else an ingest of the next batch of the
// client's stream. Client 0 also runs the phase's reviews, spread evenly
// over it.
type script struct {
	batch      int
	queryEvery int
	reviews    int
}

func (s script) kind(i int) string {
	if i%s.queryEvery == s.queryEvery-1 {
		return "query"
	}
	return "ingest"
}

// clientRun is what one gateway client did in the timed phase.
type clientRun struct {
	lat       map[string][]float64 // milliseconds per successful op, by kind
	inTime    map[string]int       // successful ops completed by the deadline, by kind
	ackedIn   int                  // responses acknowledged by the deadline
	httpMs    []float64            // traced: round trip minus handler time
	attempted int
	failed    int
	sheds     int
	fires     int
	consumed  int      // responses of the client's stream sent
	lost      [][2]int // stream ranges of failed ingests
	err       error    // first failure
}

// driveGateway runs one closed-loop client per stream until the deadline
// or until a client's stream is used up.
func (rc *runCtx) driveGateway(url string, streams [][]resp, sc script, workers int, p phase) []clientRun {
	out := make([]clientRun, len(streams))
	var wg sync.WaitGroup
	for c := range streams {
		reviews := newSchedule(p, 0)
		if c == 0 {
			reviews = newSchedule(p, sc.reviews)
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out[c] = rc.gatewayClient(url, c, streams[c], sc, workers, reviews, p.deadline)
		}(c)
	}
	wg.Wait()
	return out
}

func (rc *runCtx) gatewayClient(url string, c int, stream []resp, sc script, workers int, reviews *schedule, deadline time.Time) clientRun {
	transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer transport.CloseIdleConnections()
	var rt http.RoundTripper = transport
	if rc.tr != nil {
		rt = headerTransport{rt}
	}
	// Retries would hide failures; every attempt counts.
	cl := client.New(url, token).WithRetry(client.RetryPolicy{}).
		WithHTTPClient(&http.Client{Transport: rt, Timeout: time.Minute})
	r := clientRun{lat: map[string][]float64{}, inTime: map[string]int{}}
	batch := make([]client.Response, 0, sc.batch)
	ctx := context.Background()
	for i := 0; time.Now().Before(deadline); i++ {
		kind := sc.kind(i)
		if reviews.due(time.Now()) {
			kind = "review"
		}
		if kind == "ingest" && r.consumed == len(stream) {
			break
		}
		opCtx, id := ctx, rc.tr.newID()
		if rc.tr != nil {
			opCtx = withSpan(ctx, id)
		}
		start := time.Now()
		var err error
		switch kind {
		case "ingest":
			lo, hi := r.consumed, min(r.consumed+sc.batch, len(stream))
			batch = batch[:0]
			for _, x := range stream[lo:hi] {
				batch = append(batch, client.Response{Worker: int(x.worker), Task: int(x.task), Answer: int(x.answer)})
			}
			var res client.IngestResult
			res, err = cl.IngestBatch(opCtx, batch)
			if err == nil && (res.Ingested != len(batch) || res.Rejected != 0) {
				err = fmt.Errorf("ingest recorded %d of %d responses, rejected %d", res.Ingested, len(batch), res.Rejected)
			}
			if err != nil {
				r.lost = append(r.lost, [2]int{lo, hi})
			}
			r.consumed = hi
		case "query":
			_, err = cl.WorkerInfo(opCtx, (c*workers/gatewayClients+i)%workers)
		case "review":
			var ds []client.Decision
			ds, err = cl.Review(opCtx)
			for _, d := range ds {
				if d.Action == "fire" {
					r.fires++
				}
			}
		}
		end := time.Now()
		r.attempted++
		if err != nil {
			r.failed++
			var ae *client.APIError
			if errors.As(err, &ae) && ae.Status == http.StatusTooManyRequests {
				r.sheds++
			}
			if r.err == nil {
				r.err = err
			}
		} else {
			r.lat[kind] = append(r.lat[kind], ms(end.Sub(start)))
			if !end.After(deadline) {
				r.inTime[kind]++
				if kind == "ingest" {
					r.ackedIn += len(batch)
				}
			}
		}
		if rc.tr != nil {
			rc.tr.record("client."+kind, id, 0, id, start, end)
			if h, ok := rc.tr.handled.LoadAndDelete(id); ok {
				r.httpMs = append(r.httpMs, ms(end.Sub(start))-h.(float64))
			}
		}
	}
	return r
}

// tenant is a gateway serving one tenant over loopback HTTP.
type tenant struct {
	srv   *httptest.Server
	mgr   *pool.Manager
	inner core.StreamingEvaluator // the evaluator beneath any timing wrapper
	timed *timedEvaluator         // nil on an untraced run
	cl    *cluster                // review_sparse's backend
}

// startTenant builds the pool manager over ev — wrapped in a timing
// evaluator named layer on a traced run — records the preload through
// it, and serves it behind a gateway.
func (rc *runCtx) startTenant(ev core.StreamingEvaluator, layer string, preload []resp, flush func() error) (*tenant, error) {
	t := &tenant{inner: ev}
	if rc.tr != nil {
		t.timed = &timedEvaluator{StreamingEvaluator: ev, layer: layer, tr: rc.tr}
		ev = t.timed
		if flush != nil {
			inner := flush
			flush = func() error {
				id, parent, start := rc.tr.newID(), rc.tr.parent(), time.Now()
				err := inner()
				end := time.Now()
				rc.tr.record(layer+".flush", id, parent, 0, start, end)
				rc.tr.observe(layer+".flush_ms", ms(end.Sub(start)))
				rc.tr.add("backend_ms", ms(end.Sub(start)))
				return err
			}
		}
	}
	mgr, err := pool.NewManagerWith(ev, pool.DefaultPolicy())
	if err != nil {
		return nil, err
	}
	t.mgr = mgr
	for _, r := range preload {
		if err := mgr.Record(int(r.worker), int(r.task), crowdResponse(r)); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	if flush != nil {
		if err := flush(); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	gw, err := gate.New(gate.Options{Tenants: []gate.TenantConfig{{Name: "perf", Token: token, Manager: mgr, Flush: flush}}})
	if err != nil {
		return nil, err
	}
	var h http.Handler = gw
	if rc.tr != nil {
		h = tracedHandler{gw, rc.tr}
	}
	t.srv = httptest.NewServer(h)
	return t, nil
}

func (t *tenant) close() error {
	t.srv.Close()
	if t.cl != nil {
		return t.cl.close()
	}
	return nil
}

// gatewayWorkload is the shape of one of the two workloads driven through
// the gateway.
type gatewayWorkload struct {
	workers      int
	preloadTasks int     // tasks whose responses are recorded during set-up
	streamTasks  int     // further tasks whose responses the clients send
	density      float64 // share of tasks each worker answers
	script       script
	headline     string // the op kind ops_per_s and op_p50_ms measure
	// backend boots the tenant's evaluator, and returns the flush hook the
	// gateway runs after every ingest (nil for none) and, for a cluster,
	// the cluster.
	backend func(boot int) (core.StreamingEvaluator, func() error, *cluster, error)
}

// runIngestHTTP is the write-heavy workload: a dense 64-worker crowd
// streamed in 256-response batches into a local two-shard tenant, with a
// worker query every 8th request and five pool reviews per phase.
func runIngestHTTP(rc *runCtx) error {
	return rc.runGateway(gatewayWorkload{
		workers:      64,
		preloadTasks: rc.scaled(8000, 400),
		streamTasks:  rc.scaled(100000, 200),
		density:      0.8,
		script:       script{batch: 256, queryEvery: 8, reviews: 5},
		headline:     "ingest",
		backend: func(int) (core.StreamingEvaluator, func() error, *cluster, error) {
			inc, err := core.NewShardedIncremental(64, 2)
			return inc, nil, nil, err
		},
	})
}

// runReviewSparse is the read-heavy workload: a sparse 128-worker crowd
// behind a WAL-backed 2×2 dist cluster, 32-response ingests alternating
// with worker queries, and five pool reviews per phase.
func runReviewSparse(rc *runCtx) error {
	return rc.runGateway(gatewayWorkload{
		workers:      128,
		preloadTasks: rc.scaled(16000, 4000),
		streamTasks:  rc.scaled(8000, 400),
		density:      0.1,
		script:       script{batch: 32, queryEvery: 2, reviews: 5},
		headline:     "query",
		backend: func(boot int) (core.StreamingEvaluator, func() error, *cluster, error) {
			cl, err := startCluster(128, filepath.Join(rc.dir, "boot-"+strconv.Itoa(boot)), rc.tr)
			if err != nil {
				return nil, nil, nil, err
			}
			ce := dist.NewClusterEvaluator(cl.coord, 0)
			return ce, ce.Flush, cl, nil
		},
	})
}

func (rc *runCtx) runGateway(g gatewayWorkload) error {
	preload, stream, err := genCrowd(rc.cfg.seed, g.workers, g.preloadTasks, g.streamTasks, g.density)
	if err != nil {
		return err
	}
	streams := split(stream, gatewayClients)
	freeTask := g.preloadTasks + g.streamTasks

	boots := 0
	t, err := boot(rc, func() (*tenant, error) {
		ev, flush, cl, err := g.backend(boots)
		boots++
		if err != nil {
			return nil, err
		}
		t, err := rc.startTenant(ev, layerOf(cl), preload, flush)
		if err != nil {
			if cl != nil {
				err = errors.Join(err, cl.close())
			}
			return nil, err
		}
		t.cl = cl
		return t, nil
	}, (*tenant).close)
	if err != nil {
		return err
	}
	defer func() {
		if t != nil {
			t.close()
		}
	}()

	var wire0 int64
	if rc.tr != nil && t.cl != nil {
		wire0 = t.cl.wireBytes()
	}
	if t.timed != nil {
		t.timed.reset()
	}
	p := rc.startPhase()
	runs := rc.driveGateway(t.srv.URL, streams, g.script, g.workers, p)
	var wire int64
	if rc.tr != nil && t.cl != nil {
		wire = t.cl.wireBytes() - wire0
	}
	lat := map[string][]float64{}
	var httpMs []float64
	attempted, failed, sheds, fires, ingested, inTime, ackedIn := 0, 0, 0, 0, 0, 0, 0
	var accepted []resp
	for c, r := range runs {
		for k, v := range r.lat {
			lat[k] = append(lat[k], v...)
		}
		inTime += r.inTime[g.headline]
		ackedIn += r.ackedIn
		httpMs = append(httpMs, r.httpMs...)
		attempted += r.attempted
		failed += r.failed
		sheds += r.sheds
		fires += r.fires
		a := ackedPrefix(streams[c], r.consumed, r.lost)
		ingested += len(a)
		accepted = append(accepted, a...)
		if r.err != nil {
			rc.rep.Problems = append(rc.rep.Problems, fmt.Sprintf("client %d: %v", c, r.err))
		}
	}
	rc.endPhase(p, lat[g.headline], float64(inTime)/rc.cfg.seconds)
	rc.countOps(attempted, failed)
	rc.rep.set("ingest_rps", "responses/s", float64(ackedIn)/rc.cfg.seconds, 0)
	rc.rep.latency("ingest", lat["ingest"])
	rc.rep.latency("query", lat["query"])
	rc.rep.latency("review", lat["review"])
	if fires > 0 {
		rc.rep.fail("reviews fired %d workers", fires)
	}

	got, err := t.inner.EvaluateAll(evalOpts())
	if err != nil {
		return err
	}
	for w := 0; w < g.workers; w++ {
		if t.mgr.State(w) == pool.Fired {
			rc.rep.fail("worker %d ended fired", w)
		}
	}
	if rc.tr != nil {
		if err := rc.gatewayLayers(t, httpMs, sheds, ingested, lat, wire, freeTask); err != nil {
			return err
		}
	}
	// Shut the system down before building the reference, so the two
	// never hold their state at the same time.
	err = t.close()
	t = nil
	if err != nil {
		return err
	}
	return rc.checkAgainstReference(got, g.workers, preload, accepted)
}

// layerOf names the timing evaluator's layer: the tenant's evaluator is
// core's own, or dist's when a cluster backs it.
func layerOf(cl *cluster) string {
	if cl != nil {
		return "dist"
	}
	return "core"
}

// gatewayLayers records a traced gateway phase's per-layer numbers and
// runs the quiesced probes.
func (rc *runCtx) gatewayLayers(t *tenant, httpMs []float64, sheds, ingested int, lat map[string][]float64, wire int64, freeTask int) error {
	r := rc.rep
	for _, route := range []string{"ingest", "query", "review"} {
		rc.setSampleMedian("gate."+route+"_serve_ms.p50", "gate."+route+"_serve_ms", "ms")
	}
	if len(httpMs) > 0 {
		r.set("gate.http_ms.p50", "ms", median(httpMs), len(httpMs))
	}
	self := rc.tr.sum("handler_ms") - rc.tr.sum("backend_ms") - float64(t.timed.addNs.Load())/1e6
	r.set("gate.self_ms_per_request", "ms", self/rc.tr.sum("handler_requests"), 0)
	r.set("gate.shed_total", "count", float64(sheds), 0)

	layer := t.timed.layer
	calls := rc.tr.sum(layer + ".evaluate_calls")
	r.set(layer+".add_calls", "count", float64(t.timed.adds.Load()), 0)
	rc.setSampleMedian(layer+".add_us.p50", layer+".add_us", "us")
	r.set(layer+".evaluate_calls", "count", calls, 0)
	r.set(layer+".workers_solved_per_call", "count", rc.tr.sum(layer+".workers_solved")/calls, 0)
	rc.setSampleMedian(layer+".evaluate_ms.p50", layer+".evaluate_ms", "ms")
	rc.setSampleMedian(layer+".majority_ms.p50", layer+".majority_ms", "ms")
	rc.setSampleMedian(layer+".churn_per_read.p50", layer+".churn_per_read", "count")
	rc.setSampleMedian(layer+".flush_ms.p50", layer+".flush_ms", "ms")

	if t.cl == nil {
		inc := t.inner
		if err := rc.probeSolves(func() error {
			_, err := inc.EvaluateSubset([]int{0}, evalOpts())
			return err
		}, func() error {
			_, err := inc.EvaluateAll(evalOpts())
			return err
		}); err != nil {
			return err
		}
		return rc.probeMerge(inc, freeTask)
	}
	if err := t.cl.setLayerTotals(rc, ingested, len(lat["ingest"]), wire); err != nil {
		return err
	}
	return t.cl.probePull(rc)
}

// ackedPrefix is what a client had acknowledged: the consumed prefix of
// its stream minus the ranges of failed ingests.
func ackedPrefix(stream []resp, consumed int, lost [][2]int) []resp {
	var out []resp
	next := 0
	for _, l := range lost {
		out = append(out, stream[next:l[0]]...)
		next = l[1]
	}
	return append(out, stream[next:consumed]...)
}
