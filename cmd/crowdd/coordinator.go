// Coordinator mode: `crowdd -coordinate "a:7333,b:7333;c:7333,d:7333"`
// runs the daemon as a cluster head instead of a worker node. It dials
// every replica of every slice (';' separates slices, ',' separates a
// slice's replicas), runs the self-healing monitor over them, and serves a
// small HTTP API for ingestion, evaluation and operations.
//
// Exactly one coordinator may own a cluster at a time: replica lockstep —
// what makes the cross-replica divergence check sound — is enforced by the
// coordinator's per-slice serialization, which a second coordinator would
// bypass.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"crowdassess/internal/core"
	"crowdassess/internal/crowd"
	"crowdassess/internal/dist"
	"crowdassess/internal/gate"
	"crowdassess/internal/obs"
	"crowdassess/internal/pool"
	"crowdassess/internal/store"
)

// parseGroups splits a -coordinate spec into replica address groups:
// "a,b;c,d" → [[a b] [c d]]. Whitespace around addresses is ignored;
// empty slices or addresses are rejected.
func parseGroups(spec string) ([][]string, error) {
	var groups [][]string
	for _, g := range strings.Split(spec, ";") {
		if strings.TrimSpace(g) == "" {
			return nil, fmt.Errorf("empty replica group in -coordinate %q", spec)
		}
		var reps []string
		for _, a := range strings.Split(g, ",") {
			a = strings.TrimSpace(a)
			if a == "" {
				return nil, fmt.Errorf("empty replica address in -coordinate %q", spec)
			}
			reps = append(reps, a)
		}
		groups = append(groups, reps)
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("-coordinate needs at least one replica group")
	}
	return groups, nil
}

// buildCluster dials every replica address and assembles the coordinator,
// wiring each slot's dialer so retries and the monitor's reseed loop can
// reconnect to (a replacement at) the same address.
func buildCluster(workers int, groups [][]string, policy dist.Policy) (*dist.Coordinator, error) {
	specs := make([][]dist.ReplicaSpec, len(groups))
	var open []*dist.Conn
	fail := func(err error) (*dist.Coordinator, error) {
		for _, c := range open {
			c.Close()
		}
		return nil, err
	}
	for si, g := range groups {
		for _, addr := range g {
			conn, err := dist.DialTCPTimeout(addr, policy.DialTimeout)
			if err != nil {
				return fail(err)
			}
			open = append(open, conn)
			specs[si] = append(specs[si], dist.ReplicaSpec{
				Conn: conn,
				Dial: func() (*dist.Conn, error) { return dist.DialTCPTimeout(addr, policy.DialTimeout) },
			})
		}
	}
	// NewCluster takes ownership of every connection from here on.
	return dist.NewCluster(workers, specs, policy)
}

// memberView is one membership row as the HTTP endpoints render it: the
// detector state plus a human-grade heartbeat age.
type memberView struct {
	dist.ReplicaHealth
	LastBeatAgeMS int64 `json:"last_beat_age_ms"`
}

func membershipView(coord *dist.Coordinator, now time.Time) []memberView {
	rows := coord.Membership()
	out := make([]memberView, len(rows))
	for i, r := range rows {
		out[i] = memberView{ReplicaHealth: r, LastBeatAgeMS: now.Sub(r.LastBeat).Milliseconds()}
	}
	return out
}

// ingestRec is the JSON shape of one response on POST /ingest.
type ingestRec struct {
	Worker int `json:"worker"`
	Task   int `json:"task"`
	Answer int `json:"answer"`
}

// decisionView is one pool lifecycle decision as POST /review renders it.
type decisionView struct {
	Worker     int     `json:"worker"`
	Action     string  `json:"action"`
	State      string  `json:"state"`
	IntervalLo float64 `json:"interval_lo"`
	IntervalHi float64 `json:"interval_hi"`
	Reason     string  `json:"reason"`
}

// newCoordinatorMux builds the coordinator head's HTTP surface:
//
//	GET  /healthz  — "ok" while every slice serves live, "degraded" when
//	                 any slice is on cached statistics; includes uptime_s
//	GET  /statsz   — cluster shape, response totals, per-replica
//	                 membership (state, heartbeat age, reseed count)
//	GET  /metrics  — the registry in Prometheus text format
//	POST /ingest   — JSON array of {worker, task, answer}; responses from
//	                 fired workers are rejected, not forwarded
//	POST /review   — run one pool lifecycle review over the cluster's
//	                 merged statistics and return the decisions
//	GET  /evaluate — merged intervals; ?confidence=0.9
//
// Ingestion routes through a pool.Manager over the cluster evaluator, so
// the coordinator applies the paper's hiring lifecycle (probation →
// active → fired) to the crowd it fronts; /review is how an operator (or
// a cron) turns accumulated evidence into decisions.
func newCoordinatorMux(coord *dist.Coordinator, mgr *pool.Manager, ce *dist.ClusterEvaluator, reg *obs.Registry, pprofOn bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", healthzHandler(reg, coord.Degraded))
	attachObs(mux, reg, pprofOn)
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, r *http.Request) {
		tasks, _ := coord.Tasks()
		responses, _ := coord.Responses()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"workers":         coord.Workers(),
			"slices":          coord.Slices(),
			"live_nodes":      coord.Nodes(),
			"tasks":           tasks,
			"responses":       responses,
			"degraded_slices": coord.Degraded(),
			"membership":      membershipView(coord, time.Now()),
			"uptime_s":        reg.Uptime().Seconds(),
		})
	})
	// Error responses use the same {"error":{"code","message"}} envelope
	// as crowdgate's /v1 API (gate.WriteError), so a client sees one
	// error shape whether it talks to the gateway or this head directly.
	mux.HandleFunc("/ingest", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			gate.WriteError(w, http.StatusMethodNotAllowed, gate.CodeMethodNotAllowed, "/ingest requires POST")
			return
		}
		var recs []ingestRec
		if err := json.NewDecoder(r.Body).Decode(&recs); err != nil {
			gate.WriteError(w, http.StatusBadRequest, gate.CodeBadRequest, "decoding body: "+err.Error())
			return
		}
		// Records go through the pool manager so fired workers are turned
		// away at the door; the adapter batches them into cluster ingest
		// frames, and the explicit flush below both surfaces remote
		// rejections on this request and makes the batch visible to the
		// /statsz and /evaluate that follow the ack.
		rejected := 0
		for _, rec := range recs {
			err := mgr.Record(rec.Worker, rec.Task, crowd.Response(rec.Answer))
			switch {
			case errors.Is(err, pool.ErrFired):
				rejected++
			case err != nil:
				gate.WriteError(w, http.StatusBadRequest, gate.CodeBadRequest, err.Error())
				return
			}
		}
		if err := ce.Flush(); err != nil {
			status, code := http.StatusBadGateway, gate.CodeUpstream
			var re *dist.RemoteError
			if errors.As(err, &re) {
				status, code = http.StatusBadRequest, gate.CodeBadRequest // the batch, not the cluster
			}
			gate.WriteError(w, status, code, err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]int{"ingested": len(recs) - rejected, "rejected": rejected})
	})
	mux.HandleFunc("/review", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			gate.WriteError(w, http.StatusMethodNotAllowed, gate.CodeMethodNotAllowed, "/review requires POST")
			return
		}
		decisions, err := mgr.Review()
		if err != nil {
			gate.WriteError(w, http.StatusBadGateway, gate.CodeUpstream, err.Error())
			return
		}
		views := make([]decisionView, len(decisions))
		for i, d := range decisions {
			views[i] = decisionView{
				Worker: d.Worker, Action: d.Action.String(), State: d.State.String(),
				IntervalLo: d.Interval.Lo, IntervalHi: d.Interval.Hi, Reason: d.Reason,
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"decisions": views})
	})
	mux.HandleFunc("/evaluate", func(w http.ResponseWriter, r *http.Request) {
		confidence := 0.95
		if s := r.URL.Query().Get("confidence"); s != "" {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				gate.WriteError(w, http.StatusBadRequest, gate.CodeBadRequest, "bad confidence: "+err.Error())
				return
			}
			confidence = v
		}
		ests, err := coord.EvaluateAll(core.EvalOptions{Confidence: confidence})
		if err != nil {
			gate.WriteError(w, http.StatusBadGateway, gate.CodeUpstream, err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"confidence": confidence,
			"stale":      len(coord.Degraded()) > 0,
			"estimates":  ests,
		})
	})
	return mux
}

// runCoordinator is coordinator-mode main: dial the cluster, start the
// self-healing monitor, serve the HTTP head, cut slice snapshots
// periodically when journaling, and drain on signal.
func runCoordinator(spec string, workers int, health string, policy dist.Policy, mon dist.MonitorOptions, cfg storageConfig, pprofOn bool, done <-chan struct{}) error {
	if workers == 0 {
		return fmt.Errorf("-workers is required")
	}
	if health == "" {
		return fmt.Errorf("-coordinate requires -health (the coordinator's HTTP API address)")
	}
	groups, err := parseGroups(spec)
	if err != nil {
		return err
	}
	coord, err := buildCluster(workers, groups, policy)
	if err != nil {
		return err
	}
	defer coord.Close()
	reg := newRegistry()
	coord.Instrument(reg)
	// The pool manager fronts the cluster with the paper's hiring
	// lifecycle: /ingest routes through it (fired workers are rejected)
	// and /review turns accumulated evidence into decisions.
	ce := dist.NewClusterEvaluator(coord, 0)
	mgr, err := pool.NewManagerWith(ce, pool.DefaultPolicy())
	if err != nil {
		return err
	}
	mgr.Instrument(reg)
	// WAL mode: one store per task slice. Every acked fan-out is journaled,
	// the periodic checkpoint is an O(delta) compact snapshot plus journal
	// truncate, and the monitor's reseed rebuilds a fully-dead slice from
	// its store (zero acked loss).
	var sliceStores []*store.Store
	if cfg.wal != "" {
		sliceStores, err = openSliceStores(cfg.wal, coord.Slices(), cfg.fsync, reg)
		if err != nil {
			return err
		}
		defer closeStores(sliceStores)
		if err := coord.AttachSliceStores(sliceStores); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "crowdd: journaling %d slices under %s\n", coord.Slices(), cfg.wal)
	}
	mon.OnEvent = dist.ChainEvents(dist.EventMetrics(reg), func(e dist.Event) {
		fmt.Fprintf(os.Stderr, "crowdd: cluster: %s\n", e)
	})
	coord.StartMonitor(mon).Instrument(reg)
	fmt.Fprintf(os.Stderr, "crowdd: coordinating %d slices × %d nodes for a %d-worker crowd\n",
		coord.Slices(), coord.Nodes(), workers)

	stopSnapshots := cfg.snapshotEvery(coord.CheckpointCompactAll)

	srv := &http.Server{Addr: health, Handler: obs.HTTPMiddleware(newCoordinatorMux(coord, mgr, ce, reg, pprofOn), headLogger(), reg, "coord")}
	serveErr := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			serveErr <- err
			return
		}
		serveErr <- nil
	}()
	fmt.Fprintf(os.Stderr, "crowdd: coordinator API on %s\n", health)

	shutdown := func() error {
		stopSnapshots()
		var err error
		if cfg.wal != "" {
			if err = coord.CheckpointCompactAll(); err != nil {
				err = fmt.Errorf("final cluster checkpoint: %w", err)
			}
		}
		shutdownHealth(srv)
		return err
	}
	select {
	case err := <-serveErr:
		if sderr := shutdown(); err == nil {
			err = sderr
		}
		return err
	case <-done:
	}
	fmt.Fprintf(os.Stderr, "crowdd: coordinator shutting down\n")
	err = shutdown()
	if serveRes := <-serveErr; err == nil {
		err = serveRes
	}
	return err
}
