// Command crowdd is the distributed crowd-assessment worker daemon. It
// owns a sharded streaming evaluator over the task slice its cluster head
// routes to it, speaks the internal/dist merge/evaluate protocol on a TCP
// listener, and reports health and ingestion statistics over HTTP. The
// cluster head is crowdgate: a tenant with a "cluster" spec dials the
// workers, runs the failure detector and journals each task slice (see
// docs/operations.md).
//
// Usage:
//
//	crowdd -listen :7333 -workers 64 [-shards 8] [-health :8333]
//	       [-rpc-timeout 30s] [-pprof]
//
// -workers is the crowd size (the worker-index space of the responses this
// node ingests); every node of a cluster and its head must agree on it,
// and the protocol handshake enforces that. -shards sets the node's local
// task-stripe count for concurrent ingestion (default GOMAXPROCS).
// -rpc-timeout bounds how long a request frame may stall mid-read.
//
// The daemon keeps no state on disk: it always starts empty. Durability
// is the head's — a crowdgate cluster tenant with "wal" journals every
// acked batch to its slice stores before the ack, and rebuilds a worker
// that came back empty from them. A cluster tenant without "wal" is not
// durable.
//
// With -health, the daemon serves:
//
//	GET /healthz — 200 and {"status":"ok","uptime_s":...}
//	GET /statsz  — crowd size, shard count, tasks and responses ingested,
//	               live head connections, uptime
//	GET /metrics — the full metrics registry in Prometheus text format:
//	               RPC latency histograms, ingest counters
//
// and, with -pprof, the net/http/pprof profiling handlers under
// /debug/pprof/ on the same address.
//
// On SIGINT/SIGTERM the daemon stops accepting, closes head connections
// after their in-flight request finishes, shuts the health endpoint down,
// and exits 0 — a graceful drain, so the head never observes a
// half-written frame.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"crowdassess/internal/dist"
	"crowdassess/internal/obs"
)

func main() {
	var (
		listen     = flag.String("listen", ":7333", "TCP address to serve the dist protocol on")
		nwork      = flag.Int("workers", 0, "crowd size (required; must match the cluster head)")
		shards     = flag.Int("shards", 0, "local task-stripe shards for concurrent ingestion (0 = GOMAXPROCS)")
		health     = flag.String("health", "", "optional HTTP address for /healthz, /statsz and /metrics")
		rpcTimeout = flag.Duration("rpc-timeout", 0, "mid-frame stall budget for a request from the head (0 = default)")
		pprofOn    = flag.Bool("pprof", false, "expose net/http/pprof profiling handlers under /debug/pprof/ on the -health address")
	)
	flag.Parse()
	err := validateTimeouts(*rpcTimeout)
	if err == nil {
		err = run(*listen, *nwork, *shards, *health, *rpcTimeout, *pprofOn)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "crowdd: %v\n", err)
		os.Exit(1)
	}
}

// validateTimeouts rejects a negative -rpc-timeout up front, naming the
// flag, instead of letting it be silently ignored.
func validateTimeouts(rpcTimeout time.Duration) error {
	if rpcTimeout < 0 {
		return fmt.Errorf("-rpc-timeout must not be negative (0 means the default), got %v", rpcTimeout)
	}
	return nil
}

func run(listen string, workers, shards int, health string, rpcTimeout time.Duration, pprofOn bool) error {
	if workers == 0 {
		return fmt.Errorf("-workers is required")
	}
	reg := newRegistry()
	worker, err := dist.NewWorker(dist.WorkerOptions{Workers: workers, Shards: shards, Name: listen, FrameTimeout: rpcTimeout})
	if err != nil {
		return err
	}
	worker.Instrument(reg)
	l, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "crowdd: serving %d-worker crowd on %s\n", workers, l.Addr())

	var healthSrv *http.Server
	if health != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/healthz", healthzHandler(reg))
		// /statsz reads the same gauges /metrics scrapes — one source of
		// truth — rather than a hand-rolled stats struct.
		mux.HandleFunc("/statsz", func(w http.ResponseWriter, r *http.Request) {
			gauge := func(name string) float64 { v, _ := reg.GaugeValue(name); return v }
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]any{
				"workers":     workers,
				"shards":      int(gauge("worker_shards")),
				"tasks":       int(gauge("worker_tasks")),
				"responses":   int(gauge("worker_responses")),
				"connections": int(gauge("worker_connections")),
				"uptime_s":    reg.Uptime().Seconds(),
			})
		})
		attachObs(mux, reg, pprofOn)
		healthSrv = &http.Server{Addr: health, Handler: obs.HTTPMiddleware(mux, obs.NewLogger(os.Stderr, "crowdd", slog.LevelInfo), reg, listen)}
		go func() {
			if err := healthSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "crowdd: health endpoint: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "crowdd: health endpoint on %s\n", health)
	}

	// Serve until a shutdown signal, then drain gracefully.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- worker.Serve(l) }()

	// shutdown drains connections and tears the health endpoint down.
	shutdown := func() {
		worker.Close() // stops the listener; Serve returns nil on graceful close
		shutdownHealth(healthSrv)
	}

	select {
	case err := <-serveErr:
		shutdown()
		return err
	case <-ctx.Done():
	}
	stats := worker.Stats()
	fmt.Fprintf(os.Stderr, "crowdd: shutting down after %v (%d responses over %d tasks)\n",
		stats.Uptime.Round(time.Millisecond), stats.Responses, stats.Tasks)
	shutdown()
	return <-serveErr
}

func shutdownHealth(srv *http.Server) {
	if srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
}
