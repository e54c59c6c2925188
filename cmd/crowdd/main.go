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
//	       [-wal /var/lib/crowdd/wal] [-fsync always] [-snapshot-interval 1m]
//	       [-rpc-timeout 30s] [-pprof]
//
// -workers is the crowd size (the worker-index space of the responses this
// node ingests); every node of a cluster and its head must agree on it,
// and the protocol handshake enforces that. -shards sets the node's local
// task-stripe count for concurrent ingestion (default GOMAXPROCS).
// -rpc-timeout bounds how long a request frame may stall mid-read.
//
// With -wal DIR, the daemon runs the storage engine and is restartable
// without losing its task slice: every acknowledged ingest batch is
// journaled to a CRC-framed write-ahead log before the ack goes out
// (durability per -fsync: always, interval, or never), and every
// -snapshot-interval — and once more during graceful shutdown — a compact
// O(delta) snapshot is cut and the journal truncated behind it. On startup
// the engine recovers from the newest valid snapshot plus the WAL tail,
// truncating at the first torn record — a crash (even a power cut, under
// -fsync always) loses no acked batch, and a store that cannot account for
// its state refuses to start rather than serve skewed statistics. The
// snapshots hold compact state (CCMP); the response-log checkpoint files
// of protocol-5 daemons are not read. Without -wal, a restarted worker
// comes back empty, and a head journaling its slice rebuilds it.
//
// With -health, the daemon serves:
//
//	GET /healthz — 200 and {"status":"ok","uptime_s":...}
//	GET /statsz  — crowd size, shard count, tasks and responses ingested,
//	               live head connections, uptime
//	GET /metrics — the full metrics registry in Prometheus text format:
//	               RPC and WAL latency histograms, ingest counters
//
// and, with -pprof, the net/http/pprof profiling handlers under
// /debug/pprof/ on the same address.
//
// On SIGINT/SIGTERM the daemon stops accepting, closes head connections
// after their in-flight request finishes, cuts the final snapshot, shuts
// the health endpoint down, and exits 0 — a graceful drain, so the head
// never observes a half-written frame.
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
		wal        = flag.String("wal", "", "WAL storage-engine directory: acked ingest batches are journaled before the ack and compacted into O(delta) snapshots every -snapshot-interval")
		fsyncSpec  = flag.String("fsync", "always", "WAL append durability: always (fsync per record), interval (group commit), never")
		snapEvery  = flag.Duration("snapshot-interval", dist.DefaultCheckpointInterval, "how often to cut a compact WAL snapshot and truncate the journal behind it (-wal mode; must be positive)")
		rpcTimeout = flag.Duration("rpc-timeout", 0, "mid-frame stall budget for a request from the head (0 = default)")
		pprofOn    = flag.Bool("pprof", false, "expose net/http/pprof profiling handlers under /debug/pprof/ on the -health address")
	)
	flag.Parse()
	err := validateTimeouts(*rpcTimeout)
	var cfg storageConfig
	if err == nil {
		cfg, err = validateStorage(*wal, *fsyncSpec, *snapEvery)
	}
	if err == nil {
		err = run(*listen, *nwork, *shards, *health, cfg, *rpcTimeout, *pprofOn)
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

func run(listen string, workers, shards int, health string, cfg storageConfig, rpcTimeout time.Duration, pprofOn bool) error {
	if workers == 0 {
		return fmt.Errorf("-workers is required")
	}
	reg := newRegistry()
	st, err := cfg.openWorkerStore(reg)
	if err != nil {
		return err
	}
	if st != nil {
		defer st.Close()
	}
	worker, err := dist.NewWorker(dist.WorkerOptions{Workers: workers, Shards: shards, Name: listen, FrameTimeout: rpcTimeout, Store: st})
	if err != nil {
		return err
	}
	worker.Instrument(reg)
	if st != nil {
		recovered, err := worker.RecoverFromStore()
		if err != nil {
			return err
		}
		if recovered > 0 {
			fmt.Fprintf(os.Stderr, "crowdd: recovered %d responses from WAL store %s\n", recovered, cfg.wal)
		}
	}
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

	// Periodic compact snapshots while serving (O(delta): the journal is
	// already durable, the snapshot just lets it be truncated); the final
	// one is cut after the drain below.
	stopSnapshots := func() {}
	if st != nil {
		stopSnapshots = dist.CheckpointEvery(cfg.snapEvery, worker.CheckpointCompact,
			func(err error) { fmt.Fprintf(os.Stderr, "crowdd: compact snapshot: %v\n", err) })
	}

	// Serve until a shutdown signal, then drain gracefully.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- worker.Serve(l) }()

	// shutdown drains connections, cuts the final snapshot from the
	// quiescent state, and tears the health endpoint down.
	shutdown := func() error {
		stopSnapshots()
		worker.Close() // stops the listener; Serve returns nil on graceful close
		var err error
		if st != nil {
			// Every acked batch is already in the WAL; the final compact
			// snapshot just makes the next startup's replay trivial.
			if err = worker.CheckpointCompact(); err != nil {
				err = fmt.Errorf("final compact snapshot: %w", err)
			}
		}
		shutdownHealth(healthSrv)
		return err
	}

	select {
	case err := <-serveErr:
		if ckptErr := shutdown(); err == nil {
			err = ckptErr
		}
		return err
	case <-ctx.Done():
	}
	stats := worker.Stats()
	fmt.Fprintf(os.Stderr, "crowdd: shutting down after %v (%d responses over %d tasks)\n",
		stats.Uptime.Round(time.Millisecond), stats.Responses, stats.Tasks)
	err = shutdown()
	if serveRes := <-serveErr; err == nil {
		err = serveRes
	}
	return err
}

func shutdownHealth(srv *http.Server) {
	if srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
}
