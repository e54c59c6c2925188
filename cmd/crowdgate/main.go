// Command crowdgate is the public front door of the assessment service:
// a multi-tenant HTTP/JSON gateway (internal/gate) serving the /v1 API —
// batch ingest, worker-quality queries, pool review — with static-token
// auth, per-tenant rate limits and admission-control backpressure.
//
//	crowdgate -listen :8080 -tenants tenants.json [-queue 64] [-pprof]
//
// Tenants are declared in a JSON file (see docs/operations.md):
//
//	{"tenants": [
//	  {"name": "acme", "token": "s3cret", "workers": 40, "shards": 4,
//	   "rate_per_sec": 200, "burst": 50},
//	  {"name": "beta", "token_env": "BETA_TOKEN", "workers": 25,
//	   "cluster": "a:7333,b:7333;c:7333,d:7333", "wal": "/var/lib/crowdgate/beta"}
//	]}
//
// A tenant with a "cluster" spec fronts a distributed deployment of crowdd
// workers: the gateway dials every replica, becomes the cluster's one head
// and runs the self-healing monitor over it. With "wal" it also journals
// every task slice before acking, checkpoints the slice stores every
// minute and after the shutdown drain, and on startup rebuilds workers
// that came back empty from them. Tenants without a cluster get an
// in-process sharded evaluator. Either way the tenant's statistics are its
// own — the isolation the gate package enforces by construction.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"crowdassess/internal/dist"
	"crowdassess/internal/gate"
	"crowdassess/internal/obs"
	"crowdassess/internal/pool"
)

// tenantSpec is one tenant entry in the -tenants JSON file.
type tenantSpec struct {
	// Name identifies the tenant in metrics and logs.
	Name string `json:"name"`
	// Token is the tenant's static bearer token; TokenEnv names an
	// environment variable to read it from instead (preferred — tokens
	// in config files end up in version control).
	Token    string `json:"token"`
	TokenEnv string `json:"token_env"`
	// Workers is the tenant's crowd size.
	Workers int `json:"workers"`
	// Shards is the local evaluator's shard count (ignored with Cluster).
	Shards int `json:"shards"`
	// RatePerSec and Burst configure the tenant's token bucket; a zero
	// rate means unlimited.
	RatePerSec float64 `json:"rate_per_sec"`
	Burst      int     `json:"burst"`
	// Cluster is a crowdd replica spec ("a:7333,b:7333;c:7333,d:7333" —
	// ';' separates task slices, ',' a slice's replicas). When set, this
	// tenant fronts that cluster instead of a local evaluator.
	Cluster string `json:"cluster"`
	// WAL is a directory where a cluster tenant journals every task slice
	// (WAL/slice-NNN, fsync per append) and cuts a compact checkpoint every
	// minute and on shutdown. Workers that restart empty are rebuilt from
	// it when the gateway starts. Requires Cluster.
	WAL string `json:"wal"`
	// MinResponses overrides the pool policy's decision floor when > 0.
	MinResponses int `json:"min_responses"`
}

// gateConfig is the -tenants file shape.
type gateConfig struct {
	Tenants []tenantSpec `json:"tenants"`
}

// loadConfig reads and validates the tenant config file.
func loadConfig(path string) (gateConfig, error) {
	var cfg gateConfig
	raw, err := os.ReadFile(path)
	if err != nil {
		return cfg, err
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return cfg, fmt.Errorf("%s: %w", path, err)
	}
	if len(cfg.Tenants) == 0 {
		return cfg, fmt.Errorf("%s: no tenants declared", path)
	}
	return cfg, nil
}

// resolveToken returns the tenant's bearer token, preferring token_env.
func resolveToken(ts tenantSpec) (string, error) {
	if ts.TokenEnv != "" {
		tok := os.Getenv(ts.TokenEnv)
		if tok == "" {
			return "", fmt.Errorf("tenant %q: environment variable %s is empty", ts.Name, ts.TokenEnv)
		}
		return tok, nil
	}
	if ts.Token == "" {
		return "", fmt.Errorf("tenant %q: token or token_env is required", ts.Name)
	}
	return ts.Token, nil
}

// parseGroups splits a cluster spec into replica address groups:
// "a,b;c,d" → [[a b] [c d]]. Whitespace around addresses is ignored;
// empty slices or addresses are rejected.
func parseGroups(spec string) ([][]string, error) {
	var groups [][]string
	for _, g := range strings.Split(spec, ";") {
		if strings.TrimSpace(g) == "" {
			return nil, fmt.Errorf("empty replica group in cluster spec %q", spec)
		}
		var reps []string
		for _, a := range strings.Split(g, ",") {
			a = strings.TrimSpace(a)
			if a == "" {
				return nil, fmt.Errorf("empty replica address in cluster spec %q", spec)
			}
			reps = append(reps, a)
		}
		groups = append(groups, reps)
	}
	return groups, nil
}

// buildCluster dials every replica and assembles the tenant's
// coordinator, each slot wired with a dialer so policy retries and the
// monitor's reseed can reconnect.
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

// buildTenant turns one config entry into a gate.TenantConfig. A cluster
// tenant also returns its head, which the caller checkpoints while serving
// and closes after draining; a local tenant returns a nil head.
func buildTenant(ts tenantSpec, reg *obs.Registry) (gate.TenantConfig, *clusterHead, error) {
	if ts.Name == "" {
		return gate.TenantConfig{}, nil, fmt.Errorf("tenant with empty name")
	}
	token, err := resolveToken(ts)
	if err != nil {
		return gate.TenantConfig{}, nil, err
	}
	if ts.Workers <= 0 {
		return gate.TenantConfig{}, nil, fmt.Errorf("tenant %q: positive workers required", ts.Name)
	}
	policy := pool.DefaultPolicy()
	if ts.MinResponses > 0 {
		policy.MinResponses = ts.MinResponses
	}
	tc := gate.TenantConfig{
		Name: ts.Name, Token: token,
		Workers: ts.Workers, Shards: ts.Shards, Policy: &policy,
		RatePerSec: ts.RatePerSec, Burst: ts.Burst,
	}
	if ts.Cluster == "" {
		if ts.WAL != "" {
			return gate.TenantConfig{}, nil, fmt.Errorf("tenant %q: wal requires cluster (an in-process tenant has no slices to journal)", ts.Name)
		}
		return tc, nil, nil
	}
	head, err := startClusterHead(ts, &tc, reg)
	if err != nil {
		return gate.TenantConfig{}, nil, fmt.Errorf("tenant %q: %w", ts.Name, err)
	}
	return tc, head, nil
}

func run() (err error) {
	listen := flag.String("listen", "", "address to serve the /v1 API on (required), e.g. :8080")
	tenantsPath := flag.String("tenants", "", "path to the tenant config JSON file (required)")
	queue := flag.Int("queue", 0, "admission queue depth; requests beyond it are shed with 429 (0 = default)")
	retryAfter := flag.Duration("retry-after", 0, "Retry-After hint on shed responses (0 = default 1s)")
	pprofOn := flag.Bool("pprof", false, "expose /debug/pprof/ profiling handlers")
	flag.Parse()
	if *listen == "" {
		return fmt.Errorf("-listen is required")
	}
	if *tenantsPath == "" {
		return fmt.Errorf("-tenants is required")
	}
	cfg, err := loadConfig(*tenantsPath)
	if err != nil {
		return err
	}

	reg := newRegistry()
	logger := obs.NewLogger(os.Stderr, "crowdgate", slog.LevelInfo)

	opts := gate.Options{QueueDepth: *queue, RetryAfter: *retryAfter, Registry: reg, Logger: logger}
	var heads []*clusterHead
	// Runs last: the final checkpoint comes after the drain below.
	defer func() {
		for _, h := range heads {
			err = errors.Join(err, h.close())
		}
	}()
	for _, ts := range cfg.Tenants {
		tc, head, err := buildTenant(ts, reg)
		if err != nil {
			return err
		}
		opts.Tenants = append(opts.Tenants, tc)
		backend := "local"
		if head != nil {
			heads = append(heads, head)
			backend = "cluster " + ts.Cluster
			if ts.WAL != "" {
				backend += ", journaling under " + ts.WAL
			}
		}
		fmt.Fprintf(os.Stderr, "crowdgate: tenant %s: %d workers, %s\n", ts.Name, ts.Workers, backend)
	}
	gw, err := gate.New(opts)
	if err != nil {
		return err
	}
	stopCheckpoints := dist.CheckpointEvery(dist.DefaultCheckpointInterval,
		func() error { return checkpointAll(heads) },
		func(err error) { fmt.Fprintf(os.Stderr, "crowdgate: checkpoint: %v\n", err) })
	defer stopCheckpoints()

	srv := &http.Server{Addr: *listen, Handler: newMux(gw, reg, logger, *pprofOn)}

	serveErr := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			serveErr <- err
			return
		}
		serveErr <- nil
	}()
	fmt.Fprintf(os.Stderr, "crowdgate: serving /v1 for %d tenants on %s\n", len(cfg.Tenants), *listen)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		return err
	case <-sig:
	}
	fmt.Fprintf(os.Stderr, "crowdgate: shutting down\n")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// In-flight requests get the grace period; the listener closes now.
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	return <-serveErr
}

// newRegistry builds the gateway's metrics registry on the system clock
// and exports process uptime.
func newRegistry() *obs.Registry {
	reg := obs.NewRegistry(nil)
	reg.GaugeFunc("process_uptime_seconds",
		"Seconds since the gateway came up.",
		func() float64 { return reg.Uptime().Seconds() })
	return reg
}

// newMux serves the /v1 API, the registry as GET /metrics and, with
// pprofOn, the profiling handlers, all behind the access-log middleware.
func newMux(gw *gate.Gateway, reg *obs.Registry, logger *slog.Logger, pprofOn bool) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/", gw)
	mux.Handle("/metrics", reg)
	if pprofOn {
		attachPprof(mux)
	}
	return obs.HTTPMiddleware(mux, logger, reg, "gate")
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "crowdgate: %v\n", err)
		os.Exit(1)
	}
}
