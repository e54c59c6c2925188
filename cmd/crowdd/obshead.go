// The observability head: the daemon-side half of internal/obs. The
// worker serves its metrics registry as GET /metrics on the -health mux in
// Prometheus text format, answers /healthz, and — with -pprof — exposes
// the net/http/pprof profiling handlers under /debug/pprof/ on that same
// mux.
package main

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"

	"crowdassess/internal/obs"
)

// newRegistry builds the daemon's metrics registry on the system clock
// and exports process uptime. Every component (worker, HTTP head)
// instruments itself against this one registry, so /metrics is the whole
// daemon on one page.
func newRegistry() *obs.Registry {
	reg := obs.NewRegistry(nil)
	reg.GaugeFunc("process_uptime_seconds",
		"Seconds since the daemon came up.",
		func() float64 { return reg.Uptime().Seconds() })
	return reg
}

// healthzHandler serves {"status":"ok","uptime_s":...}: a worker that
// answers at all is ok. Cluster health — replica liveness, degraded
// slices — is the head's to report, on crowdgate's /metrics.
func healthzHandler(reg *obs.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"status":   "ok",
			"uptime_s": reg.Uptime().Seconds(),
		})
	}
}

// attachObs mounts the observability surface on the health mux: GET
// /metrics in Prometheus text exposition format and, when pprofOn, the
// pprof handlers. They are mounted explicitly rather than by serving
// http.DefaultServeMux (which the net/http/pprof import populates as a
// side effect), so profiling is reachable only when -pprof asked for it.
func attachObs(mux *http.ServeMux, reg *obs.Registry, pprofOn bool) {
	mux.Handle("/metrics", reg)
	if !pprofOn {
		return
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
