// Cluster tenants: a tenant with a "cluster" spec fronts crowdd workers,
// and the gateway is that cluster's one head. It dials every replica, runs
// the self-healing monitor and, with "wal", journals every task slice to a
// store of its own.
package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"crowdassess/internal/dist"
	"crowdassess/internal/gate"
	"crowdassess/internal/obs"
	"crowdassess/internal/pool"
	"crowdassess/internal/store"
)

// clusterHead is one cluster tenant's coordinator and, with "wal", its
// slice stores.
type clusterHead struct {
	coord  *dist.Coordinator
	stores []*store.Store
}

// startClusterHead dials the tenant's cluster, attaches its slice stores —
// rebuilding workers that came up empty from them — starts the monitor,
// and sets tc's Manager and Flush to a pool manager over the cluster
// under tc's Policy. Every series it registers carries the tenant's name
// as its tenant label, so cluster tenants share the gateway's /metrics
// without one tenant's gauges replacing another's.
func startClusterHead(ts tenantSpec, tc *gate.TenantConfig, reg *obs.Registry) (*clusterHead, error) {
	groups, err := parseGroups(ts.Cluster)
	if err != nil {
		return nil, err
	}
	coord, err := buildCluster(ts.Workers, groups, dist.DefaultPolicy())
	if err != nil {
		return nil, fmt.Errorf("dialing cluster: %w", err)
	}
	h := &clusterHead{coord: coord}
	fail := func(err error) (*clusterHead, error) {
		coord.Close()
		closeStores(h.stores)
		return nil, err
	}
	reg = reg.With(obs.Label{Key: "tenant", Value: ts.Name})
	coord.Instrument(reg)
	if ts.WAL != "" {
		if h.stores, err = openSliceStores(ts.WAL, coord.Slices(), reg); err != nil {
			return fail(err)
		}
		if err := coord.AttachSliceStores(h.stores); err != nil {
			return fail(err)
		}
	}
	ce := dist.NewClusterEvaluator(coord, 0)
	mgr, err := pool.NewManagerWith(ce, *tc.Policy)
	if err != nil {
		return fail(err)
	}
	mgr.Instrument(reg)
	tc.Manager, tc.Flush = mgr, ce.Flush
	coord.StartMonitor(dist.MonitorOptions{
		OnEvent: dist.ChainEvents(dist.EventMetrics(reg), func(e dist.Event) {
			fmt.Fprintf(os.Stderr, "crowdgate: tenant %s: cluster: %s\n", ts.Name, e)
		}),
	}).Instrument(reg)
	return h, nil
}

// close cuts the final checkpoint, then closes the coordinator and the
// stores. Call it after the gateway has drained, so the checkpoint covers
// every acked batch.
func (h *clusterHead) close() error {
	err := h.coord.CheckpointCompactAll()
	if err != nil {
		err = fmt.Errorf("final checkpoint: %w", err)
	}
	h.coord.Close()
	return errors.Join(err, closeStores(h.stores))
}

// checkpointAll cuts a compact checkpoint into every head's slice stores
// and truncates the journals behind it; a head without "wal" has none.
func checkpointAll(heads []*clusterHead) error {
	var errs []error
	for _, h := range heads {
		errs = append(errs, h.coord.CheckpointCompactAll())
	}
	return errors.Join(errs...)
}

// openSliceStores opens (or creates) one WAL engine per task slice under
// wal/slice-NNN, fsyncing every append: a batch is acked only once its
// journal record is on disk. On any failure the already-open stores are
// closed.
func openSliceStores(wal string, slices int, reg *obs.Registry) ([]*store.Store, error) {
	stores := make([]*store.Store, slices)
	for si := range stores {
		dir := filepath.Join(wal, fmt.Sprintf("slice-%03d", si))
		st, err := store.Open(store.OSFS{}, dir, store.Options{Fsync: store.FsyncAlways, Obs: reg})
		if err != nil {
			closeStores(stores)
			return nil, fmt.Errorf("opening slice %d WAL store %s: %w", si, dir, err)
		}
		stores[si] = st
	}
	return stores, nil
}

// closeStores closes every open store, joining the failures.
func closeStores(stores []*store.Store) error {
	var errs []error
	for _, st := range stores {
		if st != nil {
			errs = append(errs, st.Close())
		}
	}
	return errors.Join(errs...)
}
