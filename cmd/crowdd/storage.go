// Durable-storage flag surface: the WAL storage engine (-wal) journals
// every acknowledged batch as it lands and cuts O(delta) compact snapshots
// every -snapshot-interval. validateStorage is the one place the flag rules
// live, so both the daemon and its tests agree on what is rejected.
package main

import (
	"fmt"
	"time"

	"crowdassess/internal/obs"
	"crowdassess/internal/store"
)

// storageConfig is the validated persistence configuration for one daemon:
// a directory holding WAL segments and compact snapshots (empty = no
// persistence), the append durability, and the snapshot period.
type storageConfig struct {
	wal       string
	fsync     store.FsyncPolicy
	snapEvery time.Duration
}

// validateStorage checks the persistence flags as a set: with -wal, the
// snapshot interval must be positive (a WAL without snapshots grows without
// bound) and -fsync must parse.
func validateStorage(wal, fsyncSpec string, snapEvery time.Duration) (storageConfig, error) {
	cfg := storageConfig{wal: wal, snapEvery: snapEvery}
	if wal == "" {
		return cfg, nil
	}
	if snapEvery <= 0 {
		return cfg, fmt.Errorf("-snapshot-interval %v must be positive: without periodic snapshots the WAL grows without bound", snapEvery)
	}
	policy, err := store.ParseFsyncPolicy(fsyncSpec)
	if err != nil {
		return cfg, fmt.Errorf("-fsync: %w", err)
	}
	cfg.fsync = policy
	return cfg, nil
}

// openWorkerStore opens the worker's WAL engine, or returns nil when the
// daemon runs without one. A non-nil reg instruments the store's append,
// fsync and snapshot paths.
func (cfg storageConfig) openWorkerStore(reg *obs.Registry) (*store.Store, error) {
	if cfg.wal == "" {
		return nil, nil
	}
	st, err := store.Open(store.OSFS{}, cfg.wal, store.Options{Fsync: cfg.fsync, Obs: reg})
	if err != nil {
		return nil, fmt.Errorf("opening WAL store %s: %w", cfg.wal, err)
	}
	return st, nil
}
