package store

import (
	"crowdassess/internal/obs"
)

// storeMetrics pre-resolves the engine's metric series at open time so
// the append hot path never takes a registry lookup — one nil check and
// atomic adds. A nil *storeMetrics disables instrumentation entirely.
//
// Timing runs on the registry's injected clock: the engine itself makes
// no scheduling or durability decision from these readings (crowdvet's
// determinism exemption for this package is scoped to exactly that —
// clocks pace measurement only, never replayed state).
type storeMetrics struct {
	clock       obs.Clock
	appendSec   *obs.Histogram
	fsyncSec    *obs.Histogram
	snapSaveSec *obs.Histogram
	appendBytes *obs.Counter
	records     *obs.Counter
	segCreated  *obs.Counter
	segRemoved  *obs.Counter
	truncations *obs.Counter
	snapSaved   *obs.Counter
	snapPruned  *obs.Counter
}

func newStoreMetrics(reg *obs.Registry) *storeMetrics {
	if reg == nil {
		return nil
	}
	return &storeMetrics{
		clock: reg.Clock(),
		appendSec: reg.Histogram("store_append_seconds",
			"WAL write latency (encode and write; the fsync is store_fsync_seconds).", nil),
		fsyncSec: reg.Histogram("store_fsync_seconds",
			"WAL segment fsync latency (one per group of acked writes, rotation, close and manual syncs).", nil),
		snapSaveSec: reg.Histogram("store_snapshot_save_seconds",
			"Snapshot save latency (atomic write, prune, directory sync).", nil),
		appendBytes: reg.Counter("store_append_bytes_total",
			"Encoded record bytes appended to the WAL."),
		records: reg.Counter("store_records_total",
			"Records appended to the WAL."),
		segCreated: reg.Counter("store_segments_created_total",
			"WAL segment files created."),
		segRemoved: reg.Counter("store_segments_removed_total",
			"WAL segment files removed by truncation."),
		truncations: reg.Counter("store_truncations_total",
			"TruncateBefore calls that removed at least one segment."),
		snapSaved: reg.Counter("store_snapshots_saved_total",
			"Snapshots durably saved."),
		snapPruned: reg.Counter("store_snapshots_pruned_total",
			"Old snapshot generations pruned."),
	}
}

// timedSync syncs segment f, recording the fsync latency when the log is
// instrumented. The caller holds l.mu or has claimed the fsync.
func (l *DiskLog) timedSync(f File) error {
	m := l.metrics
	if m == nil {
		return f.Sync()
	}
	start := m.clock.Now()
	err := f.Sync()
	m.fsyncSec.Observe(m.clock.Since(start).Seconds())
	return err
}
