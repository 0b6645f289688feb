package store

import "hostprof/internal/obs"

// storeMetrics caches the store's registry handles. Every field is
// nil-safe (see internal/obs), so a store without a registry pays only
// dead branches.
type storeMetrics struct {
	appends          *obs.Counter
	appendErrors     *obs.Counter
	walBytes         *obs.Counter
	fsyncs           *obs.Counter
	rotations        *obs.Counter
	snapshotErrors   *obs.Counter
	snapshotSeconds  *obs.Histogram
	recoveryRecords  *obs.Counter
	recoveryTorn     *obs.Counter
	walReattaches    *obs.Counter
	walProbeFailures *obs.Counter
}

// snapshotBuckets spans in-memory toy stores to multi-gigabyte dumps.
var snapshotBuckets = obs.ExpBuckets(0.001, 4, 10)

func newStoreMetrics(reg *obs.Registry, s *Store) storeMetrics {
	reg.Describe("hostprof_store_appends_total", "visits appended to the sharded store")
	reg.Describe("hostprof_store_wal_bytes_total", "bytes written to the write-ahead log")
	reg.Describe("hostprof_store_fsyncs_total", "WAL fsync calls issued")
	reg.Describe("hostprof_store_segment_rotations_total", "WAL segment rotations (size bound or snapshot cut)")
	reg.Describe("hostprof_store_snapshot_errors_total", "snapshot writes that failed")
	reg.Describe("hostprof_store_snapshot_seconds", "wall time of successful snapshot writes")
	reg.Describe("hostprof_store_recovery_records_total", "WAL records replayed during startup recovery")
	reg.Describe("hostprof_store_recovery_torn_tails_total", "torn WAL tails truncated during recovery")
	reg.Describe("hostprof_store_wal_probe_failures_total", "failed WAL re-attach probes while degraded")
	reg.Describe("hostprof_store_visits", "visits held in the store")
	reg.Describe("hostprof_store_users", "distinct users held in the store")
	reg.Describe("hostprof_store_degraded", "1 while the WAL is detached after a write failure and the store runs memory-only")
	reg.Describe("hostprof_store_append_errors_total", "WAL append failures (each one degrades the store)")
	reg.Describe("hostprof_store_wal_reattaches_total", "successful WAL re-attachments after degraded mode")
	reg.GaugeFunc("hostprof_store_visits", func() float64 { return float64(s.Len()) })
	reg.GaugeFunc("hostprof_store_users", func() float64 { return float64(s.UserCount()) })
	reg.GaugeFunc("hostprof_store_degraded", func() float64 {
		if s.Degraded() {
			return 1
		}
		return 0
	})
	return storeMetrics{
		appends:          reg.Counter("hostprof_store_appends_total"),
		appendErrors:     reg.Counter("hostprof_store_append_errors_total"),
		walBytes:         reg.Counter("hostprof_store_wal_bytes_total"),
		fsyncs:           reg.Counter("hostprof_store_fsyncs_total"),
		rotations:        reg.Counter("hostprof_store_segment_rotations_total"),
		snapshotErrors:   reg.Counter("hostprof_store_snapshot_errors_total"),
		snapshotSeconds:  reg.Histogram("hostprof_store_snapshot_seconds", snapshotBuckets),
		recoveryRecords:  reg.Counter("hostprof_store_recovery_records_total"),
		recoveryTorn:     reg.Counter("hostprof_store_recovery_torn_tails_total"),
		walReattaches:    reg.Counter("hostprof_store_wal_reattaches_total"),
		walProbeFailures: reg.Counter("hostprof_store_wal_probe_failures_total"),
	}
}
