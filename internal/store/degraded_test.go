package store

import (
	"errors"
	"testing"
	"time"

	"hostprof/internal/fault"
	"hostprof/internal/obs"
)

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestChaosWALFaultDegradesAndReattaches is the store-level acceptance
// test for graceful degradation: with the WAL failing, appends keep
// succeeding memory-only and the degraded gauge reads 1; once the fault
// clears, the backoff prober re-attaches the WAL, snapshots the
// degraded-window visits, and a restart recovers every one of them.
func TestChaosWALFaultDegradesAndReattaches(t *testing.T) {
	t.Cleanup(fault.Reset)
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s := mustOpen(t, Config{
		Dir: dir, Fsync: FsyncNever, Metrics: reg,
		ReprobeMin: 5 * time.Millisecond, ReprobeMax: 20 * time.Millisecond,
	})

	for i := 0; i < 10; i++ {
		if err := s.Append(visit(i, int64(i), "healthy.example")); err != nil {
			t.Fatal(err)
		}
	}
	if s.Degraded() {
		t.Fatal("healthy store reports degraded")
	}

	// Break the WAL. The append that observes the failure must still
	// succeed (memory-only), and the store must flip to degraded.
	fault.Set(fault.StoreWALAppend, fault.Error(errors.New("disk on fire")))
	if err := s.Append(visit(99, 100, "degraded.example")); err != nil {
		t.Fatalf("append during WAL failure returned %v, want nil (degrade, don't fail)", err)
	}
	if !s.Degraded() {
		t.Fatal("store not degraded after WAL append failure")
	}
	if got := metricValue(t, reg, "hostprof_store_degraded"); got != 1 {
		t.Fatalf("hostprof_store_degraded = %v, want 1", got)
	}
	if s.met.appendErrors.Value() == 0 {
		t.Fatal("append error not counted")
	}

	// Degraded appends bypass the WAL entirely and keep succeeding.
	for i := 0; i < 50; i++ {
		if err := s.Append(visit(i, int64(1000+i), "degraded.example")); err != nil {
			t.Fatalf("degraded append %d: %v", i, err)
		}
	}
	if err := s.Snapshot(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Snapshot while degraded = %v, want ErrDegraded", err)
	}

	// Probes keep failing while the fault is armed.
	waitFor(t, "a failed probe", func() bool {
		return metricValue(t, reg, "hostprof_store_wal_probe_failures_total") > 0
	})
	if !s.Degraded() {
		t.Fatal("store re-attached while the fault was still armed")
	}

	// Clear the fault: the prober re-attaches and snapshots, restoring
	// durability for everything ingested during the outage.
	fault.Reset()
	waitFor(t, "WAL re-attach", func() bool { return !s.Degraded() })
	if got := metricValue(t, reg, "hostprof_store_wal_reattaches_total"); got != 1 {
		t.Fatalf("hostprof_store_wal_reattaches_total = %v, want 1", got)
	}
	waitFor(t, "post-reattach snapshot", func() bool { return s.met.snapshotSeconds.Count() >= 1 })
	if got := metricValue(t, reg, "hostprof_store_degraded"); got != 0 {
		t.Fatalf("hostprof_store_degraded = %v after re-attach, want 0", got)
	}

	// Appends are durable again.
	if err := s.Append(visit(7, 2000, "recovered.example")); err != nil {
		t.Fatal(err)
	}
	want := s.Len()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A restart recovers the pre-fault visits, the degraded-window
	// visits (via the re-attach snapshot) and the post-re-attach tail.
	s2 := mustOpen(t, Config{Dir: dir})
	if got := s2.Len(); got != want {
		t.Fatalf("recovered %d visits, want %d", got, want)
	}
}

// TestDegradedStoreCloseRace: closing a store that is mid-degradation
// must not race the prober spawn or deadlock.
func TestDegradedStoreCloseRace(t *testing.T) {
	t.Cleanup(fault.Reset)
	s := mustOpen(t, Config{
		Dir: t.TempDir(), Fsync: FsyncNever,
		ReprobeMin: time.Millisecond, ReprobeMax: 2 * time.Millisecond,
	})
	fault.Set(fault.StoreWALAppend, fault.Error(errors.New("flaky")))
	for i := 0; i < 10; i++ {
		s.Append(visit(i, int64(i), "race.example"))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendRejectsOversizedHost: record-validation errors are the one
// append failure that is the caller's fault and still surfaces.
func TestAppendRejectsOversizedHost(t *testing.T) {
	s := mustOpen(t, Config{})
	big := make([]byte, maxRecordPayload/2+1)
	for i := range big {
		big[i] = 'a'
	}
	if err := s.Append(visit(1, 1, string(big))); err == nil {
		t.Fatal("oversized hostname accepted")
	}
	if s.Len() != 0 {
		t.Fatalf("oversized visit stored: Len = %d", s.Len())
	}
}

// metricValue reads one counter or gauge from the registry's JSON
// snapshot.
func metricValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}
