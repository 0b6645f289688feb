package server

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hostprof/internal/ads"
	"hostprof/internal/core"
	"hostprof/internal/engine"
	"hostprof/internal/obs"
	"hostprof/internal/store"
	"hostprof/internal/synth"
	"hostprof/internal/trace"
)

// newDurableBackend builds a backend over dir with the fixture world.
func newDurableBackend(t *testing.T, dir string, reg *obs.Registry) *Backend {
	t.Helper()
	u := synth.NewUniverse(synth.UniverseConfig{Sites: 100, Trackers: 15, Seed: 3})
	ont := synth.BuildOntology(u, synth.OntologyConfig{Coverage: 0.2, Seed: 5})
	db := ads.BuildFromOntology(ont, ads.BuildConfig{Seed: 7})
	b, err := New(Config{
		Ontology: ont,
		AdDB:     db,
		Train:    core.TrainConfig{Dim: 16, Epochs: 2, MinCount: 2, Workers: 1, Seed: 11, Subsample: -1},
		Profile:  core.ProfilerConfig{N: 30, Agg: core.AggIDF},
		Metrics:  reg,
		DataDir:  dir,
		Fsync:    store.FsyncNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func storeContents(b *Backend) []trace.Visit {
	vs := b.store.SnapshotTrace().Visits()
	out := append([]trace.Visit(nil), vs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time < out[j].Time
		}
		if out[i].User != out[j].User {
			return out[i].User < out[j].User
		}
		return out[i].Host < out[j].Host
	})
	return out
}

// TestBackendCrashRecovery is the acceptance test for the durability
// subsystem at the server layer: a backend with a data dir is killed
// without any shutdown (simulated SIGKILL mid-ingest), and the restarted
// backend must hold the exact pre-crash store contents, be warm (model
// restored from the retrain-time snapshot), and report the replayed
// record count through hostprof_store_recovery_records_total.
func TestBackendCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	b := newDurableBackend(t, dir, nil)

	// Phase 1: ingest two days of one user's browsing, retrain (which
	// snapshots), then keep ingesting so the WAL holds a post-snapshot
	// tail.
	u := synth.NewUniverse(synth.UniverseConfig{Sites: 100, Trackers: 15, Seed: 3})
	pop := synth.NewPopulation(u, synth.PopulationConfig{Users: 4, Days: 2, Seed: 13})
	visits := pop.Browse().Visits()
	half := len(visits) / 2
	for _, v := range visits[:half] {
		if _, err := b.report(context.Background(), v.User, v.Time, []string{v.Host}); err != nil && !errors.Is(err, engine.ErrNotTrained) {
			t.Fatalf("report: %v", err)
		}
	}
	if err := b.Retrain(); err != nil {
		t.Fatalf("retrain: %v", err)
	}
	for _, v := range visits[half:] {
		// The visit is appended before profiling, so profiler errors on
		// sparse single-host sessions (no labelled neighbour reachable)
		// still leave the store updated.
		if _, err := b.report(context.Background(), v.User, v.Time, []string{v.Host}); err != nil &&
			!errors.Is(err, core.ErrNoLabels) && !errors.Is(err, core.ErrEmptySession) {
			t.Fatalf("report after retrain: %v", err)
		}
	}
	pre := storeContents(b)
	preStats := b.CurrentStats()
	if !preStats.Trained {
		t.Fatal("backend not trained before crash")
	}
	// Crash: no Close, no flush, no snapshot — the backend object is
	// simply abandoned, as SIGKILL would leave it.

	// Phase 2: restart over the same directory.
	reg := obs.NewRegistry()
	b2 := newDurableBackend(t, dir, reg)
	t.Cleanup(func() { b2.Close() })

	post := storeContents(b2)
	if !reflect.DeepEqual(pre, post) {
		t.Fatalf("store diverged across crash: %d visits before, %d after", len(pre), len(post))
	}
	if !b2.Ready() {
		t.Fatal("restarted backend is cold: model not restored from snapshot")
	}
	rec := b2.Store().Recovery()
	if !rec.ModelRestored {
		t.Fatal("RecoveryStats.ModelRestored = false")
	}
	if rec.ReplayedRecords == 0 {
		t.Fatal("no WAL records replayed although post-snapshot reports were made")
	}

	var exp strings.Builder
	if err := reg.WritePrometheus(&exp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(exp.String(), "hostprof_store_recovery_records_total") {
		t.Fatal("exposition missing hostprof_store_recovery_records_total")
	}
	for _, m := range reg.Snapshot() {
		if m.Name == "hostprof_store_recovery_records_total" && m.Value != float64(rec.ReplayedRecords) {
			t.Fatalf("recovery_records_total = %v, want %d", m.Value, rec.ReplayedRecords)
		}
	}

	// The warm backend serves reports without a retrain: only
	// ErrNotTrained would betray a cold start; sparse-session profiler
	// errors are fine.
	v0 := visits[len(visits)-1]
	if _, err := b2.report(context.Background(), v0.User, v0.Time+60, []string{v0.Host}); errors.Is(err, engine.ErrNotTrained) {
		t.Fatal("warm backend claims not trained")
	}
}

// TestBackendGracefulClose: Close snapshots, so the next start replays
// zero WAL records.
func TestBackendGracefulClose(t *testing.T) {
	dir := t.TempDir()
	b := newDurableBackend(t, dir, nil)
	for i := 0; i < 20; i++ {
		if _, err := b.report(context.Background(), 1, int64(i), []string{"graceful.example"}); err != nil && !errors.Is(err, engine.ErrNotTrained) {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	b2 := newDurableBackend(t, dir, nil)
	t.Cleanup(func() { b2.Close() })
	rec := b2.Store().Recovery()
	if rec.ReplayedRecords != 0 {
		t.Fatalf("replayed %d records after graceful close, want 0 (snapshot covers all)", rec.ReplayedRecords)
	}
	if rec.SnapshotVisits != 20 {
		t.Fatalf("SnapshotVisits = %d, want 20", rec.SnapshotVisits)
	}
}
