package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hostprof/internal/ads"
	"hostprof/internal/core"
	"hostprof/internal/engine"
	"hostprof/internal/obs"
	"hostprof/internal/ontology"
	"hostprof/internal/store"
	"hostprof/internal/synth"
	"hostprof/internal/trace"
)

// newDurableBackend builds a backend over dir with the fixture world.
func newDurableBackend(t *testing.T, dir string, reg *obs.Registry) *Backend {
	t.Helper()
	return newDurableBackendWith(t, dir, reg, core.ProfilerConfig{N: 30, Agg: core.AggIDF}, nil)
}

// newDurableBackendWith is newDurableBackend under a given profiler
// configuration, logging to logs when non-nil.
func newDurableBackendWith(t *testing.T, dir string, reg *obs.Registry, profile core.ProfilerConfig, logs *bytes.Buffer) *Backend {
	t.Helper()
	u := synth.NewUniverse(synth.UniverseConfig{Sites: 100, Trackers: 15, Seed: 3})
	ont := synth.BuildOntology(u, synth.OntologyConfig{Coverage: 0.2, Seed: 5})
	db := ads.BuildFromOntology(ont, ads.BuildConfig{Seed: 7})
	cfg := Config{
		Ontology: ont,
		AdDB:     db,
		Train:    core.TrainConfig{Dim: 16, Epochs: 2, MinCount: 2, Seed: 11, Subsample: -1},
		Profile:  profile,
		Metrics:  reg,
		DataDir:  dir,
		Fsync:    store.FsyncNever,
	}
	if logs != nil {
		cfg.Logger = slog.New(slog.NewTextHandler(logs, nil))
	}
	b, err := New(cfg)
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
	rec := b2.store.Recovery()
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
	rec := b2.store.Recovery()
	if rec.ReplayedRecords != 0 {
		t.Fatalf("replayed %d records after graceful close, want 0 (snapshot covers all)", rec.ReplayedRecords)
	}
	if rec.SnapshotVisits != 20 {
		t.Fatalf("SnapshotVisits = %d, want 20", rec.SnapshotVisits)
	}
}

// TestBackendStoreLogsToConfiguredLogger: the store New opens on
// DataDir reports through Config.Logger like the rest of the backend —
// the recovery summary, and the warning for a snapshot it had to skip —
// and puts nothing on the process default.
func TestBackendStoreLogsToConfiguredLogger(t *testing.T) {
	var stray bytes.Buffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&stray, nil)))
	t.Cleanup(func() { slog.SetDefault(prev) })

	dir := t.TempDir()
	var logs bytes.Buffer
	b := newDurableBackendWith(t, dir, nil, core.ProfilerConfig{N: 30, Agg: core.AggIDF}, &logs)
	if !strings.Contains(logs.String(), "store recovered") {
		t.Fatalf("configured logger lacks the store's recovery line:\n%s", logs.String())
	}
	if _, err := b.report(context.Background(), 1, 1, []string{"logged.example"}); err != nil && !errors.Is(err, engine.ErrNotTrained) {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.gob"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots after Close: %v, %v", snaps, err)
	}
	if err := os.Truncate(snaps[0], 10); err != nil {
		t.Fatal(err)
	}

	logs.Reset()
	b2 := newDurableBackendWith(t, dir, nil, core.ProfilerConfig{N: 30, Agg: core.AggIDF}, &logs)
	t.Cleanup(func() { b2.Close() })
	for _, want := range []string{"level=WARN", "store skipping unreadable snapshot", "store recovered", "skipped_snapshots=1"} {
		if !strings.Contains(logs.String(), want) {
			t.Fatalf("configured logger lacks %q:\n%s", want, logs.String())
		}
	}
	if stray.Len() != 0 {
		t.Fatalf("logged to slog.Default() beside the configured logger:\n%s", stray.String())
	}
}

// annProfile is the profiler configuration of the graph-restart tests:
// ANNEf and ANNM are tiny so that this vocabulary (149 rows) is above
// max(ef, N)·2M = 80 and gets a graph, and so that the graph answers
// instead of falling back to the exact scan.
var annProfile = core.ProfilerConfig{N: 10, Agg: core.AggIDF, ANN: true, ANNEf: 8, ANNM: 4}

// trainANNBackend ingests the fixture browsing into a fresh durable
// backend over dir under profile and retrains it (which installs, builds
// the graph if profile gets one, and snapshots). It returns the backend
// and 200 seeded sessions over the hosts it saw.
func trainANNBackend(t *testing.T, dir string, profile core.ProfilerConfig, reg *obs.Registry, logs *bytes.Buffer) (*Backend, [][]string) {
	t.Helper()
	b := newDurableBackendWith(t, dir, reg, profile, logs)
	u := synth.NewUniverse(synth.UniverseConfig{Sites: 100, Trackers: 15, Seed: 3})
	visits := synth.NewPopulation(u, synth.PopulationConfig{Users: 6, Days: 2, Seed: 13}).Browse().Visits()
	for _, v := range visits {
		if _, err := b.report(context.Background(), v.User, v.Time, []string{v.Host}); err != nil && !errors.Is(err, engine.ErrNotTrained) {
			t.Fatalf("report: %v", err)
		}
	}
	if err := b.Retrain(); err != nil {
		t.Fatalf("retrain: %v", err)
	}
	rng := rand.New(rand.NewSource(200))
	sessions := make([][]string, 200)
	for i := range sessions {
		sessions[i] = make([]string, 1+rng.Intn(5))
		for j := range sessions[i] {
			sessions[i][j] = visits[rng.Intn(len(visits))].Host
		}
	}
	return b, sessions
}

// batchAnswers profiles sessions through the backend's batch path.
func batchAnswers(t *testing.T, b *Backend, sessions [][]string) ([]ontology.Vector, []error) {
	t.Helper()
	vecs, errs, err := b.ProfileSessions(context.Background(), sessions)
	if err != nil {
		t.Fatal(err)
	}
	return vecs, errs
}

// requireSameAnswers compares two sets of batch answers bit for bit,
// errors by message.
func requireSameAnswers(t *testing.T, what string, gotV []ontology.Vector, gotE []error, wantV []ontology.Vector, wantE []error) {
	t.Helper()
	answered := 0
	for i := range wantV {
		if (gotE[i] == nil) != (wantE[i] == nil) || (wantE[i] != nil && gotE[i].Error() != wantE[i].Error()) {
			t.Fatalf("%s: session %d: err %v, want %v", what, i, gotE[i], wantE[i])
		}
		if len(gotV[i]) != len(wantV[i]) {
			t.Fatalf("%s: session %d: %d categories, want %d", what, i, len(gotV[i]), len(wantV[i]))
		}
		for c := range wantV[i] {
			if math.Float64bits(gotV[i][c]) != math.Float64bits(wantV[i][c]) {
				t.Fatalf("%s: session %d category %d: %v, want %v", what, i, c, gotV[i][c], wantV[i][c])
			}
		}
		if wantE[i] == nil {
			answered++
		}
	}
	if answered < len(wantV)/2 {
		t.Fatalf("%s: only %d of %d sessions profiled; the comparison says little", what, answered, len(wantV))
	}
}

// annBuilds returns the sample count of the graph-build histogram: how
// many graphs this process built. -1 when ANN is off (not registered).
func annBuilds(reg *obs.Registry) int64 {
	for _, m := range reg.Snapshot() {
		if m.Name == "hostprof_index_ann_build_seconds" {
			return m.Count
		}
	}
	return -1
}

// TestWarmRestartRestoresANNGraph is the tentpole at the server layer: a
// shard serving through the HNSW graph comes back — after SIGKILL right
// after the install, and again after a graceful close — serving the same
// model version and the same bits for 200 batch answers, having loaded
// its graph rather than built one.
func TestWarmRestartRestoresANNGraph(t *testing.T) {
	dir := t.TempDir()
	b, sessions := trainANNBackend(t, dir, annProfile, nil, nil)
	wantV, wantE := batchAnswers(t, b, sessions)
	version := b.ModelVersion()
	if version == "" {
		t.Fatal("trained backend advertises no model version")
	}
	// SIGKILL: b is abandoned — no Close, no final snapshot. What the
	// install snapshotted is all there is.

	for _, restart := range []string{"after SIGKILL", "after graceful close"} {
		reg := obs.NewRegistry()
		var logs bytes.Buffer
		b2 := newDurableBackendWith(t, dir, reg, annProfile, &logs)
		if got := b2.ModelVersion(); got != version {
			t.Fatalf("%s: model version %s, want %s", restart, got, version)
		}
		if got := annBuilds(reg); got != 0 {
			t.Fatalf("%s: %d graph builds on restart, want the histogram registered at 0\n%s", restart, got, logs.String())
		}
		if !strings.Contains(logs.String(), "ANN graph restored from snapshot") || strings.Contains(logs.String(), "rejected") {
			t.Fatalf("%s: no restored line in the log:\n%s", restart, logs.String())
		}
		gotV, gotE := batchAnswers(t, b2, sessions)
		requireSameAnswers(t, restart, gotV, gotE, wantV, wantE)
		var queries, fallbacks float64
		for _, m := range reg.Snapshot() {
			switch m.Name {
			case "hostprof_index_ann_queries_total":
				queries = m.Value
			case "hostprof_index_ann_fallbacks_total":
				fallbacks = m.Value
			}
		}
		if queries == 0 || fallbacks >= queries {
			t.Fatalf("%s: queries=%v fallbacks=%v; the restored graph never answered", restart, queries, fallbacks)
		}
		if err := b2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestANNBelowThresholdServesExact: at serve's default ef and M the
// fixture's 149 rows are below max(ef, N)·2M = 4 096, so an -ann backend
// builds no graph — one INFO line gives rows and threshold, the build
// histogram is registered at 0 — writes none into its snapshot, and
// answers like a fresh exact profiler bit for bit; a restart does the
// same.
func TestANNBelowThresholdServesExact(t *testing.T) {
	dir := t.TempDir()
	profile := annProfile
	profile.ANNEf, profile.ANNM = 0, 0
	reg := obs.NewRegistry()
	var logs bytes.Buffer
	b, sessions := trainANNBackend(t, dir, profile, reg, &logs)
	art, ok, err := b.ModelArtifact()
	if err != nil || !ok {
		t.Fatalf("artifact: ok=%v err=%v", ok, err)
	}
	scratch, err := core.Load(bytes.NewReader(art.Data))
	if err != nil {
		t.Fatal(err)
	}
	exact := profile
	exact.ANN = false
	wantV, wantE := core.NewProfiler(scratch, b.cfg.Ontology, exact).ProfileSessions(context.Background(), sessions)
	const skipped = `msg="ANN graph skipped, the exact scan serves" rows=149 threshold=4096`
	for gen := 0; gen < 2; gen++ {
		if !strings.Contains(logs.String(), skipped) || strings.Contains(logs.String(), "ANN graph built") || strings.Contains(logs.String(), "ANN graph restored") {
			t.Fatalf("generation %d: want the skip logged with rows and threshold, no build and no restore:\n%s", gen, logs.String())
		}
		if got := annBuilds(reg); got != 0 {
			t.Fatalf("generation %d: %d graph builds, want the histogram registered at 0", gen, got)
		}
		gotV, gotE := batchAnswers(t, b, sessions)
		requireSameAnswers(t, "below the threshold", gotV, gotE, wantV, wantE)
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		st, err := store.Open(store.Config{Dir: dir, Fsync: store.FsyncNever, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
		if err != nil {
			t.Fatal(err)
		}
		if enc := st.Model().EncodedANN(); enc != nil {
			t.Fatalf("generation %d: the snapshot carries %d graph bytes", gen, len(enc))
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		reg = obs.NewRegistry()
		logs.Reset()
		b = newDurableBackendWith(t, dir, reg, profile, &logs)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRestartUnderOtherANNConfig: the persisted graph is used only by
// the configuration that built it. Another -ann-m refuses it with a
// logged reason and builds its own; no -ann at all serves the exact
// scan and lets go of the bytes. Both answer exactly like a profiler
// built from nothing over the same model.
func TestRestartUnderOtherANNConfig(t *testing.T) {
	dir := t.TempDir()
	b, sessions := trainANNBackend(t, dir, annProfile, nil, nil)
	art, ok, err := b.ModelArtifact()
	if err != nil || !ok {
		t.Fatalf("artifact: ok=%v err=%v", ok, err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	otherM := annProfile
	otherM.ANNM = 6
	exact := annProfile
	exact.ANN = false
	for _, tc := range []struct {
		name    string
		profile core.ProfilerConfig
		builds  int64
		logged  string
	}{
		{"another ANNM", otherM, 1, "want M=6"},
		{"no ANN", exact, -1, ""},
	} {
		reg := obs.NewRegistry()
		var logs bytes.Buffer
		b2 := newDurableBackendWith(t, dir, reg, tc.profile, &logs)
		if got := b2.ModelVersion(); got != art.Version {
			t.Fatalf("%s: model version %s, want %s", tc.name, got, art.Version)
		}
		if got := annBuilds(reg); got != tc.builds {
			t.Fatalf("%s: %d graph builds, want %d", tc.name, got, tc.builds)
		}
		if strings.Contains(logs.String(), "restored from snapshot") {
			t.Fatalf("%s: a graph of another configuration was restored:\n%s", tc.name, logs.String())
		}
		if tc.logged != "" && !(strings.Contains(logs.String(), "level=WARN") && strings.Contains(logs.String(), tc.logged)) {
			t.Fatalf("%s: no warning gives the reason %q:\n%s", tc.name, tc.logged, logs.String())
		}
		// The outcome that costs time says so, with its size and duration.
		if built := strings.Contains(logs.String(), `msg="ANN graph built" rows=`); built != (tc.builds > 0) {
			t.Fatalf("%s: %d graph builds, built line logged = %v:\n%s", tc.name, tc.builds, built, logs.String())
		}
		if !tc.profile.ANN && b2.store.Model().EncodedANN() != nil {
			t.Fatalf("%s: the served model still holds graph bytes", tc.name)
		}
		scratch, err := core.Load(bytes.NewReader(art.Data))
		if err != nil {
			t.Fatal(err)
		}
		fresh := core.NewProfiler(scratch, b2.cfg.Ontology, tc.profile)
		wantV, wantE := fresh.ProfileSessions(context.Background(), sessions)
		gotV, gotE := batchAnswers(t, b2, sessions)
		requireSameAnswers(t, tc.name, gotV, gotE, wantV, wantE)
		if err := b2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
