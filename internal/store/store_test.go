package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"hostprof/internal/core"
	"hostprof/internal/obs"
	"hostprof/internal/trace"
)

func mustOpen(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func visit(user int, ts int64, host string) trace.Visit {
	return trace.Visit{User: user, Time: ts, Host: host}
}

func appendAll(t *testing.T, s *Store, vs []trace.Visit) {
	t.Helper()
	for _, v := range vs {
		if err := s.Append(v); err != nil {
			t.Fatalf("Append(%+v): %v", v, err)
		}
	}
}

func TestMemoryStoreBasics(t *testing.T) {
	s := mustOpen(t, Config{Shards: 4})
	vs := []trace.Visit{
		visit(1, 10, "a.example"),
		visit(2, 20, "b.example"),
		visit(1, 30, "c.example"),
		visit(3, 86400+5, "d.example"),
	}
	appendAll(t, s, vs)
	if got := s.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := s.Users(); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("Users = %v", got)
	}
	if got := s.Session(1, 30, 25); !reflect.DeepEqual(got, []string{"a.example", "c.example"}) {
		t.Fatalf("Session = %v", got)
	}
	// The window is (end-window, end]: a visit exactly window seconds old
	// is excluded.
	if got := s.Session(1, 30, 20); !reflect.DeepEqual(got, []string{"c.example"}) {
		t.Fatalf("Session tight window = %v", got)
	}
	tr := s.SnapshotTrace()
	if tr.Len() != 4 || tr.Days() != 2 {
		t.Fatalf("SnapshotTrace: len=%d days=%d", tr.Len(), tr.Days())
	}
	// Day 0 has users 1 and 2, day 1 has user 3: three (user, day)
	// sequences in total.
	if got := len(s.AllSequences()); got != 3 {
		t.Fatalf("AllSequences groups = %d, want 3", got)
	}
}

// TestSnapshotTraceIsACopy pins the Pipeline.Trace live-pointer fix:
// mutating the returned trace must not affect the store.
func TestSnapshotTraceIsACopy(t *testing.T) {
	s := mustOpen(t, Config{})
	appendAll(t, s, []trace.Visit{visit(1, 1, "a.example")})
	tr := s.SnapshotTrace()
	tr.Append(visit(9, 9, "rogue.example"))
	if s.Len() != 1 {
		t.Fatalf("store mutated through SnapshotTrace copy: len=%d", s.Len())
	}
	if got := s.SnapshotTrace().Len(); got != 1 {
		t.Fatalf("second snapshot sees %d visits, want 1", got)
	}
}

func TestShardRoundingAndSpread(t *testing.T) {
	s := mustOpen(t, Config{Shards: 5})
	if len(s.shards) != 8 {
		t.Fatalf("shards = %d, want rounded to 8", len(s.shards))
	}
	for u := 0; u < 1000; u++ {
		s.Append(visit(u, int64(u), "h.example"))
	}
	// A multiplicative hash over sequential users must not collapse into
	// few shards.
	used := 0
	for i := range s.shards {
		if s.shards[i].n > 0 {
			used++
		}
	}
	if used < len(s.shards) {
		t.Fatalf("only %d/%d shards used for 1000 sequential users", used, len(s.shards))
	}
}

func TestConcurrentAppendAndRead(t *testing.T) {
	s := mustOpen(t, Config{Dir: t.TempDir(), Fsync: FsyncNever, Shards: 8})
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Append(visit(w, int64(i), fmt.Sprintf("w%d.example", w)))
				if i%50 == 0 {
					s.Session(w, int64(i), 100)
					s.Len()
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 4; i++ {
			if err := s.Snapshot(); err != nil {
				t.Errorf("Snapshot during writes: %v", err)
			}
		}
	}()
	wg.Wait()
	<-done
	if got := s.Len(); got != workers*per {
		t.Fatalf("Len = %d, want %d", got, workers*per)
	}
	// Everything must also be durable: reopen and compare.
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2 := mustOpen(t, Config{Dir: s.cfg.Dir})
	if got := s2.Len(); got != workers*per {
		t.Fatalf("reopened Len = %d, want %d", got, workers*per)
	}
}

func TestModelRoundTripThroughSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Config{Dir: dir})
	corpus := [][]string{{"a.example", "b.example", "a.example", "b.example", "c.example"}}
	model, err := core.Train(corpus, core.TrainConfig{Dim: 8, Epochs: 2, MinCount: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s.SetModel(model)
	appendAll(t, s, []trace.Visit{visit(1, 1, "a.example")})
	if err := s.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	s.Close()

	s2 := mustOpen(t, Config{Dir: dir})
	m2 := s2.Model()
	if m2 == nil {
		t.Fatal("model not restored from snapshot")
	}
	if !s2.Recovery().ModelRestored {
		t.Fatal("RecoveryStats.ModelRestored = false")
	}
	if m2.Vocab().Len() != model.Vocab().Len() {
		t.Fatalf("restored vocab %d, want %d", m2.Vocab().Len(), model.Vocab().Len())
	}
	if s2.Recovery().SnapshotVisits != 1 {
		t.Fatalf("SnapshotVisits = %d, want 1", s2.Recovery().SnapshotVisits)
	}
}

func TestMetricsExported(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	s := mustOpen(t, Config{Dir: dir, Metrics: reg, Fsync: FsyncAlways})
	appendAll(t, s, []trace.Visit{visit(1, 1, "a.example"), visit(2, 2, "b.example")})
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := s.met.appends.Value(); got != 2 {
		t.Fatalf("appends_total = %d, want 2", got)
	}
	if s.met.fsyncs.Value() == 0 {
		t.Fatal("fsyncs_total = 0 under FsyncAlways")
	}
	if got := s.met.snapshotSeconds.Count(); got != 1 {
		t.Fatalf("snapshot_seconds_count = %d, want 1", got)
	}
	if s.met.walBytes.Value() == 0 {
		t.Fatal("wal_bytes_total = 0 after appends")
	}
	var exp strings.Builder
	if err := reg.WritePrometheus(&exp); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"hostprof_store_appends_total", "hostprof_store_visits",
		"hostprof_store_users", "hostprof_store_snapshot_seconds",
		"hostprof_store_recovery_records_total",
	} {
		if !strings.Contains(exp.String(), name) {
			t.Errorf("exposition missing %s", name)
		}
	}
	// A snapshot that cannot be published counts one error. A non-empty
	// directory where the next snapshot goes defeats the rename even for
	// root, which ignores permission bits.
	if err := os.MkdirAll(filepath.Join(snapPath(dir, s.wal.seq), "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err == nil {
		t.Fatal("snapshot published over a non-empty directory")
	}
	if got := metricValue(t, reg, "hostprof_store_snapshot_errors_total"); got != 1 {
		t.Fatalf("hostprof_store_snapshot_errors_total = %v, want 1", got)
	}
}

func TestFsyncPolicyParse(t *testing.T) {
	for _, c := range []struct {
		in   string
		want FsyncPolicy
		ok   bool
	}{
		{"always", FsyncAlways, true},
		{"interval", FsyncInterval, true},
		{"", FsyncInterval, true},
		{"never", FsyncNever, true},
		{"sometimes", 0, false},
	} {
		got, err := ParseFsync(c.in)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("ParseFsync(%q) = %v, %v", c.in, got, err)
		}
		if c.ok && got.String() == "" {
			t.Errorf("FsyncPolicy(%v).String() empty", got)
		}
	}
}

func TestSessionOrdersAcrossInterleavedAppends(t *testing.T) {
	s := mustOpen(t, Config{Shards: 1})
	// Appends arrive out of time order (e.g. reordered capture threads);
	// Session must still return visit-time order.
	appendAll(t, s, []trace.Visit{
		visit(7, 30, "late.example"),
		visit(7, 10, "early.example"),
		visit(7, 20, "mid.example"),
	})
	want := []string{"early.example", "mid.example", "late.example"}
	if got := s.Session(7, 40, 100); !reflect.DeepEqual(got, want) {
		t.Fatalf("Session = %v, want %v", got, want)
	}
	// The common shape: appends in time order but for one late report,
	// among other users' visits. Equal times keep their append order.
	appendAll(t, s, []trace.Visit{
		visit(8, 10, "a.example"),
		visit(9, 15, "other.example"),
		visit(8, 20, "b1.example"),
		visit(8, 30, "c.example"),
		visit(8, 20, "b2.example"),
		visit(8, 40, "d.example"),
	})
	want = []string{"a.example", "b1.example", "b2.example", "c.example", "d.example"}
	if got := s.Session(8, 40, 100); !reflect.DeepEqual(got, want) {
		t.Fatalf("Session after a late append = %v, want %v", got, want)
	}
}

func TestUsersSorted(t *testing.T) {
	s := mustOpen(t, Config{})
	for _, u := range []int{42, 7, 99, 7} {
		s.Append(visit(u, 1, "h.example"))
	}
	got := s.Users()
	if !sort.IntsAreSorted(got) || len(got) != 3 {
		t.Fatalf("Users = %v", got)
	}
}

func TestModelArtifactVersioning(t *testing.T) {
	s := mustOpen(t, Config{})
	if _, ok, err := s.ModelArtifact(); ok || err != nil {
		t.Fatalf("artifact on untrained store: ok=%v err=%v", ok, err)
	}
	if v := s.ModelVersion(); v != "" {
		t.Fatalf("version on untrained store: %q", v)
	}
	corpus := [][]string{{"a.example", "b.example", "a.example", "b.example", "c.example"}}
	model, err := core.Train(corpus, core.TrainConfig{Dim: 8, Epochs: 2, MinCount: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s.SetModel(model)
	art, ok, err := s.ModelArtifact()
	if !ok || err != nil {
		t.Fatalf("artifact: ok=%v err=%v", ok, err)
	}
	if art.Version == "" || len(art.Data) == 0 {
		t.Fatalf("empty artifact: %+v", art)
	}
	if art.Version != ArtifactVersion(art.Data) {
		t.Fatal("artifact version does not match its data hash")
	}
	// The artifact is a loadable model, and a peer installing it reports
	// the same version — the cluster convergence invariant.
	m2, err := core.Load(bytes.NewReader(art.Data))
	if err != nil {
		t.Fatalf("artifact does not load: %v", err)
	}
	peer := mustOpen(t, Config{})
	peer.InstallModel(m2, art.Data)
	if got := peer.ModelVersion(); got != art.Version {
		t.Fatalf("peer version %q, want %q", got, art.Version)
	}
	// Repeated exports serve the cache: same backing array.
	art2, _, _ := s.ModelArtifact()
	if &art2.Data[0] != &art.Data[0] {
		t.Fatal("artifact cache missed on unchanged model")
	}
	// A new model invalidates the cache and changes the version.
	model3, err := core.Train(corpus, core.TrainConfig{Dim: 8, Epochs: 2, MinCount: 1, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	s.SetModel(model3)
	if got := s.ModelVersion(); got == art.Version || got == "" {
		t.Fatalf("version after retrain %q, want fresh non-empty != %q", got, art.Version)
	}
}
