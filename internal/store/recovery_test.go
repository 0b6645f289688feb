package store

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hostprof/internal/core"
	"hostprof/internal/obs"
	"hostprof/internal/ontology"
	"hostprof/internal/trace"
)

// sortedVisits returns the store contents in canonical order for
// equality checks.
func sortedVisits(s *Store) []trace.Visit {
	vs := s.copyVisits()
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].Time != vs[j].Time {
			return vs[i].Time < vs[j].Time
		}
		return vs[i].User < vs[j].User
	})
	return vs
}

// crash simulates SIGKILL: the store is abandoned with no Close, no
// flush, no snapshot. Because Append writes the WAL record before
// returning, every acknowledged visit is in the OS file and must survive
// a process kill (fsync only matters for power loss).
func crash(s *Store) {
	// Intentionally nothing.
}

func TestRecoveryFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	var want []trace.Visit
	for i := 0; i < 100; i++ {
		v := visit(i%7, int64(i), fmt.Sprintf("host%d.example", i%13))
		want = append(want, v)
		if err := s.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	pre := sortedVisits(s)
	crash(s)

	reg := obs.NewRegistry()
	s2 := mustOpen(t, Config{Dir: dir, Metrics: reg})
	if got := sortedVisits(s2); !reflect.DeepEqual(got, pre) {
		t.Fatalf("recovered %d visits != pre-crash %d", len(got), len(pre))
	}
	if got := s2.Recovery().ReplayedRecords; got != len(want) {
		t.Fatalf("ReplayedRecords = %d, want %d", got, len(want))
	}
	if got := s2.met.recoveryRecords.Value(); got != int64(len(want)) {
		t.Fatalf("hostprof_store_recovery_records_total = %d, want %d", got, len(want))
	}
}

// TestRecoveryTornTail is the kill-after-partial-write test: the final
// WAL segment is truncated mid-record and recovery must return every
// complete record, drop the torn one, and repair the segment so a second
// recovery sees a clean log.
func TestRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := s.Append(visit(i, int64(i), "torn.example")); err != nil {
			t.Fatal(err)
		}
	}
	crash(s)

	// Tear the last record: chop 3 bytes off the only segment.
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	last := segs[len(segs)-1].path
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	s2 := mustOpen(t, Config{Dir: dir, Metrics: reg})
	rec := s2.Recovery()
	if rec.ReplayedRecords != n-1 {
		t.Fatalf("ReplayedRecords = %d, want %d", rec.ReplayedRecords, n-1)
	}
	if !rec.TornTail {
		t.Fatal("TornTail not reported")
	}
	if got := metricValue(t, reg, "hostprof_store_recovery_torn_tails_total"); got != 1 {
		t.Fatalf("hostprof_store_recovery_torn_tails_total = %v, want 1", got)
	}
	if got := s2.Len(); got != n-1 {
		t.Fatalf("Len = %d, want %d", got, n-1)
	}
	// The torn suffix must have been truncated away on disk.
	fi2, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if fi2.Size() >= fi.Size()-3 {
		t.Fatalf("torn tail not repaired: %d >= %d", fi2.Size(), fi.Size()-3)
	}
	// A third open (after the repairing one crashed too) replays cleanly
	// with no torn tail.
	crash(s2)
	s3 := mustOpen(t, Config{Dir: dir})
	if s3.Recovery().TornTail {
		t.Fatal("repaired segment still reports a torn tail")
	}
	if got := s3.Recovery().ReplayedRecords; got != n-1 {
		t.Fatalf("second recovery ReplayedRecords = %d, want %d", got, n-1)
	}
}

// TestRecoverySnapshotPlusWALTail: crash after a snapshot and further
// appends must restore snapshot + tail exactly.
func TestRecoverySnapshotPlusWALTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		s.Append(visit(i, int64(i), "pre.example"))
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 30; i < 45; i++ {
		s.Append(visit(i, int64(i), "post.example"))
	}
	pre := sortedVisits(s)
	crash(s)

	s2 := mustOpen(t, Config{Dir: dir})
	if got := sortedVisits(s2); !reflect.DeepEqual(got, pre) {
		t.Fatalf("recovered store diverges: %d vs %d visits", len(got), len(pre))
	}
	rec := s2.Recovery()
	if rec.SnapshotVisits != 30 || rec.ReplayedRecords != 15 {
		t.Fatalf("recovery stats = %+v, want 30 snapshot + 15 replayed", rec)
	}
}

// TestRecoverySkipsCoveredSegments: a crash between snapshot publish and
// segment cleanup leaves WAL segments the snapshot already covers; they
// must be skipped, never double-applied.
func TestRecoverySkipsCoveredSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Append(visit(i, int64(i), "dup.example"))
	}
	pre := sortedVisits(s)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	crash(s)

	// Resurrect a covered segment, as if cleanup never ran: write the
	// same 10 visits into a segment numbered below the snapshot cut.
	var buf []byte
	for i := 0; i < 10; i++ {
		buf, err = appendRecord(buf, visit(i, int64(i), "dup.example"))
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(walPath(dir, 1), buf, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, Config{Dir: dir})
	if got := sortedVisits(s2); !reflect.DeepEqual(got, pre) {
		t.Fatalf("covered segment double-applied: %d visits, want %d", len(got), len(pre))
	}
	if s2.Recovery().ReplayedRecords != 0 {
		t.Fatalf("ReplayedRecords = %d, want 0", s2.Recovery().ReplayedRecords)
	}
}

// TestRecoveryFallsBackToOlderSnapshot: an unreadable newest snapshot
// must not lose the store — recovery falls back to the previous one and
// the WAL segments after *its* cut.
func TestRecoveryFallsBackToOlderSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.Append(visit(i, int64(i), "old.example"))
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	crash(s)
	// Forge a newer, corrupt snapshot.
	if err := os.WriteFile(snapPath(dir, 99), []byte("not a gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Keep a WAL segment alive after the good snapshot's cut.
	buf, _ := appendRecord(nil, visit(9, 9, "tail.example"))
	segs, _ := listSegments(dir)
	var next uint64 = 1
	if len(segs) > 0 {
		next = segs[len(segs)-1].seq + 1
	}
	if err := os.WriteFile(walPath(dir, next), buf, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, Config{Dir: dir})
	if got := s2.Len(); got != 6 {
		t.Fatalf("Len = %d, want 5 snapshot + 1 tail", got)
	}
}

func TestCorruptMiddleSegmentFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Fsync: FsyncNever, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s.Append(visit(i, int64(i), "corrupt.example"))
	}
	crash(s)
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %d (%v)", len(segs), err)
	}
	// Flip a payload byte in a middle segment: real corruption, not a
	// crash artefact — refuse to open rather than silently drop data.
	mid := segs[1].path
	data, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(mid, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("Open succeeded over corrupt middle segment")
	}
}

func TestOpenOnMissingDirCreatesIt(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "data")
	s := mustOpen(t, Config{Dir: dir})
	if err := s.Append(visit(1, 1, "mk.example")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatal(err)
	}
}

// graphProfile is the profiler configuration of the graph cases: small
// enough degree and breadth that a 300-host model gets a real
// multi-layer graph.
var graphProfile = core.ProfilerConfig{N: 5, ANN: true, ANNM: 4, ANNEf: 8}

// graphModel trains a small model and has a profiler build its HNSW
// graph, returning the model, the graph's encoding and the (empty)
// ontology the profilers of these cases share.
func graphModel(t *testing.T) (*core.Model, []byte, *ontology.Ontology) {
	t.Helper()
	var corpus [][]string
	for u := 0; u < 60; u++ {
		seq := make([]string, 40)
		for i := range seq {
			seq[i] = fmt.Sprintf("h%d.example", (u*7+i*i+3*i)%300)
		}
		corpus = append(corpus, seq)
	}
	m, err := core.Train(corpus, core.TrainConfig{Dim: 8, Epochs: 1, MinCount: 1, Workers: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ont := ontology.New(ontology.NewTaxonomy())
	if how := core.NewProfiler(m, ont, graphProfile).ANNRestore(); !how.Built {
		t.Fatalf("first profiler over a fresh model did not build its graph: %+v", how)
	}
	enc := m.EncodedANN()
	if len(enc) == 0 {
		t.Fatal("model with a built graph encodes none")
	}
	return m, enc, ont
}

// logTo returns a logger writing text lines into buf.
func logTo(buf *bytes.Buffer) *slog.Logger {
	return slog.New(slog.NewTextHandler(buf, nil))
}

// TestCrashAfterInstallRestoresGraph: SIGKILL right after a model
// install (SetModel + Snapshot, what engine.Install does) must bring
// back the model, the exact graph bytes and the advertised version —
// with the artifact primed from the snapshot, so nothing on the restart
// path serializes the model again.
func TestCrashAfterInstallRestoresGraph(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s.Append(visit(i, int64(i), "pre.example"))
	}
	m, enc, ont := graphModel(t)
	s.SetModel(m)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	version := s.ModelVersion()
	for i := 20; i < 25; i++ {
		s.Append(visit(i, int64(i), "post.example"))
	}
	crash(s)

	wire, _, err := loadSnapshot(snapPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire.ANN, enc) {
		t.Fatal("snapshot does not carry the model's graph bytes")
	}
	if got := ArtifactVersion(wire.Model); got != version {
		t.Fatalf("version of the model bytes on disk %s, advertised %s", got, version)
	}

	s2 := mustOpen(t, Config{Dir: dir})
	if s2.Len() != 25 {
		t.Fatalf("Len = %d, want 20 snapshot + 5 replayed", s2.Len())
	}
	if s2.artifact == nil || !bytes.Equal(s2.artifact.Data, wire.Model) {
		t.Fatal("recovery did not prime the artifact cache with the snapshot's model bytes")
	}
	if got := s2.ModelVersion(); got != version {
		t.Fatalf("ModelVersion after restart %s, before %s", got, version)
	}
	m2 := s2.Model()
	if !bytes.Equal(m2.EncodedANN(), enc) {
		t.Fatal("restored model does not hold the snapshot's graph bytes")
	}
	how := core.NewProfiler(m2, ont, graphProfile).ANNRestore()
	if !how.Restored || how.Built || how.Rejected != nil || how.Edges == 0 {
		t.Fatalf("graph was not restored from the snapshot: %+v", how)
	}
	if !bytes.Equal(m2.EncodedANN(), enc) {
		t.Fatal("the loaded graph re-encodes to other bytes than the built one")
	}
	// The next snapshot carries the graph on, from the live arrays.
	if err := s2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	next, _, err := loadSnapshot(snapPath(dir, segs[len(segs)-1].seq-1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(next.ANN, enc) || !bytes.Equal(next.Model, wire.Model) {
		t.Fatal("second-generation snapshot changed the model or graph bytes")
	}
}

// TestTornNewestSnapshotFallsBack: a newest snapshot torn by the storage
// layer falls back to the previous one — model and graph included — and
// says so, since the visits between the two cuts are gone with the
// retired WAL segments.
func TestTornNewestSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	m, enc, ont := graphModel(t)
	s.SetModel(m)
	for i := 0; i < 10; i++ {
		s.Append(visit(i, int64(i), "first.example"))
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(snapPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 16; i++ {
		s.Append(visit(i, int64(i), "second.example"))
	}
	if err := s.Snapshot(); err != nil { // retires snapshot 1 and its segments
		t.Fatal(err)
	}
	crash(s)
	if err := os.WriteFile(snapPath(dir, 1), first, 0o644); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(snapPath(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(snapPath(dir, 2), fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	var logs bytes.Buffer
	s2 := mustOpen(t, Config{Dir: dir, Logger: logTo(&logs)})
	rec := s2.Recovery()
	if rec.SkippedSnapshots != 1 || rec.SnapshotVisits != 10 || !rec.ModelRestored {
		t.Fatalf("recovery = %+v, want a fall-back to the 10-visit snapshot with one skipped", rec)
	}
	if !strings.Contains(logs.String(), "level=WARN") || !strings.Contains(logs.String(), snapPath(dir, 2)) {
		t.Fatalf("no warning names the torn snapshot:\n%s", logs.String())
	}
	how := core.NewProfiler(s2.Model(), ont, graphProfile).ANNRestore()
	if !how.Restored || !bytes.Equal(s2.Model().EncodedANN(), enc) {
		t.Fatalf("older snapshot's graph not restored: %+v", how)
	}
}

// TestOnlySnapshotUnreadableIsReported: when the one snapshot is damaged
// its WAL segments are long retired, so the store comes up with a
// fraction of its visits and no model. That has to open — and has to be
// said: a warning with path and reason, and SkippedSnapshots in the
// recovery stats and the "store recovered" line.
func TestOnlySnapshotUnreadableIsReported(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	m, _, _ := graphModel(t)
	s.SetModel(m)
	for i := 0; i < 30; i++ {
		s.Append(visit(i, int64(i), "covered.example"))
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	s.Append(visit(99, 99, "tail.example"))
	crash(s)
	data, err := os.ReadFile(snapPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0xff
	if err := os.WriteFile(snapPath(dir, 1), data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	var logs bytes.Buffer
	s2, err := Open(Config{Dir: dir, Logger: logTo(&logs)})
	if err != nil {
		t.Fatalf("an unreadable snapshot failed the open: %v", err)
	}
	t.Cleanup(func() { s2.Close() })
	if s2.Len() != 1 || s2.Model() != nil {
		t.Fatalf("Len = %d, model %v; want the one replayed visit and no model", s2.Len(), s2.Model() != nil)
	}
	if got := s2.Recovery().SkippedSnapshots; got != 1 {
		t.Fatalf("SkippedSnapshots = %d, want 1", got)
	}
	out := logs.String()
	for _, want := range []string{"level=WARN", "skipping unreadable snapshot", snapPath(dir, 1), "error=", "skipped_snapshots=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("log lacks %q:\n%s", want, out)
		}
	}
}

// parentSnapshotWire is snapshotWire as it was before snapshots carried
// a graph.
type parentSnapshotWire struct {
	Version int
	Seq     uint64
	Visits  []trace.Visit
	Model   []byte
}

// TestSnapshotGraphFieldCompatibleBothWays pins that the graph is an
// optional field, not a format change: a snapshot written without it
// opens here and the graph is simply built, and a snapshot written with
// it decodes into the old struct with everything else intact — so a
// rollback opens what this code wrote.
func TestSnapshotGraphFieldCompatibleBothWays(t *testing.T) {
	m, _, ont := graphModel(t)
	var mb bytes.Buffer
	if err := m.Save(&mb); err != nil {
		t.Fatal(err)
	}

	oldDir := t.TempDir()
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(parentSnapshotWire{
		Version: snapshotVersion, Seq: 7, Visits: []trace.Visit{visit(1, 1, "old.example")}, Model: mb.Bytes(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapPath(oldDir, 7), old.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, Config{Dir: oldDir})
	if rec := s.Recovery(); !rec.ModelRestored || rec.SnapshotVisits != 1 || rec.SkippedSnapshots != 0 {
		t.Fatalf("old-format snapshot: recovery = %+v", rec)
	}
	if enc := s.Model().EncodedANN(); enc != nil {
		t.Fatalf("old-format snapshot yielded %d graph bytes", len(enc))
	}
	if how := core.NewProfiler(s.Model(), ont, graphProfile).ANNRestore(); !how.Built || how.Rejected != nil {
		t.Fatalf("old-format snapshot: graph not simply built: %+v", how)
	}

	newDir := t.TempDir()
	s2 := mustOpen(t, Config{Dir: newDir})
	s2.SetModel(m)
	appendAll(t, s2, []trace.Visit{visit(2, 2, "new.example")})
	if err := s2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(snapPath(newDir, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var back parentSnapshotWire
	if err := gob.NewDecoder(f).Decode(&back); err != nil {
		t.Fatalf("the old struct does not decode a snapshot with the graph field: %v", err)
	}
	if back.Version != snapshotVersion || back.Seq != 1 || len(back.Visits) != 1 || !bytes.Equal(back.Model, mb.Bytes()) {
		t.Fatalf("old struct decoded version %d seq %d visits %d, model equal %v", back.Version, back.Seq, len(back.Visits), bytes.Equal(back.Model, mb.Bytes()))
	}
}

// TestDamagedGraphSectionRebuilds: a snapshot whose graph bytes are
// damaged — or belong to another configuration — still opens with its
// visits and model; the profiler refuses the graph with a reason and
// builds the same one again.
func TestDamagedGraphSectionRebuilds(t *testing.T) {
	m, enc, ont := graphModel(t)
	var mb bytes.Buffer
	if err := m.Save(&mb); err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(enc)
	flipped[len(flipped)/2] ^= 0x04
	otherM := graphProfile
	otherM.ANNM = 6
	for _, tc := range []struct {
		name    string
		ann     []byte
		profile core.ProfilerConfig
		reason  string
	}{
		{"flipped bit", flipped, graphProfile, "checksum"},
		{"truncated", enc[:len(enc)/2], graphProfile, "checksum"},
		{"not a graph", []byte("junk"), graphProfile, "truncated"},
		{"another -ann-m", enc, otherM, "want M=6"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := writeSnapshot(dir, 3, []trace.Visit{visit(1, 1, "kept.example")}, mb.Bytes(), tc.ann); err != nil {
				t.Fatal(err)
			}
			s := mustOpen(t, Config{Dir: dir})
			if rec := s.Recovery(); !rec.ModelRestored || rec.SnapshotVisits != 1 || rec.SkippedSnapshots != 0 {
				t.Fatalf("recovery = %+v; a bad graph must not cost the snapshot", rec)
			}
			how := core.NewProfiler(s.Model(), ont, tc.profile).ANNRestore()
			if how.Rejected == nil || !strings.Contains(how.Rejected.Error(), tc.reason) || !how.Built || how.Restored {
				t.Fatalf("outcome %+v, want a rejection mentioning %q and a rebuild", how, tc.reason)
			}
			if tc.profile.ANNM == graphProfile.ANNM && !bytes.Equal(s.Model().EncodedANN(), enc) {
				t.Fatal("the rebuilt graph is not the graph the snapshot should have carried")
			}
		})
	}
}

// TestRestartWithoutANNDropsGraphBytes: a profiler that serves exact
// leaves the model no encoded graph to keep alive or to snapshot.
func TestRestartWithoutANNDropsGraphBytes(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Config{Dir: dir})
	m, _, ont := graphModel(t)
	s.SetModel(m)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := mustOpen(t, Config{Dir: dir})
	if s2.Model().EncodedANN() == nil {
		t.Fatal("snapshot's graph did not reach the restored model")
	}
	how := core.NewProfiler(s2.Model(), ont, core.ProfilerConfig{N: 5}).ANNRestore()
	if how != (core.ANNRestore{}) {
		t.Fatalf("exact profiler reports a graph: %+v", how)
	}
	if enc := s2.Model().EncodedANN(); enc != nil {
		t.Fatalf("model still holds %d graph bytes no profiler will load", len(enc))
	}
}
