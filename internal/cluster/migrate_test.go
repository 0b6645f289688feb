package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hostprof/internal/core"
	"hostprof/internal/fault"
	"hostprof/internal/server"
)

// digestCount reads one user's record count straight off a shard's
// export surface (0 when the shard holds nothing for the user).
func digestCount(t *testing.T, shardURL string, user int) int {
	t.Helper()
	resp, err := http.Get(shardURL + "/v1/export/digest?users=" + strconv.Itoa(user))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("digest on %s → %d: %s", shardURL, resp.StatusCode, raw)
	}
	var out server.DigestResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Digests[strconv.Itoa(user)].Count
}

// waitMigration blocks until m's current run terminates or ctx
// expires, then returns nil for done and an error for failed.
func waitMigration(ctx context.Context, m *Migration) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-m.Done():
	}
	if st := m.Status(); st.State != "done" {
		return fmt.Errorf("cluster: migration %s: %s", st.State, st.Error)
	}
	return nil
}

// reportAt posts one report with an explicit timestamp and returns the
// status code.
func reportAt(t *testing.T, baseURL string, user int, ts int64, hosts []string) int {
	t.Helper()
	resp := postJSON(t, baseURL+"/v1/report", server.ReportRequest{User: user, Time: ts, Hosts: hosts}, nil)
	return resp.StatusCode
}

// importHistory appends n visits for user straight into a shard's
// store, cycling through hosts, and returns the user's record count
// there afterwards.
func importHistory(t *testing.T, shardURL string, user, n int, hosts []string) int {
	t.Helper()
	visits := make([]server.WireVisit, n)
	for i := range visits {
		visits[i] = server.WireVisit{User: user, Time: int64(8_000_000 + i), Host: hosts[i%len(hosts)]}
	}
	if resp := postJSON(t, shardURL+"/v1/import", server.ImportRequest{Visits: visits}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("import of %d visits for user %d → %d", n, user, resp.StatusCode)
	}
	return digestCount(t, shardURL, user)
}

// assertExactPlacement checks that every shard holds exactly the users
// the ring assigns to it and nothing else — the post-migration
// invariant (sources purged, targets complete).
func assertExactPlacement(t *testing.T, fx *clusterFixture, fed map[int]bool, shardIdx []int) {
	t.Helper()
	want := make(map[string]int)
	for uid := range fed {
		owner, ok := fx.gw.Ring().Owner(uid)
		if !ok {
			t.Fatal("ring empty")
		}
		want[owner]++
	}
	total := 0
	for _, i := range shardIdx {
		st := fx.backends[i].CurrentStats()
		total += st.Users
		if st.Users != want[fx.shardSrv[i].URL] {
			t.Errorf("shard %d holds %d users, ring assigns %d", i, st.Users, want[fx.shardSrv[i].URL])
		}
	}
	if total != len(fed) {
		t.Fatalf("cluster holds %d users total, fed %d — users duplicated or lost", total, len(fed))
	}
}

// TestGatewayResizeGrowShrinkExactPlacement is the migration acceptance
// test in-process: grow 3→4 (programmatic Resize), then shrink 4→3
// (HTTP resize), each time verifying that the data moved exactly — every
// user sits on precisely the shard the new ring names, sources are
// purged, the joiner got the model before taking traffic, and the whole
// shrink is traceable as one plan/copy/cutover span tree. One moving
// user carries more history than one copy chunk, so the copy loop's
// later chunks run too.
func TestGatewayResizeGrowShrinkExactPlacement(t *testing.T) {
	if testing.Short() {
		t.Skip("migration integration test skipped in -short")
	}
	fx := newClusterFixtureCfg(t, 3, 400, func(c *Config) { c.VirtualNodes = 8 })
	fed := fx.feedViaGateway(t)
	if len(fed) < 300 {
		t.Fatalf("population produced only %d reporting users", len(fed))
	}
	trained := fx.retrainViaGateway(t)

	three := append([]string(nil), fx.gw.Ring().Nodes()...)
	fourth := fx.addShard(t)
	four := append(append([]string(nil), three...), fourth)
	newRing, err := NewRing(four, 8)
	if err != nil {
		t.Fatal(err)
	}
	heavy := -1
	for uid := range fed {
		before, _ := fx.gw.Ring().Owner(uid)
		if after, _ := newRing.Owner(uid); before != after {
			heavy = uid
			break
		}
	}
	if heavy < 0 {
		t.Fatal("no fed user moves under the new ring; test world degenerate")
	}
	heavyFrom, _ := fx.gw.Ring().Owner(heavy)
	heavyTo, _ := newRing.Owner(heavy)
	heavyRecords := importHistory(t, heavyFrom, heavy, migrationChunk+4, fx.sessions(1)[0])
	assertHeavy := func(phase, owner, former string) {
		t.Helper()
		if got := digestCount(t, owner, heavy); got != heavyRecords {
			t.Fatalf("%s: owner holds %d records for user %d, want %d", phase, got, heavy, heavyRecords)
		}
		if got := digestCount(t, former, heavy); got != 0 {
			t.Fatalf("%s: former owner still holds %d records for user %d", phase, got, heavy)
		}
	}

	m, started, err := fx.gw.Resize(context.Background(), four)
	if err != nil || !started || m == nil {
		t.Fatalf("Resize: m=%v started=%v err=%v", m, started, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := waitMigration(ctx, m); err != nil {
		t.Fatalf("grow migration: %v (status %+v)", err, m.Status())
	}
	if !fx.gw.Ring().Equal(four) {
		t.Fatalf("ring after grow spans %v, want %v", fx.gw.Ring().Nodes(), four)
	}
	// The joiner was seeded with the cluster model during planning.
	if got := fx.backends[3].ModelVersion(); got != trained.Version {
		t.Fatalf("joiner at model %q, cluster trained %q", got, trained.Version)
	}
	assertExactPlacement(t, fx, fed, []int{0, 1, 2, 3})
	assertHeavy("after grow", heavyTo, heavyFrom)
	st := fx.gw.ClusterStatus()
	if st.Migration == nil || st.Migration.State != "done" || st.Backends != 4 {
		t.Fatalf("cluster status after grow: %+v", st)
	}
	if st.Migration.RecordsCopied < int64(heavyRecords) {
		t.Fatalf("grow migration copied %d records, the heavy user alone has %d", st.Migration.RecordsCopied, heavyRecords)
	}

	// Gateway readiness is back to plain ok once the migration is done.
	resp, err := http.Get(fx.gwSrv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ready.Status != "ok" {
		t.Fatalf("/readyz after grow → %d %q, want 200 ok", resp.StatusCode, ready.Status)
	}

	// Shrink back over HTTP: shard 3 leaves, its keyspace streams to the
	// survivors.
	var rr ResizeResponse
	resp = postJSON(t, fx.gwSrv.URL+"/v1/cluster/resize", ResizeRequest{Backends: three}, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("shrink resize → %d, want 202", resp.StatusCode)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		st = fx.gw.ClusterStatus()
		if st.Migration != nil && st.Migration.State == "done" && st.Backends == 3 {
			break
		}
		if st.Migration != nil && st.Migration.State == "failed" {
			t.Fatalf("shrink migration failed: %+v", st.Migration)
		}
		if time.Now().After(deadline) {
			t.Fatalf("shrink never finished: %+v", st.Migration)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !fx.gw.Ring().Equal(three) {
		t.Fatalf("ring after shrink spans %v, want %v", fx.gw.Ring().Nodes(), three)
	}
	assertExactPlacement(t, fx, fed, []int{0, 1, 2})
	// The leaver keeps its stale copy, so only the owner is checked.
	if got := digestCount(t, heavyFrom, heavy); got != heavyRecords {
		t.Fatalf("after shrink: owner holds %d records for user %d, want %d", got, heavy, heavyRecords)
	}
	_ = rr

	// The shrink ran under the resize request's trace: one trace holds
	// the handler span plus the migration's plan/copy/cutover spans.
	if st.Migration.TraceID == "" {
		t.Fatal("finished migration carries no trace ID")
	}
	tr := fetchTrace(t, fx.gwSrv.URL, st.Migration.TraceID)
	for _, span := range []string{"gw.cluster_resize", "gw.migrate.plan", "gw.migrate.copy", "gw.migrate.cutover"} {
		if !hasSpan(tr, span) {
			t.Errorf("trace %s lacks span %q (has %v)", st.Migration.TraceID, span, spanNames(tr))
		}
	}
}

// TestGatewayResizeDoubleWriteWindow holds the copy window open with
// latency at the copy-chunk fault point and pushes live reports for a migrating user straight through
// it: every acked report must surface on the new owner after cutover
// (the zero-loss property the double-write exists for), and while the
// window is open the gateway's /readyz reports degraded.
func TestGatewayResizeDoubleWriteWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("migration integration test skipped in -short")
	}
	fx := newClusterFixtureCfg(t, 3, 150, func(c *Config) { c.VirtualNodes = 8 })
	fed := fx.feedViaGateway(t)
	fx.retrainViaGateway(t)
	fault.Set(fault.MigrateCopyChunk, fault.Latency(25*time.Millisecond))
	t.Cleanup(fault.Reset)

	three := append([]string(nil), fx.gw.Ring().Nodes()...)
	fourth := fx.addShard(t)
	four := append(append([]string(nil), three...), fourth)
	newRing, err := NewRing(four, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a fed user whose owner changes under the new ring.
	mover := -1
	for uid := range fed {
		before, _ := fx.gw.Ring().Owner(uid)
		after, _ := newRing.Owner(uid)
		if before != after {
			mover = uid
			break
		}
	}
	if mover < 0 {
		t.Fatal("no fed user moves under the new ring; test world degenerate")
	}
	oldOwner, _ := fx.gw.Ring().Owner(mover)
	newOwner, _ := newRing.Owner(mover)
	hosts := fx.sessions(1)[0]
	// Calibrate how many records one report of this host list appends
	// (the blocklist may drop some hosts), so acked reports translate to
	// an exact expected record count.
	preReport := digestCount(t, oldOwner, mover)
	if code := reportAt(t, fx.gwSrv.URL, mover, 5_000_000, hosts); code != http.StatusOK {
		t.Fatalf("pre-resize report → %d", code)
	}
	before := digestCount(t, oldOwner, mover)
	perReport := before - preReport
	if perReport == 0 {
		t.Fatal("calibration report appended no records; test world degenerate")
	}

	m, started, err := fx.gw.Resize(context.Background(), four)
	if err != nil || !started {
		t.Fatalf("Resize: started=%v err=%v", started, err)
	}

	// Hammer the mover while the copy crawls — capped so a slow machine
	// doesn't balloon the verification set. Every 200 is an ack the
	// cluster must never lose, whichever side of the cutover it landed.
	const maxReports = 500
	acked, duringCopy, sawDegraded := 0, 0, false
	for i := 0; ; i++ {
		st := m.Status()
		if terminalPhase(st.State) {
			break
		}
		if acked < maxReports {
			if code := reportAt(t, fx.gwSrv.URL, mover, int64(6_000_000+i), hosts); code == http.StatusOK {
				acked++
				if st.State == "copying" || st.State == "draining" {
					duringCopy++
				}
			} else {
				t.Fatalf("report during migration → %d", code)
			}
		} else {
			time.Sleep(5 * time.Millisecond)
		}
		if !sawDegraded {
			resp, err := http.Get(fx.gwSrv.URL + "/readyz")
			if err != nil {
				t.Fatal(err)
			}
			var ready struct {
				Status string `json:"status"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if ready.Status == "degraded" && resp.StatusCode == http.StatusOK {
				sawDegraded = true
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := waitMigration(ctx, m); err != nil {
		t.Fatalf("migration failed under live writes: %v (status %+v)", err, m.Status())
	}
	if duringCopy == 0 {
		t.Skip("copy window closed before any report landed; nothing exercised")
	}
	if !sawDegraded {
		t.Error("/readyz never reported degraded during the migration")
	}

	wantTotal := before + acked*perReport
	if got := digestCount(t, newOwner, mover); got != wantTotal {
		t.Fatalf("new owner holds %d records for mover, want %d (%d acked mid-copy, %d during copy window)",
			got, wantTotal, acked, duringCopy)
	}
	if got := digestCount(t, oldOwner, mover); got != 0 {
		t.Fatalf("old owner still holds %d records for mover after purge", got)
	}
}

// TestGatewayResizeTargetDeathRollbackAndResume kills the joiner
// mid-copy: its ranges roll back to the old owners (which never stopped
// serving), the migration parks as failed, a resize to a different
// membership is refused, and re-POSTing the same membership after the
// joiner returns resumes to completion — even though the restarted
// joiner came back empty.
func TestGatewayResizeTargetDeathRollbackAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("migration integration test skipped in -short")
	}
	fx := newClusterFixtureCfg(t, 3, 200, func(c *Config) { c.VirtualNodes = 8 })
	fed := fx.feedViaGateway(t)
	fx.retrainViaGateway(t)
	three := append([]string(nil), fx.gw.Ring().Nodes()...)

	// The joiner runs on a plain listener so the test can kill it and
	// restart a fresh (empty) backend on the same address.
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	newBackend := func() *server.Backend {
		b, err := server.New(server.Config{
			Ontology: fx.ont,
			AdDB:     fx.db,
			Train:    core.TrainConfig{Dim: 16, Epochs: 4, MinCount: 2, Workers: 1, Seed: 11, Subsample: -1},
			Profile:  core.ProfilerConfig{N: 30, Agg: core.AggIDF},
			Logger:   quiet,
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	joinerURL := "http://" + addr
	joiner := newBackend()
	srv := &http.Server{Handler: joiner.Handler()}
	go srv.Serve(ln)
	four := append(append([]string(nil), three...), joinerURL)

	// Hold every copy chunk until the target is dead, so the kill lands
	// mid-copy at any pace.
	killed := make(chan struct{})
	release := sync.OnceFunc(func() { close(killed) })
	defer release() // a failing test must not leave gw.Close waiting on the copy
	fault.Set(fault.MigrateCopyChunk, func() error { <-killed; return nil })
	t.Cleanup(fault.Reset)
	m, started, err := fx.gw.Resize(context.Background(), four)
	if err != nil || !started {
		t.Fatalf("Resize: started=%v err=%v", started, err)
	}
	// Wait until the copy has demonstrably begun, then kill the target.
	deadline := time.Now().Add(30 * time.Second)
	for m.Status().RecordsCopied == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("copy never started: %+v", m.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv.Close()
	release()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := waitMigration(ctx, m); err == nil {
		t.Fatalf("migration finished although its only target died: %+v", m.Status())
	}
	st := m.Status()
	if st.State != "failed" || st.RangesAborted == 0 {
		t.Fatalf("after target death: %+v", st)
	}
	// Rollback: routing is unchanged, the old owners still serve every
	// fed user.
	if !fx.gw.Ring().Equal(three) {
		t.Fatalf("ring changed after a failed migration: %v", fx.gw.Ring().Nodes())
	}
	served := 0
	for uid := range fed {
		if code := reportAt(t, fx.gwSrv.URL, uid, 7_000_000, fx.sessions(1)[0]); code != http.StatusOK {
			t.Fatalf("report user %d after rollback → %d", uid, code)
		}
		served++
		if served >= 20 {
			break
		}
	}
	// A different membership is refused while the failed run is parked.
	resp := postJSON(t, fx.gwSrv.URL+"/v1/cluster/resize", ResizeRequest{Backends: three[:2]}, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting resize → %d, want 409", resp.StatusCode)
	}

	// Restart the joiner on the same address — empty, as if its disk was
	// lost — and resume. The reset+recopy protocol must not care.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	joiner2 := newBackend()
	srv2 := &http.Server{Handler: joiner2.Handler()}
	go srv2.Serve(ln2)
	t.Cleanup(func() { srv2.Close() })
	fx.gw.CheckHealth(context.Background())

	m2, started, err := fx.gw.Resize(context.Background(), four)
	if err != nil || !started || m2 != m {
		t.Fatalf("resume: m2==m %v started=%v err=%v", m2 == m, started, err)
	}
	if err := waitMigration(ctx, m2); err != nil {
		t.Fatalf("resumed migration: %v (status %+v)", err, m2.Status())
	}
	if got := m2.Status(); got.Resumes != 1 {
		t.Fatalf("resumes = %d, want 1", got.Resumes)
	}
	if !fx.gw.Ring().Equal(four) {
		t.Fatalf("ring after resume spans %v, want %v", fx.gw.Ring().Nodes(), four)
	}
	// Exact placement across fixture shards + the external joiner.
	want := make(map[string]int)
	for uid := range fed {
		owner, _ := fx.gw.Ring().Owner(uid)
		want[owner]++
	}
	total := 0
	for i := 0; i < 3; i++ {
		stats := fx.backends[i].CurrentStats()
		total += stats.Users
		if stats.Users != want[fx.shardSrv[i].URL] {
			t.Errorf("shard %d holds %d users, ring assigns %d", i, stats.Users, want[fx.shardSrv[i].URL])
		}
	}
	jstats := joiner2.CurrentStats()
	total += jstats.Users
	if jstats.Users != want[joinerURL] {
		t.Errorf("joiner holds %d users, ring assigns %d", jstats.Users, want[joinerURL])
	}
	if total != len(fed) {
		t.Fatalf("cluster holds %d users total, fed %d", total, len(fed))
	}
}

// TestNormalizeBackends pins the one backend normalization New and
// Resize share with the CLI's -backends list.
func TestNormalizeBackends(t *testing.T) {
	cases := []struct {
		name string
		in   []string
		want []string // nil: refused
	}{
		{"host:port", []string{"localhost:8421", "shard-a:8421"}, []string{"http://localhost:8421", "http://shard-a:8421"}},
		{"IPv4:port", []string{"10.0.0.7:8421"}, []string{"http://10.0.0.7:8421"}},
		{"scheme and trailing slashes", []string{"https://shard-b:8421//", "http://127.0.0.1:1/"}, []string{"https://shard-b:8421", "http://127.0.0.1:1"}},
		{"surrounding whitespace", []string{" shard-a:8421 ", "\thttp://shard-b:8421\n"}, []string{"http://shard-a:8421", "http://shard-b:8421"}},
		{"embedded whitespace", []string{"http://bad host:8421"}, nil},
		{"empty entry dropped", []string{"shard-a:8421", "", " "}, []string{"http://shard-a:8421"}},
		{"only empty entries", []string{"", " "}, nil},
		{"no host", []string{"http://"}, nil},
	}
	for _, c := range cases {
		got, err := normalizeBackends(c.in)
		if c.want == nil {
			if err == nil {
				t.Errorf("%s: %q accepted as %q, want an error", c.name, c.in, got)
			}
			continue
		}
		if err != nil || !slices.Equal(got, c.want) {
			t.Errorf("%s: %q → %q, %v; want %q", c.name, c.in, got, err, c.want)
		}
	}

	// The gateway applies it at every entry point.
	gw, err := New(Config{Backends: []string{"127.0.0.1:1/"}, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	if got := gw.Ring().Nodes(); !slices.Equal(got, []string{"http://127.0.0.1:1"}) {
		t.Fatalf("New kept backends %q", got)
	}
	// The same member spelled another way is no change, and a bad entry
	// is refused before any migration is planned.
	if m, started, err := gw.Resize(context.Background(), []string{" 127.0.0.1:1/ ", ""}); m != nil || started || err != nil {
		t.Fatalf("Resize to the same member respelled: m=%v started=%v err=%v", m, started, err)
	}
	if m, _, err := gw.Resize(context.Background(), []string{"http://bad host:1"}); m != nil || err == nil {
		t.Fatalf("Resize accepted a backend with inner whitespace: m=%v err=%v", m, err)
	}
}

// TestResizeValidation: the resize endpoint refuses garbage before any
// migration machinery spins up, and a no-change resize is a clean noop.
func TestResizeValidation(t *testing.T) {
	fx := newClusterFixtureCfg(t, 2, 10, func(c *Config) { c.VirtualNodes = 8 })
	var schemeless []string
	for _, n := range fx.gw.Ring().Nodes() {
		schemeless = append(schemeless, strings.TrimPrefix(n, "http://"))
	}
	cases := []struct {
		name string
		body any
		want int
	}{
		{"empty body", map[string]any{}, http.StatusBadRequest},
		{"empty list", ResizeRequest{Backends: []string{}}, http.StatusBadRequest},
		{"bad URL", ResizeRequest{Backends: []string{"http://bad host"}}, http.StatusBadRequest},
		{"noop", ResizeRequest{Backends: fx.gw.Ring().Nodes()}, http.StatusOK},
		{"noop, scheme-less", ResizeRequest{Backends: schemeless}, http.StatusOK},
	}
	for _, c := range cases {
		resp := postJSON(t, fx.gwSrv.URL+"/v1/cluster/resize", c.body, nil)
		if resp.StatusCode != c.want {
			t.Errorf("%s → %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
	var out ResizeResponse
	resp := postJSON(t, fx.gwSrv.URL+"/v1/cluster/resize", ResizeRequest{Backends: fx.gw.Ring().Nodes()}, &out)
	if resp.StatusCode != http.StatusOK || out.Status != "noop" {
		t.Fatalf("noop resize → %d %q", resp.StatusCode, out.Status)
	}
	if fmt.Sprint(fx.gw.ClusterStatus().Backends) != "2" {
		t.Fatalf("membership changed by a noop resize")
	}
}
