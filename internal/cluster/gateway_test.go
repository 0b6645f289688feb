package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hostprof/internal/ads"
	"hostprof/internal/core"
	"hostprof/internal/obs"
	"hostprof/internal/obs/httpmw"
	"hostprof/internal/obs/tracer"
	"hostprof/internal/ontology"
	"hostprof/internal/server"
	"hostprof/internal/synth"
)

// pathCounter counts requests per URL path, so tests can prove which
// shards actually served traffic.
type pathCounter struct {
	mu   sync.Mutex
	hits map[string]int
	next http.Handler
}

func (p *pathCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	p.hits[r.URL.Path]++
	p.mu.Unlock()
	p.next.ServeHTTP(w, r)
}

func (p *pathCounter) count(path string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits[path]
}

// clusterFixture is an in-process 3-node cluster: N real backends over
// one shared synthetic world, behind one gateway, all under httptest.
type clusterFixture struct {
	gw       *Gateway
	gwSrv    *httptest.Server
	backends []*server.Backend
	shardSrv []*httptest.Server
	shardTrc []*tracer.Tracer
	counters []*pathCounter
	u        *synth.Universe
	ont      *ontology.Ontology
	db       *ads.DB
	pop      *synth.Population
	// shardEdit, when set, adjusts every shard's config (addShard).
	shardEdit func(*server.Config)
}

func newClusterFixture(t *testing.T, shards, users int) *clusterFixture {
	return newClusterFixtureCfg(t, shards, users, nil)
}

// newClusterFixtureCfg is newClusterFixture with a gateway-config hook
// (migration tests tune vnode counts and copy throttles).
func newClusterFixtureCfg(t *testing.T, shards, users int, edit func(*Config)) *clusterFixture {
	t.Helper()
	return newClusterFixtureWith(t, shards, users, edit, nil)
}

// newClusterFixtureWith is newClusterFixtureCfg with a shard-config hook
// as well (durable stores, admission limits).
func newClusterFixtureWith(t *testing.T, shards, users int, edit func(*Config), shardEdit func(*server.Config)) *clusterFixture {
	t.Helper()
	u := synth.NewUniverse(synth.UniverseConfig{Sites: 100, Trackers: 15, Seed: 3})
	ont := synth.BuildOntology(u, synth.OntologyConfig{Coverage: 0.2, Seed: 5})
	db := ads.BuildFromOntology(ont, ads.BuildConfig{Seed: 7})
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))

	fx := &clusterFixture{u: u, ont: ont, db: db, shardEdit: shardEdit}
	var urls []string
	for i := 0; i < shards; i++ {
		urls = append(urls, fx.addShard(t))
	}

	cfg := Config{
		Backends: urls,
		// No background loop: tests drive CheckHealth explicitly so
		// health transitions are deterministic.
		HealthInterval: -1,
		Tracer:         tracer.New(tracer.Config{Service: "gateway", SampleRate: 1}),
		Logger:         quiet,
	}
	if edit != nil {
		edit(&cfg)
	}
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	gw.CheckHealth(context.Background())
	fx.gw = gw
	fx.gwSrv = httptest.NewServer(gw.Handler())
	t.Cleanup(fx.gwSrv.Close)
	fx.pop = synth.NewPopulation(u, synth.PopulationConfig{Users: users, Days: 1, Seed: 13})
	return fx
}

// addShard brings up one more backend over the fixture's shared world
// and returns its URL (resize tests grow the cluster with it).
func (fx *clusterFixture) addShard(t *testing.T) string {
	t.Helper()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	trc := tracer.New(tracer.Config{Service: "shard", SampleRate: 1})
	cfg := server.Config{
		Ontology: fx.ont,
		AdDB:     fx.db,
		Train:    core.TrainConfig{Dim: 16, Epochs: 4, MinCount: 2, Workers: 1, Seed: 11, Subsample: -1},
		Profile:  core.ProfilerConfig{N: 30, Agg: core.AggIDF},
		Tracer:   trc,
		Logger:   quiet,
	}
	if fx.shardEdit != nil {
		fx.shardEdit(&cfg)
	}
	b, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pc := &pathCounter{hits: make(map[string]int), next: b.Handler()}
	srv := httptest.NewServer(pc)
	t.Cleanup(srv.Close)
	fx.backends = append(fx.backends, b)
	fx.shardSrv = append(fx.shardSrv, srv)
	fx.shardTrc = append(fx.shardTrc, trc)
	fx.counters = append(fx.counters, pc)
	return srv.URL
}

// feedViaGateway replays the population's browsing through the gateway,
// one report per (user, 10-minute bucket). Pre-training 503s (visits
// ingested, no model yet) are expected.
func (fx *clusterFixture) feedViaGateway(t *testing.T) map[int]bool {
	t.Helper()
	fed := make(map[int]bool)
	per := fx.pop.Browse().PerUserVisits()
	for uid, visits := range per {
		ext := &server.Extension{BaseURL: fx.gwSrv.URL, User: uid}
		var batch []string
		var batchTime int64 = -1
		flush := func() {
			if len(batch) == 0 {
				return
			}
			if _, err := ext.Report(batchTime, batch); err != nil {
				var apiErr *server.APIError
				if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
					t.Fatalf("report user %d: %v", uid, err)
				}
			}
			fed[uid] = true
			batch = batch[:0]
		}
		for _, v := range visits {
			if batchTime >= 0 && v.Time-batchTime > 600 {
				flush()
				batchTime = -1
			}
			if batchTime < 0 {
				batchTime = v.Time
			}
			batch = append(batch, v.Host)
		}
		flush()
	}
	return fed
}

// sessions builds n profiling sessions from labelled sites.
func (fx *clusterFixture) sessions(n int) [][]string {
	out := make([][]string, n)
	for i := range out {
		s := fx.u.Sites[i%len(fx.u.Sites)]
		sess := []string{fx.u.Hosts[s.Host].Name}
		for _, sup := range s.Support {
			sess = append(sess, fx.u.Hosts[sup].Name)
		}
		out[i] = sess
	}
	return out
}

// retrainViaGateway triggers a cluster retrain and returns the
// distribution report.
func (fx *clusterFixture) retrainViaGateway(t *testing.T) RetrainResponse {
	t.Helper()
	resp, err := http.Post(fx.gwSrv.URL+"/v1/retrain", "application/json", bytes.NewReader([]byte("{}")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway retrain → %d: %s", resp.StatusCode, raw)
	}
	var out RetrainResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("retrain body: %v: %s", err, raw)
	}
	return out
}

// shardAccounting sums, for one backend, the gateway's
// hostprof_gateway_shard_requests_total over codes, the count of its
// hostprof_gateway_shard_request_seconds and its
// hostprof_gateway_shard_errors_total.
func (fx *clusterFixture) shardAccounting(backend string) (counted float64, timed int64, errs float64) {
	for _, m := range fx.gw.Metrics().Snapshot() {
		switch {
		case m.Labels["backend"] != backend:
		case m.Name == "hostprof_gateway_shard_requests_total":
			counted += m.Value
		case m.Name == "hostprof_gateway_shard_request_seconds":
			timed = m.Count
		case m.Name == "hostprof_gateway_shard_errors_total":
			errs = m.Value
		}
	}
	return counted, timed, errs
}

// checkShardAccounting requires every exchange with every shard to be
// timed and counted once, by backend; the health probes bypass both.
func (fx *clusterFixture) checkShardAccounting(t *testing.T, when string) {
	t.Helper()
	for i, srv := range fx.shardSrv {
		if counted, timed, _ := fx.shardAccounting(srv.URL); counted == 0 || float64(timed) != counted {
			t.Errorf("%s, shard %d: hostprof_gateway_shard_request_seconds_count = %d, hostprof_gateway_shard_requests_total sums to %g",
				when, i, timed, counted)
		}
	}
}

// TestGatewayRetrainTransportFailureCounted fails the trainer's
// connection: the gateway answers 502, marks the trainer dead, and
// counts and times the exchange as one shard error, as for any other
// exchange.
func TestGatewayRetrainTransportFailureCounted(t *testing.T) {
	fx := newClusterFixture(t, 2, 10)
	trainer := fx.shardSrv[0].URL
	fx.shardSrv[0].Close()
	resp, err := http.Post(fx.gwSrv.URL+"/v1/retrain", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("retrain with the trainer down → %d %s, want 502", resp.StatusCode, raw)
	}
	if counted, timed, errs := fx.shardAccounting(trainer); errs != 1 || timed != 1 || counted != 0 {
		t.Fatalf("trainer: shard errors %g, timed exchanges %d, answered %g; want 1, 1, 0", errs, timed, counted)
	}
	for _, sh := range fx.gw.ClusterStatus().Shards {
		if sh.Backend == trainer && sh.Alive {
			t.Fatal("a trainer whose connection failed is still alive")
		}
	}
}

// TestGatewayClusterIntegration is the 3-node acceptance test: reports
// for ~1K users land on exactly the shard the ring names, a batch
// scatter-gathers across every shard, and one retrain converges all
// nodes to the same model version.
func TestGatewayClusterIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("3-node integration test skipped in -short")
	}
	fx := newClusterFixture(t, 3, 1000)
	fed := fx.feedViaGateway(t)
	if len(fed) < 900 {
		t.Fatalf("population produced only %d reporting users", len(fed))
	}
	fx.checkShardAccounting(t, "after the feed")

	// Placement: each shard must hold exactly the users the ring assigns
	// to it — no failover, no spillover.
	want := make(map[string]int)
	for uid := range fed {
		owner, ok := fx.gw.Ring().Owner(uid)
		if !ok {
			t.Fatal("ring empty")
		}
		want[owner]++
	}
	totalUsers := 0
	for i, b := range fx.backends {
		st := b.CurrentStats()
		totalUsers += st.Users
		if st.Users != want[fx.shardSrv[i].URL] {
			t.Errorf("shard %d holds %d users, ring assigns %d", i, st.Users, want[fx.shardSrv[i].URL])
		}
		if st.Users == 0 {
			t.Errorf("shard %d received no users of %d", i, len(fed))
		}
	}
	if totalUsers != len(fed) {
		t.Fatalf("shards hold %d users total, fed %d — users duplicated or lost", totalUsers, len(fed))
	}

	// One retrain through the gateway: the designated node trains, the
	// artifact ships, all shards converge on one version.
	rep := fx.retrainViaGateway(t)
	if rep.Version == "" || rep.Partial {
		t.Fatalf("retrain report: %+v", rep)
	}
	if len(rep.Distributed) != 2 {
		t.Fatalf("distributed to %v, want the 2 non-training shards", rep.Distributed)
	}
	for i, b := range fx.backends {
		if got := b.ModelVersion(); got != rep.Version {
			t.Fatalf("shard %d at version %q, cluster trained %q", i, got, rep.Version)
		}
	}
	st := fx.gw.ClusterStatus()
	if !st.Converged || st.ModelVersion != rep.Version || st.ReadyShards != 3 {
		t.Fatalf("cluster status after retrain: %+v", st)
	}
	fx.checkShardAccounting(t, "after the retrain")
	reg := fx.gw.Metrics()
	if ok, failed := reg.Counter("hostprof_gateway_model_pushes_total", obs.L("outcome", "ok")).Value(),
		reg.Counter("hostprof_gateway_model_pushes_total", obs.L("outcome", "error")).Value(); ok != 2 || failed != 0 {
		t.Fatalf("hostprof_gateway_model_pushes_total ok=%d error=%d, want 2 and 0", ok, failed)
	}
	// Each push is one import on the shard it went to; the trainer
	// installed its own model and imported nothing.
	for i, b := range fx.backends {
		want := int64(0)
		if slices.Contains(rep.Distributed, fx.shardSrv[i].URL) {
			want = 1
		}
		if got := b.Metrics().Counter("hostprof_model_imports_total").Value(); got != want {
			t.Errorf("shard %d: hostprof_model_imports_total = %d, want %d", i, got, want)
		}
	}

	// Post-train, a report through the gateway serves ads end to end.
	var uid int
	for uid = range fed {
		break
	}
	ext := &server.Extension{BaseURL: fx.gwSrv.URL, User: uid}
	if _, err := ext.Report(10_000_000, fx.sessions(1)[0]); err != nil {
		t.Fatalf("post-train report via gateway: %v", err)
	}

	// Scatter-gather: a batch one session past two shard chunks must
	// touch every ready shard and come back whole and in order.
	sessions := fx.sessions(2*server.MaxSessionsPerBatch + 1)
	profiles, err := ext.ProfileBatch(context.Background(), sessions)
	if err != nil {
		t.Fatalf("batch via gateway: %v", err)
	}
	if len(profiles) != len(sessions) {
		t.Fatalf("got %d profiles for %d sessions", len(profiles), len(sessions))
	}
	profiled := 0
	for _, p := range profiles {
		if p.Error == "" && len(p.Categories) > 0 {
			profiled++
		}
	}
	if profiled < len(sessions)/2 {
		t.Fatalf("only %d/%d sessions profiled", profiled, len(sessions))
	}
	for i, pc := range fx.counters {
		if pc.count("/v1/profile/batch") == 0 {
			t.Errorf("shard %d served no batch chunk", i)
		}
	}
}

// TestGatewayShedsOnlyDeadShardKeyspace: killing one shard must refuse
// exactly that shard's users (503 + Retry-After), keep every other
// user's traffic flowing, and degrade batches to partial results rather
// than failing them.
func TestGatewayShedsOnlyDeadShardKeyspace(t *testing.T) {
	fx := newClusterFixture(t, 3, 60)
	fx.feedViaGateway(t)
	rep := fx.retrainViaGateway(t)
	if rep.Partial {
		t.Fatalf("retrain partial: %+v", rep)
	}

	// Kill shard 1 and let the gateway notice.
	dead := fx.shardSrv[1].URL
	fx.shardSrv[1].Close()
	fx.gw.CheckHealth(context.Background())
	if st := fx.gw.ClusterStatus(); st.AliveShards != 2 {
		t.Fatalf("alive = %d after kill, want 2", st.AliveShards)
	}

	// The gateway itself stays ready while any shard lives.
	resp, err := http.Get(fx.gwSrv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway /readyz → %d with 2/3 shards alive", resp.StatusCode)
	}

	// Exactly the dead shard's keyspace is shed.
	session := fx.sessions(1)[0]
	shed, served := 0, 0
	for uid := 0; uid < 100; uid++ {
		owner, _ := fx.gw.Ring().Owner(uid)
		ext := &server.Extension{BaseURL: fx.gwSrv.URL, User: uid}
		_, err := ext.Report(20_000_000, session)
		if owner == dead {
			var apiErr *server.APIError
			if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
				t.Fatalf("user %d on dead shard: err = %v, want shed 503", uid, err)
			}
			if apiErr.RetryAfter == "" {
				t.Fatalf("shed 503 for user %d missing Retry-After", uid)
			}
			shed++
		} else {
			if err != nil {
				t.Fatalf("user %d on live shard %s failed: %v", uid, owner, err)
			}
			served++
		}
	}
	if shed == 0 || served == 0 {
		t.Fatalf("degenerate split: %d shed / %d served", shed, served)
	}

	// Batches keep working over the survivors, whole and unflagged.
	// One chunk per ring shard: were the dead shard still counted
	// ready, one chunk would reach it whichever way the ring sorts.
	var batchResp server.ProfileBatchResponse
	three := 3 * server.MaxSessionsPerBatch
	raw := postJSON(t, fx.gwSrv.URL+"/v1/profile/batch", server.ProfileBatchRequest{Sessions: fx.sessions(three)}, &batchResp)
	if raw.StatusCode != http.StatusOK || raw.Header.Get(PartialHeader) != "" {
		t.Fatalf("batch after clean kill: %d partial=%q", raw.StatusCode, raw.Header.Get(PartialHeader))
	}
	if len(batchResp.Profiles) != three {
		t.Fatalf("got %d profiles, want %d", len(batchResp.Profiles), three)
	}

	// Now kill shard 2 *without* a health pass: the gateway still
	// believes it is ready, so its chunks fail mid-flight and must
	// degrade to per-session errors — the partial-result contract.
	fx.shardSrv[2].Close()
	// Two chunks: one per shard the gateway believes ready.
	two := 2 * server.MaxSessionsPerBatch
	raw = postJSON(t, fx.gwSrv.URL+"/v1/profile/batch", server.ProfileBatchRequest{Sessions: fx.sessions(two)}, &batchResp)
	if raw.StatusCode != http.StatusOK {
		t.Fatalf("batch during unnoticed outage → %d, want 200 partial", raw.StatusCode)
	}
	if raw.Header.Get(PartialHeader) != "1" {
		t.Fatal("partial batch not flagged with X-Hostprof-Partial")
	}
	if len(batchResp.Profiles) != two {
		t.Fatalf("got %d profiles, want %d", len(batchResp.Profiles), two)
	}
	failed, ok := 0, 0
	for _, p := range batchResp.Profiles {
		if p.Error != "" {
			failed++
		} else {
			ok++
		}
	}
	if failed == 0 || ok == 0 {
		t.Fatalf("partial batch split %d failed / %d ok; want both non-zero", failed, ok)
	}
	// The failed request marked the shard dead in-band.
	if st := fx.gw.ClusterStatus(); st.AliveShards != 1 {
		t.Fatalf("alive = %d after in-band failure, want 1", st.AliveShards)
	}
}

// postJSON posts v and decodes the response body into out, returning
// the raw response for status/header asserts.
func postJSON(t *testing.T, url string, v, out any) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %s: %v: %s", url, err, raw)
		}
	}
	return resp
}

// TestGatewayTraceSpansCluster: one trace ID covers the whole
// distributed request — the client span, the gateway's gw.profile_batch
// span, and handler spans on at least two shards — each visible in the
// respective process's /debug/traces.
func TestGatewayTraceSpansCluster(t *testing.T) {
	fx := newClusterFixture(t, 3, 60)
	fx.feedViaGateway(t)
	fx.retrainViaGateway(t)

	clientTrc := tracer.New(tracer.Config{Service: "client", SampleRate: 1})
	ext := &server.Extension{BaseURL: fx.gwSrv.URL, Tracer: clientTrc}
	// One session past two shard chunks over 3 ready shards: every shard
	// gets a scatter chunk.
	if _, err := ext.ProfileBatch(context.Background(), fx.sessions(2*server.MaxSessionsPerBatch+1)); err != nil {
		t.Fatalf("traced batch: %v", err)
	}

	clientTraces := clientTrc.Traces()
	if len(clientTraces) == 0 {
		t.Fatal("client recorded no trace")
	}
	traceID := clientTraces[len(clientTraces)-1].TraceID

	// Push the client's spans to the gateway collector, then read the
	// merged trace back over HTTP: client and gateway halves share the
	// trace ID.
	gwExt := &server.Extension{BaseURL: fx.gwSrv.URL}
	if err := gwExt.PushTrace(context.Background(), clientTraces[len(clientTraces)-1].Spans); err != nil {
		t.Fatalf("pushing client spans to gateway: %v", err)
	}
	// The batch answer is large enough to reach the client in chunks
	// before the gateway's wrapper has ended gw.profile_batch: wait for it.
	gwTrace := fetchTrace(t, fx.gwSrv.URL, traceID)
	for deadline := time.Now().Add(5 * time.Second); !hasSpan(gwTrace, "gw.profile_batch") && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		gwTrace = fetchTrace(t, fx.gwSrv.URL, traceID)
	}
	if !hasSpan(gwTrace, "gw.profile_batch") || !hasSpan(gwTrace, "client.profile_batch") {
		t.Fatalf("gateway trace %s missing gateway or client span: %+v", traceID, spanNames(gwTrace))
	}

	// At least two shards carry handler spans under the same trace ID.
	shardsInTrace := 0
	for i, srv := range fx.shardSrv {
		resp, err := http.Get(srv.URL + "/debug/traces?trace=" + traceID)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusNotFound {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			continue
		}
		var body struct {
			Traces []tracer.TraceJSON `json:"traces"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil || len(body.Traces) != 1 {
			t.Fatalf("shard %d trace fetch: %v (%d traces)", i, err, len(body.Traces))
		}
		if body.Traces[0].TraceID != traceID {
			t.Fatalf("shard %d returned trace %s, want %s", i, body.Traces[0].TraceID, traceID)
		}
		if hasSpan(body.Traces[0], "http.profile_batch") {
			shardsInTrace++
		}
	}
	if shardsInTrace < 2 {
		t.Fatalf("trace %s spans only %d shard(s), want ≥ 2", traceID, shardsInTrace)
	}
}

func fetchTrace(t *testing.T, baseURL, traceID string) tracer.TraceJSON {
	t.Helper()
	resp, err := http.Get(baseURL + "/debug/traces?trace=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("/debug/traces?trace=%s → %d: %s", traceID, resp.StatusCode, raw)
	}
	var body struct {
		Traces []tracer.TraceJSON `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Traces) != 1 {
		t.Fatalf("got %d traces for one ID", len(body.Traces))
	}
	return body.Traces[0]
}

func hasSpan(tr tracer.TraceJSON, name string) bool {
	for _, s := range tr.Spans {
		if s.Name == name {
			return true
		}
	}
	return false
}

func spanNames(tr tracer.TraceJSON) []string {
	out := make([]string, len(tr.Spans))
	for i, s := range tr.Spans {
		out[i] = s.Name
	}
	return out
}

// panicOnce is a shard transport whose first armed round trip panics,
// standing in for any bug on a gateway handler's goroutine.
type panicOnce struct {
	armed atomic.Bool
	next  http.RoundTripper
}

func (p *panicOnce) RoundTrip(r *http.Request) (*http.Response, error) {
	if p.armed.CompareAndSwap(true, false) {
		panic("wired to explode")
	}
	return p.next.RoundTrip(r)
}

// TestGatewayHandlerPanicRecovery mirrors the shard's
// TestHandlerPanicRecovery: a panicking gateway handler is contained
// into a 500 JSON error, counted, marks its trace errored, and the
// gateway keeps serving.
func TestGatewayHandlerPanicRecovery(t *testing.T) {
	rt := &panicOnce{next: http.DefaultTransport}
	fx := newClusterFixtureCfg(t, 1, 4, func(cfg *Config) {
		cfg.HTTPClient = &http.Client{Transport: rt}
	})
	body := []byte(`{"user":1,"ad_id":1,"source":"original"}`)
	post := func() *http.Response {
		t.Helper()
		resp, err := http.Post(fx.gwSrv.URL+"/v1/feedback", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	rt.armed.Store(true)
	resp := post()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	var eb httpmw.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || !strings.Contains(eb.Error, "internal error") {
		t.Fatalf("panic response body: %v (%q)", err, eb.Error)
	}
	if got := fx.gw.Metrics().Counter("hostprof_gateway_panics_total").Value(); got != 1 {
		t.Fatalf("hostprof_gateway_panics_total = %d, want 1", got)
	}
	errored := false
	for _, tr := range fx.gw.tr.Traces() {
		for _, sp := range tr.Spans {
			if sp.Name == "gw.feedback" && tr.Errored && strings.Contains(sp.Error, "panic") {
				errored = true
			}
		}
	}
	if !errored {
		t.Fatal("no errored gw.feedback trace recorded for the panicking request")
	}
	// The transport panics once: the next request goes through normally.
	if resp := post(); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("post-panic status = %d, want 204", resp.StatusCode)
	}
}

// TestGatewayBatchRejectsMalformedSessions pins the gateway's own 400
// for a session that is not a JSON array of strings: the request must
// be refused whole, before any shard sees a chunk — never forwarded and
// degraded to per-session errors. Shapes encoding/json accepts for a
// []string (null sessions, null hosts, free whitespace) pass through.
func TestGatewayBatchRejectsMalformedSessions(t *testing.T) {
	fx := newClusterFixture(t, 2, 4)
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(fx.gwSrv.URL+"/v1/profile/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	for _, body := range []string{
		`{"sessions":[["a.example"],[1,2]]}`,
		`{"sessions":[["a.example"],{"hosts":["b.example"]}]}`,
		`{"sessions":["a.example"]}`,
		`{"sessions":[["a.example",["nested.example"]]]}`,
		`{"sessions":[["a.example",true]]}`,
		`{"sessions":[7]}`,
		`{"sessions":[["a.example"]`,
	} {
		if code := post(body); code != http.StatusBadRequest {
			t.Errorf("%s → %d, want 400", body, code)
		}
	}
	for i, pc := range fx.counters {
		if n := pc.count("/v1/profile/batch"); n != 0 {
			t.Errorf("shard %d saw %d chunks of refused batches", i, n)
		}
	}
	for _, body := range []string{
		`{"sessions":[]}`,
		`{"sessions":[ [ "a.example" , "b\"[1]\\.example" ] , null , [ ] , [null, "c.example"] ]}`,
	} {
		if code := post(body); code == http.StatusBadRequest {
			t.Errorf("%s → 400, want it forwarded", body)
		}
	}
}

// TestGatewayRelaysShardRefusal sends a batch the gateway forwards but a
// shard refuses — one session past the shard's host limit — and
// requires the gateway's answer to be the shard's own: the same status
// and body as a direct request, the session renumbered to the client's
// batch when its chunk is not the first, with no partial flag and no
// tick of the partial-batch alarm. The refusal is the client's fault;
// degrading the chunk to per-session errors used to fail the valid
// sessions beside it and raise a shard alarm.
func TestGatewayRelaysShardRefusal(t *testing.T) {
	fx := newClusterFixture(t, 2, 40)
	fx.feedViaGateway(t)
	fx.retrainViaGateway(t)
	long := make([]string, 1025)
	for i := range long {
		long[i] = fmt.Sprintf("h%d.example", i)
	}
	// Two chunks; the long one is in the first.
	sessions := append([][]string{{"a.example"}, long}, fx.sessions(server.MaxSessionsPerBatch)...)
	body, _ := json.Marshal(server.ProfileBatchRequest{Sessions: sessions[:2]})
	post := func(url string, body []byte) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post(url+"/v1/profile/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp, string(raw)
	}
	direct, want := post(fx.shardSrv[0].URL, body)
	if direct.StatusCode != http.StatusBadRequest || !strings.Contains(want, "session 1 carries 1025 hosts, limit 1024") {
		t.Fatalf("shard answered %d %s", direct.StatusCode, want)
	}
	// The long one second in the second chunk: the shard calls it
	// session 1, the client sent it one past a whole chunk.
	late := append(fx.sessions(server.MaxSessionsPerBatch+1), long)
	partials := fx.gw.met.batchPartial.Value()
	for _, c := range []struct {
		sessions [][]string
		want     string
	}{
		{sessions[:2], want},
		{sessions, want},
		{late, strings.Replace(want, "session 1 ", fmt.Sprintf("session %d ", server.MaxSessionsPerBatch+1), 1)},
	} {
		n := len(c.sessions)
		body, _ := json.Marshal(server.ProfileBatchRequest{Sessions: c.sessions})
		resp, got := post(fx.gwSrv.URL, body)
		if resp.StatusCode != direct.StatusCode || got != c.want {
			t.Errorf("%d sessions through the gateway: %d %s, want %d %s", n, resp.StatusCode, got, direct.StatusCode, c.want)
		}
		if resp.Header.Get(PartialHeader) != "" {
			t.Errorf("%d sessions: a refused batch flagged partial", n)
		}
	}
	if got := fx.gw.met.batchPartial.Value(); got != partials {
		t.Errorf("partial-batch alarm moved %d → %d on refused batches", partials, got)
	}
	// The valid sessions alone are served whole, merged from two chunks.
	var ok server.ProfileBatchResponse
	valid := server.MaxSessionsPerBatch + 1
	if resp := postJSON(t, fx.gwSrv.URL+"/v1/profile/batch", server.ProfileBatchRequest{Sessions: fx.sessions(valid)}, &ok); resp.StatusCode != http.StatusOK || resp.Header.Get(PartialHeader) != "" || len(ok.Profiles) != valid {
		t.Fatalf("valid batch: %d partial=%q, %d of %d profiles", resp.StatusCode, resp.Header.Get(PartialHeader), len(ok.Profiles), valid)
	}
}

// TestGatewayOversizedBodyIs413 pins one answer for a body past the
// proxy limit on every forwarded route; /v1/profile/batch used to call
// it 400 "invalid JSON: http: request body too large".
func TestGatewayOversizedBodyIs413(t *testing.T) {
	fx := newClusterFixture(t, 1, 2)
	// Valid JSON all the way, so only the size can be at fault.
	pad := strings.Repeat(" ", maxProxyBody)
	for path, body := range map[string]string{
		"/v1/report":        `{"user":1,"time":2,"hosts":["a.example"]` + pad + `}`,
		"/v1/feedback":      `{"user":1,"ad_id":2,"source":"original"` + pad + `}`,
		"/v1/profile/batch": `{"sessions":[["a.example"]]` + pad + `}`,
	} {
		resp, err := http.Post(fx.gwSrv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body → %d, want 413", path, len(body), resp.StatusCode)
		}
		if n := fx.counters[0].count(path); n != 0 {
			t.Errorf("%s: the shard saw %d requests of a refused body", path, n)
		}
	}
}

// TestGatewayStatsPartial reads /v1/stats through the fan-out it shares
// with /debug/traces: every alive shard's counts summed, marked partial
// while a shard the gateway still holds alive fails (which marks it
// dead), unmarked once it is no longer asked, and 503 with none alive.
func TestGatewayStatsPartial(t *testing.T) {
	fx := newClusterFixture(t, 3, 6)
	fx.feedViaGateway(t)
	read := func(wantCode int, wantPartial string) server.Stats {
		t.Helper()
		resp, err := http.Get(fx.gwSrv.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st server.Stats
		json.NewDecoder(resp.Body).Decode(&st)
		if resp.StatusCode != wantCode || resp.Header.Get(PartialHeader) != wantPartial {
			t.Fatalf("GET /v1/stats: HTTP %d partial %q, want %d %q", resp.StatusCode, resp.Header.Get(PartialHeader), wantCode, wantPartial)
		}
		return st
	}
	want := 0
	for _, b := range fx.backends {
		want += b.CurrentStats().Visits
	}
	if st := read(http.StatusOK, ""); st.Visits != want || want == 0 {
		t.Fatalf("summed visits = %d, want %d", st.Visits, want)
	}
	want -= fx.backends[0].CurrentStats().Visits
	fx.shardSrv[0].Close()
	if st := read(http.StatusOK, "1"); st.Visits != want {
		t.Fatalf("visits with shard 0 failing = %d, want %d", st.Visits, want)
	}
	if st := read(http.StatusOK, ""); st.Visits != want {
		t.Fatalf("visits with shard 0 dead = %d, want %d", st.Visits, want)
	}
	fx.shardSrv[1].Close()
	fx.shardSrv[2].Close()
	fx.gw.CheckHealth(context.Background())
	read(http.StatusServiceUnavailable, "")
}
