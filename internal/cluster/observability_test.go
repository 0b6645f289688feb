package cluster

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hostprof/internal/ads"
	"hostprof/internal/core"
	"hostprof/internal/obs/tracer"
	"hostprof/internal/server"
	"hostprof/internal/synth"
)

// getJSON fetches url and decodes the body into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s → %d: %s", url, resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatalf("GET %s: %v: %s", url, err, raw)
	}
}

// TestTracePushCompletesClusterTrace is the cross-process tracing
// acceptance test: one POST /v1/report through the gateway must yield
// one trace at the gateway's /debug/traces holding both the gateway's
// gw.* spans and the shard's http.report/store.ingest spans under the
// same trace ID. Shards run the default tracer and push nothing: the
// gateway merges their halves into its own when the trace is read, in
// both formats, and marks the listing partial when a shard cannot be
// read.
func TestTracePushCompletesClusterTrace(t *testing.T) {
	u := synth.NewUniverse(synth.UniverseConfig{Sites: 60, Trackers: 10, Seed: 3})
	ont := synth.BuildOntology(u, synth.OntologyConfig{Coverage: 0.2, Seed: 5})
	db := ads.BuildFromOntology(ont, ads.BuildConfig{Seed: 7})
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))

	var urls []string
	var shardSrv []*httptest.Server
	for i := 0; i < 2; i++ {
		b, err := server.New(server.Config{
			Ontology: ont,
			AdDB:     db,
			Train:    core.TrainConfig{Dim: 16, Epochs: 2, MinCount: 1, Seed: 11, Subsample: -1},
			Profile:  core.ProfilerConfig{N: 30, Agg: core.AggIDF},
			Tracer:   tracer.New(tracer.Config{Service: "hostprof-serve", SampleRate: 1}),
			Logger:   quiet,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(b.Handler())
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
		shardSrv = append(shardSrv, srv)
	}

	gwTr := tracer.New(tracer.Config{Service: "hostprof-gateway", SampleRate: 1})
	gw, err := New(Config{Backends: urls, HealthInterval: -1, Tracer: gwTr, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	gw.CheckHealth(context.Background())
	gwSrv := httptest.NewServer(gw.Handler())
	t.Cleanup(gwSrv.Close)

	// One report through the gateway; 503 is the ingested-but-untrained
	// answer, which still traces end to end. Both processes end their
	// spans before answering, so the trace is whole once this returns.
	report(t, gwSrv.URL, 1, []string{"news.example", "cdn.example"},
		http.StatusOK, http.StatusServiceUnavailable)
	own := gwTr.Traces()
	if len(own) != 1 {
		t.Fatalf("gateway retained %d traces, want the report's one", len(own))
	}
	id := own[0].TraceID

	var body struct {
		Traces []tracer.TraceJSON `json:"traces"`
	}
	getJSON(t, gwSrv.URL+"/debug/traces?trace="+id, &body)
	if len(body.Traces) != 1 || body.Traces[0].TraceID != id {
		t.Fatalf("?trace=%s answered %d traces: %+v", id, len(body.Traces), body.Traces)
	}
	bySvc := map[string]map[string]bool{}
	for _, sp := range body.Traces[0].Spans {
		if sp.TraceID != id {
			t.Fatalf("span %s carries trace %s inside trace %s", sp.Name, sp.TraceID, id)
		}
		if bySvc[sp.Service] == nil {
			bySvc[sp.Service] = map[string]bool{}
		}
		bySvc[sp.Service][sp.Name] = true
	}
	if !bySvc["hostprof-gateway"]["gw.report"] || !bySvc["hostprof-serve"]["http.report"] || !bySvc["hostprof-serve"]["store.ingest"] {
		t.Fatalf("merged trace lacks gw.report, http.report or store.ingest: %v", bySvc)
	}

	// The Chrome rendering of the same read holds the same spans.
	var chrome struct {
		TraceEvents []struct {
			Phase string         `json:"ph"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	getJSON(t, gwSrv.URL+"/debug/traces?format=chrome&trace="+id, &chrome)
	rendered := map[any]bool{}
	for _, ev := range chrome.TraceEvents {
		if ev.Phase == "X" {
			rendered[ev.Args["span_id"]] = true
		}
	}
	if len(rendered) != len(body.Traces[0].Spans) {
		t.Fatalf("chrome format renders %d spans, JSON %d", len(rendered), len(body.Traces[0].Spans))
	}
	for _, sp := range body.Traces[0].Spans {
		if !rendered[sp.SpanID] {
			t.Fatalf("chrome format lacks span %s (%s)", sp.SpanID, sp.Name)
		}
	}

	// One shard gone: the listing still answers, with the gateway's half
	// and the partial mark — on the read that finds the shard failing,
	// and on the next, once the gateway holds it dead and does not ask it.
	shardSrv[0].Close()
	for _, when := range []string{"failing", "held dead"} {
		resp, err := http.Get(gwSrv.URL + "/debug/traces")
		if err != nil {
			t.Fatal(err)
		}
		body.Traces = nil
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get(PartialHeader) == "" {
			t.Fatalf("listing with a shard %s: HTTP %d, %s %q", when, resp.StatusCode, PartialHeader, resp.Header.Get(PartialHeader))
		}
		gwHalf := false
		for _, tr := range body.Traces {
			for _, sp := range tr.Spans {
				gwHalf = gwHalf || (tr.TraceID == id && sp.Name == "gw.report")
			}
		}
		if !gwHalf {
			t.Fatalf("listing with a shard %s lost the gateway's half: %+v", when, body.Traces)
		}
		gw.CheckHealth(context.Background())
	}
}

// TestClusterMetricsFederationDegrades exercises the federated view:
// all shards answering → every ledger entry ok, counters summed and
// gauges shard-labelled, and none of it on the gateway's /metrics; one
// shard killed → its entry degrades to
// stale (last good snapshot retained), the endpoint still answers 200,
// and the timeline records the shard_down flap.
func TestClusterMetricsFederationDegrades(t *testing.T) {
	fx := newClusterFixture(t, 3, 6) // health loop off: every read re-scrapes
	fx.feedViaGateway(t)

	var cm ClusterMetrics
	getJSON(t, fx.gwSrv.URL+"/v1/cluster/metrics", &cm)
	if len(cm.Shards) != 3 {
		t.Fatalf("ledger has %d shards, want 3: %+v", len(cm.Shards), cm.Shards)
	}
	for _, s := range cm.Shards {
		if s.Status != "ok" || s.Series == 0 {
			t.Fatalf("healthy shard %s scraped as %q (%d series, err %q)", s.Backend, s.Status, s.Series, s.Error)
		}
	}
	var reportsSummed float64
	sawShardGauge := false
	for _, m := range cm.Metrics {
		if m.Name == "hostprof_http_requests_total" && m.Labels["endpoint"] == "report" {
			if m.Labels["shard"] != "" {
				t.Fatalf("summed counter still carries a shard label: %+v", m)
			}
			reportsSummed += m.Value
		}
		if m.Kind == "gauge" && m.Labels["shard"] != "" {
			sawShardGauge = true
		}
	}
	if reportsSummed == 0 {
		t.Fatal("merged view has no summed hostprof_http_requests_total{endpoint=report}")
	}
	if !sawShardGauge {
		t.Fatal("merged view has no shard-labelled gauge")
	}

	// /v1/cluster/metrics is the one federated view: the gateway's own
	// /metrics carries its registry only, no shard-labelled series.
	resp, err := http.Get(fx.gwSrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(text), "hostprof_gateway_requests_total") {
		t.Fatalf("gateway /metrics lacks its own series:\n%s", text)
	}
	if strings.Contains(string(text), `shard="`) {
		t.Fatalf("gateway /metrics carries federated shard-labelled series:\n%s", text)
	}

	// Kill one shard: federation degrades that entry, never the
	// endpoint, and the probe records the liveness flap on the timeline.
	victim := fx.shardSrv[0].URL
	fx.shardSrv[0].Close()
	fx.gw.CheckHealth(context.Background())

	getJSON(t, fx.gwSrv.URL+"/v1/cluster/metrics", &cm)
	byBackend := make(map[string]ShardScrapeStatus)
	for _, s := range cm.Shards {
		byBackend[s.Backend] = s
	}
	if got := byBackend[victim]; got.Status != "stale" || got.Error == "" {
		t.Fatalf("dead shard scraped as %q (err %q), want stale with error", got.Status, got.Error)
	}
	ok := 0
	for _, s := range cm.Shards {
		if s.Status == "ok" {
			ok++
		}
	}
	if ok != 2 {
		t.Fatalf("%d shards still ok after one kill, want 2: %+v", ok, cm.Shards)
	}
	if len(cm.Metrics) == 0 {
		t.Fatal("merged view emptied out after a partial scrape")
	}

	var ev struct {
		Events []Event `json:"events"`
		LastID int64   `json:"last_id"`
	}
	getJSON(t, fx.gwSrv.URL+"/v1/cluster/events", &ev)
	found := false
	for _, e := range ev.Events {
		if e.Type == EventShardDown && e.Shard == victim {
			if e.UnixNano <= 0 {
				t.Fatalf("shard_down event without a timestamp: %+v", e)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("timeline has no shard_down for %s: %+v", victim, ev.Events)
	}
}

// TestFederationMissingShard covers the never-scraped state: a backend
// that has never answered /varz reports missing (no data), while the
// endpoint still serves 200.
func TestFederationMissingShard(t *testing.T) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	gw, err := New(Config{
		Backends:       []string{"http://127.0.0.1:1"},
		HealthInterval: -1,
		ShardTimeout:   200 * time.Millisecond,
		Logger:         quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	srv := httptest.NewServer(gw.Handler())
	t.Cleanup(srv.Close)

	var cm ClusterMetrics
	getJSON(t, srv.URL+"/v1/cluster/metrics", &cm)
	if len(cm.Shards) != 1 || cm.Shards[0].Status != "missing" || cm.Shards[0].Error == "" {
		t.Fatalf("unreachable shard ledger: %+v", cm.Shards)
	}
}

// TestFederationRefreshIsSerialized: concurrent cold reads of
// /v1/cluster/metrics share one scrape fan-out — a reader arriving
// while another refreshes waits for it and reuses its result — so a
// shard is scraped once, not once per reader. That holds behind a long
// TTL and with the health loop off (TTL <= 0), where only the next
// read after the fan-out scrapes again.
func TestFederationRefreshIsSerialized(t *testing.T) {
	for _, c := range []struct {
		name     string
		interval time.Duration
		after    int64 // scrapes once one more read follows the burst
	}{
		{"long TTL", time.Hour, 1},
		{"loop off", -1, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			const readers = 8
			var scrapes, arrived atomic.Int64
			shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/varz" {
					scrapes.Add(1)
					// Hold the refresh open until every reader is in.
					for arrived.Load() < readers {
						time.Sleep(time.Millisecond)
					}
					time.Sleep(50 * time.Millisecond)
				}
				w.Write([]byte("[]"))
			}))
			t.Cleanup(shard.Close)
			gw, err := New(Config{
				Backends:       []string{shard.URL},
				HealthInterval: c.interval,
				Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(gw.Close)
			h := gw.Handler()
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				arrived.Add(1)
				h.ServeHTTP(w, r)
			}))
			t.Cleanup(srv.Close)
			read := func() {
				resp, err := http.Get(srv.URL + "/v1/cluster/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}

			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < readers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					read()
				}()
			}
			close(start)
			wg.Wait()
			if n := scrapes.Load(); n != 1 {
				t.Fatalf("%d concurrent cold reads scraped the shard %d times, want 1", readers, n)
			}
			read()
			if n := scrapes.Load(); n != c.after {
				t.Fatalf("one read after the burst: %d scrapes in all, want %d", n, c.after)
			}
		})
	}
}

// TestClusterEventsCursor drives the ?since cursor protocol: the
// initial probe flaps are visible, a read from last_id is empty until
// new events land, and only the new events come back then.
func TestClusterEventsCursor(t *testing.T) {
	fx := newClusterFixture(t, 2, 2)

	type eventsBody struct {
		Events []Event `json:"events"`
		LastID int64   `json:"last_id"`
	}
	var first eventsBody
	getJSON(t, fx.gwSrv.URL+"/v1/cluster/events", &first)
	if len(first.Events) == 0 || first.LastID == 0 {
		t.Fatalf("no events after initial health pass: %+v", first)
	}
	ups := 0
	var prevID int64
	for _, e := range first.Events {
		if e.ID <= prevID {
			t.Fatalf("event IDs not increasing: %+v", first.Events)
		}
		prevID = e.ID
		if e.Type == EventShardUp {
			ups++
		}
	}
	if ups != 2 {
		t.Fatalf("%d shard_up events for a 2-shard cluster, want 2: %+v", ups, first.Events)
	}

	var empty eventsBody
	getJSON(t, fx.gwSrv.URL+"/v1/cluster/events?since="+itoa(first.LastID), &empty)
	if len(empty.Events) != 0 || empty.LastID != first.LastID {
		t.Fatalf("cursor read past the end returned %+v", empty)
	}

	fx.shardSrv[1].Close()
	fx.gw.CheckHealth(context.Background())

	var delta eventsBody
	getJSON(t, fx.gwSrv.URL+"/v1/cluster/events?since="+itoa(first.LastID), &delta)
	if len(delta.Events) == 0 {
		t.Fatal("no new events after a shard died")
	}
	for _, e := range delta.Events {
		if e.ID <= first.LastID {
			t.Fatalf("cursor leaked an old event: %+v", e)
		}
	}
	sawDown := false
	for _, e := range delta.Events {
		if e.Type == EventShardDown && e.Shard == fx.shardSrv[1].URL {
			sawDown = true
		}
	}
	if !sawDown {
		t.Fatalf("delta read missing the shard_down: %+v", delta.Events)
	}

	// Shed window: a request owned by the dead shard opens it (once).
	opened := false
	for uid := 0; uid < 32 && !opened; uid++ {
		if owner, _ := fx.gw.Ring().Owner(uid); owner != fx.shardSrv[1].URL {
			continue
		}
		report(t, fx.gwSrv.URL, uid, []string{"a.example"}, http.StatusServiceUnavailable, http.StatusBadGateway)
		var after eventsBody
		getJSON(t, fx.gwSrv.URL+"/v1/cluster/events?since="+itoa(first.LastID), &after)
		for _, e := range after.Events {
			if e.Type == EventShedOpen && e.Shard == fx.shardSrv[1].URL {
				opened = true
			}
		}
		break
	}
	if !opened {
		t.Fatal("shedding a dead shard's keyspace recorded no shed_open event")
	}

	// Malformed cursor and limit are client errors.
	for _, q := range []string{"?since=abc", "?since=-1", "?limit=x"} {
		resp, err := http.Get(fx.gwSrv.URL + "/v1/cluster/events" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET events%s → %d, want 400", q, resp.StatusCode)
		}
	}

	// ?limit keeps the newest.
	var limited eventsBody
	getJSON(t, fx.gwSrv.URL+"/v1/cluster/events?limit=1", &limited)
	if len(limited.Events) != 1 || limited.Events[0].ID != limited.LastID {
		t.Fatalf("limit=1 did not return exactly the newest event: %+v", limited)
	}
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }

// TestModelShippingEmitsEdgeEvents pins the timeline entries a shipped
// model leaves: a retrain's peer logs model_version on the probe that
// follows distribution, and a resize joiner seeded during planning logs
// shard_ready and model_version.
func TestModelShippingEmitsEdgeEvents(t *testing.T) {
	fx := newClusterFixtureCfg(t, 2, 60, func(c *Config) { c.VirtualNodes = 8 })
	fx.feedViaGateway(t)
	type eventsBody struct {
		Events []Event `json:"events"`
		LastID int64   `json:"last_id"`
	}
	var before eventsBody
	getJSON(t, fx.gwSrv.URL+"/v1/cluster/events", &before)
	saw := func(since int64, typ, shard, key, version string) bool {
		var got eventsBody
		getJSON(t, fx.gwSrv.URL+"/v1/cluster/events?since="+itoa(since), &got)
		for _, e := range got.Events {
			if e.Type == typ && e.Shard == shard && e.Attrs[key] == version {
				return true
			}
		}
		t.Logf("events since %d: %+v", since, got.Events)
		return false
	}

	rep := fx.retrainViaGateway(t)
	if len(rep.Distributed) != 1 || rep.Partial {
		t.Fatalf("retrain report: %+v", rep)
	}
	if peer := rep.Distributed[0]; !saw(before.LastID, EventModelVersion, peer, "to", rep.Version) {
		t.Fatalf("no model_version event for retrain peer %s", peer)
	}

	var mid eventsBody
	getJSON(t, fx.gwSrv.URL+"/v1/cluster/events", &mid)
	joiner := fx.addShard(t)
	m, started, err := fx.gw.Resize(context.Background(), append(fx.gw.Ring().Nodes(), joiner))
	if err != nil || !started {
		t.Fatalf("Resize: started=%v err=%v", started, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := waitMigration(ctx, m); err != nil {
		t.Fatalf("grow migration: %v", err)
	}
	if !saw(mid.LastID, EventShardReady, joiner, "model_version", rep.Version) {
		t.Fatalf("no shard_ready event for seeded joiner %s", joiner)
	}
	if !saw(mid.LastID, EventModelVersion, joiner, "to", rep.Version) {
		t.Fatalf("no model_version event for seeded joiner %s", joiner)
	}
}

// TestEventLogEviction pins the ring semantics: capacity bounds the
// buffer, eviction drops the oldest, and the cursor stays valid across
// evictions because IDs keep increasing.
func TestEventLogEviction(t *testing.T) {
	l := newEventLog(4)
	for i := 0; i < 10; i++ {
		l.record("t", "", "m", nil)
	}
	evs, last := l.since(0)
	if len(evs) != 4 || last != 10 {
		t.Fatalf("got %d events, last %d; want 4 retained, cursor 10", len(evs), last)
	}
	if evs[0].ID != 7 || evs[3].ID != 10 {
		t.Fatalf("retained window [%d..%d], want [7..10]", evs[0].ID, evs[3].ID)
	}
	evs, _ = l.since(8)
	if len(evs) != 2 {
		t.Fatalf("since(8) → %d events, want 2", len(evs))
	}
	// Nil log: every method is the disabled no-op.
	var nilLog *eventLog
	nilLog.record("t", "", "m", nil)
	if evs, last := nilLog.since(0); evs != nil || last != 0 {
		t.Fatal("nil eventLog not inert")
	}
}

// TestInstrumentDisabledPathAllocs guards the acceptance criterion
// that the observability plane costs nothing when switched off: with
// no SLO targets, no slow-request threshold and no tracer, one pass through the gateway's mounted handler wrapper must
// not allocate beyond the pre-existing recorder + counter-lookup
// baseline.
func TestInstrumentDisabledPathAllocs(t *testing.T) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	gw, err := New(Config{
		Backends:       []string{"http://127.0.0.1:1"},
		HealthInterval: -1,
		Logger:         quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)

	h := gw.mw.Wrap("report", func(w http.ResponseWriter, r *http.Request) {})
	req := httptest.NewRequest(http.MethodPost, "/v1/report", nil)
	rec := httptest.NewRecorder()
	allocs := testing.AllocsPerRun(500, func() { h(rec, req) })
	// Baseline: statusRecorder, the deferred closure, and the label
	// structs + lookup key for the per-request counter — all of which
	// predate the observability plane. The SLO mark, slow-request
	// check and event hooks must all be free when
	// disabled (nil receivers / zero thresholds), so any rise here
	// means a hook leaked onto the hot path.
	const baseline = 14
	if allocs > baseline {
		t.Fatalf("disabled instrument path allocates %.0f/op, budget %d — an observability hook leaked onto the hot path", allocs, baseline)
	}
}
