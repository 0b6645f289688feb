package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hostprof/internal/ads"
	"hostprof/internal/core"
	"hostprof/internal/fault"
	"hostprof/internal/obs"
	"hostprof/internal/obs/httpmw"
	"hostprof/internal/store"
	"hostprof/internal/synth"
)

// newResilienceFixture builds the standard fixture world but lets the
// test mutate the backend config (timeouts, admission limits, injected
// store) before construction.
func newResilienceFixture(t *testing.T, mutate func(*Config)) *backendFixture {
	t.Helper()
	u := synth.NewUniverse(synth.UniverseConfig{Sites: 100, Trackers: 15, Seed: 3})
	ont := synth.BuildOntology(u, synth.OntologyConfig{Coverage: 0.2, Seed: 5})
	db := ads.BuildFromOntology(ont, ads.BuildConfig{Seed: 7})
	cfg := Config{
		Ontology: ont,
		AdDB:     db,
		Train:    core.TrainConfig{Dim: 16, Epochs: 4, MinCount: 1, Seed: 11, Subsample: -1},
		Profile:  core.ProfilerConfig{N: 30, Agg: core.AggIDF},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(b.Handler())
	t.Cleanup(srv.Close)
	pop := synth.NewPopulation(u, synth.PopulationConfig{Users: 8, Days: 2, Seed: 13})
	return &backendFixture{b: b, srv: srv, u: u, pop: pop}
}

// seedVisits puts a small trainable corpus straight into the store.
func seedVisits(t *testing.T, fx *backendFixture) {
	t.Helper()
	tr := fx.pop.Browse()
	for _, v := range tr.Visits() {
		if err := fx.b.store.Append(v); err != nil {
			t.Fatal(err)
		}
	}
}

// postJSON sends raw bytes to a /v1 endpoint and returns the response.
func postJSON(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestHandlerFailureModes drives every rejection path of the /v1
// endpoints and asserts both the status code and the structured JSON
// error envelope.
func TestHandlerFailureModes(t *testing.T) {
	fx := newResilienceFixture(t, nil) // untrained, empty store

	huge, _ := json.Marshal(ReportRequest{
		User: 1, Time: 1, Hosts: []string{strings.Repeat("a", maxBodyBytes+10)},
	})
	manyHosts, _ := json.Marshal(ReportRequest{
		User: 1, Time: 1, Hosts: make([]string, 1025),
	})

	cases := []struct {
		name     string
		path     string
		body     string
		wantCode int
		wantErr  string // substring of the JSON error field
	}{
		{"report oversized body", "/v1/report", string(huge),
			http.StatusRequestEntityTooLarge, "exceeds"},
		{"report unknown field", "/v1/report", `{"user":1,"time":1,"hosts":["a.com"],"extra":true}`,
			http.StatusBadRequest, "unknown field"},
		{"report malformed json", "/v1/report", `{"user":`,
			http.StatusBadRequest, "bad request"},
		{"report empty hosts", "/v1/report", `{"user":1,"time":1,"hosts":[]}`,
			http.StatusBadRequest, "empty host list"},
		{"report too many hosts", "/v1/report", string(manyHosts),
			http.StatusBadRequest, "limit 1024"},
		{"report negative user", "/v1/report", `{"user":-1,"time":1,"hosts":["a.com"]}`,
			http.StatusBadRequest, "user must be non-negative"},
		{"report negative time", "/v1/report", `{"user":1,"time":-5,"hosts":["a.com"]}`,
			http.StatusBadRequest, "time must be non-negative"},
		{"report before training", "/v1/report", `{"user":1,"time":1,"hosts":["a.com"]}`,
			http.StatusServiceUnavailable, "not trained"},
		{"feedback bad source", "/v1/feedback", `{"user":1,"ad_id":1,"source":"mallory"}`,
			http.StatusBadRequest, "source must be"},
		{"feedback negative user", "/v1/feedback", `{"user":-1,"ad_id":1,"source":"original"}`,
			http.StatusBadRequest, "user must be non-negative"},
		{"feedback negative ad", "/v1/feedback", `{"user":1,"ad_id":-2,"source":"original"}`,
			http.StatusBadRequest, "ad_id must be non-negative"},
		{"retrain empty corpus", "/v1/retrain", `{}`,
			http.StatusConflict, "empty"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, fx.srv.URL+tc.path, []byte(tc.body))
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantCode)
			}
			var eb httpmw.ErrorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				t.Fatalf("error body is not JSON: %v", err)
			}
			if !strings.Contains(eb.Error, tc.wantErr) {
				t.Fatalf("error = %q, want substring %q", eb.Error, tc.wantErr)
			}
		})
	}

	// Bad feedback must not have touched the campaign tallies.
	if cs := fx.b.CampaignStats(); len(cs.Impressions) != 0 {
		t.Fatalf("rejected feedback mutated campaign stats: %+v", cs)
	}
}

// TestClientParsesJSONErrors: the Extension surfaces the backend's
// structured error message, not the raw JSON envelope.
func TestClientParsesJSONErrors(t *testing.T) {
	fx := newResilienceFixture(t, nil)
	ext := &Extension{BaseURL: fx.srv.URL, User: 1}
	_, err := ext.Report(1, []string{"a.com"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want APIError, got %v", err)
	}
	if apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", apiErr.Status)
	}
	if strings.Contains(apiErr.Message, `{"error"`) || !strings.Contains(apiErr.Message, "not trained") {
		t.Fatalf("message %q not parsed from the JSON envelope", apiErr.Message)
	}
}

// TestRetrainSingleflight is the coordinator acceptance test: two
// concurrent /v1/retrain requests must result in exactly one training
// run, with both callers succeeding.
func TestRetrainSingleflight(t *testing.T) {
	t.Cleanup(fault.Reset)
	var starts atomic.Int64
	fx := newResilienceFixture(t, func(cfg *Config) {
		cfg.Train.Progress = func(e core.EpochStats) {
			if e.Epoch == 0 {
				starts.Add(1)
			}
		}
	})
	seedVisits(t, fx)

	// Slow each epoch down so the second request provably lands while
	// the first one's run is still going.
	fault.Set(fault.TrainEpoch, fault.Latency(100*time.Millisecond))

	ext := &Extension{BaseURL: fx.srv.URL, User: 0}
	errs := make(chan error, 2)
	go func() { errs <- ext.Retrain() }()
	// Wait for the first run to actually start before firing the joiner.
	waitForCond(t, "first retrain to start", func() bool { return fault.Hits(fault.TrainEpoch) >= 1 })
	go func() { errs <- ext.Retrain() }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("retrain %d: %v", i, err)
		}
	}
	if n := starts.Load(); n != 1 {
		t.Fatalf("training ran %d times for two concurrent requests, want 1", n)
	}
	if !fx.b.Ready() {
		t.Fatal("backend not ready after coalesced retrain")
	}
}

// TestRetrainAsync: ?async=1 answers 202 immediately, the run proceeds
// in the background, and hostprof_retrain_state tracks it.
func TestRetrainAsync(t *testing.T) {
	t.Cleanup(fault.Reset)
	reg := obs.NewRegistry()
	fx := newResilienceFixture(t, func(cfg *Config) { cfg.Metrics = reg })
	seedVisits(t, fx)
	fault.Set(fault.TrainEpoch, fault.Latency(50*time.Millisecond))

	ext := &Extension{BaseURL: fx.srv.URL, User: 0}
	if err := ext.RetrainAsync(); err != nil {
		t.Fatalf("async retrain: %v", err)
	}
	if !fx.b.eng.Running() {
		t.Fatal("no retrain in flight right after 202")
	}
	if got := gaugeVal(t, reg, "hostprof_retrain_state"); got != 1 {
		t.Fatalf("hostprof_retrain_state = %v mid-run, want 1", got)
	}
	// A second async request while running also answers 202 (it joins).
	if err := ext.RetrainAsync(); err != nil {
		t.Fatalf("second async retrain: %v", err)
	}
	waitForCond(t, "async retrain to finish", func() bool { return fx.b.Ready() })
	waitForCond(t, "retrain state to clear", func() bool { return !fx.b.eng.Running() })
	if got := gaugeVal(t, reg, "hostprof_retrain_state"); got != 0 {
		t.Fatalf("hostprof_retrain_state = %v after run, want 0", got)
	}
}

// TestRetrainContextCancelled: a cancelled context aborts promptly with
// context.Canceled and leaves the backend untrained.
func TestRetrainContextCancelled(t *testing.T) {
	fx := newResilienceFixture(t, nil)
	seedVisits(t, fx)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := fx.b.RetrainContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("retrain with cancelled ctx = %v, want context.Canceled", err)
	}
	if fx.b.Ready() {
		t.Fatal("cancelled retrain still installed a model")
	}
}

// TestRetrainTimeout: Config.RetrainTimeout turns a slow run into a 504.
func TestRetrainTimeout(t *testing.T) {
	t.Cleanup(fault.Reset)
	fx := newResilienceFixture(t, func(cfg *Config) {
		cfg.RetrainTimeout = 30 * time.Millisecond
	})
	seedVisits(t, fx)
	fault.Set(fault.TrainEpoch, fault.Latency(200*time.Millisecond))

	resp := postJSON(t, fx.srv.URL+"/v1/retrain", []byte(`{}`))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	if err := fx.b.RetrainContext(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("direct retrain = %v, want context.DeadlineExceeded", err)
	}
}

// TestReportShedding: with MaxInflightReports=1 and a slow handler, the
// overflow request is shed with 429 + Retry-After and counted.
func TestReportShedding(t *testing.T) {
	t.Cleanup(fault.Reset)
	reg := obs.NewRegistry()
	fx := newResilienceFixture(t, func(cfg *Config) {
		cfg.Metrics = reg
		cfg.MaxInflightReports = 1
	})
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	fault.Set(fault.HTTPPoint("report"), func() error {
		entered <- struct{}{}
		<-release
		return nil
	})

	body := []byte(`{"user":1,"time":1,"hosts":["a.com"]}`)
	slow := make(chan int, 1)
	go func() {
		resp, err := http.Post(fx.srv.URL+"/v1/report", "application/json", bytes.NewReader(body))
		if err != nil {
			slow <- -1
			return
		}
		resp.Body.Close()
		slow <- resp.StatusCode
	}()
	<-entered // the slow request holds the only slot

	resp := postJSON(t, fx.srv.URL+"/v1/report", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 missing Retry-After")
	}
	var eb httpmw.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
		t.Fatalf("shed response body not a JSON error: %v (%q)", err, eb.Error)
	}
	if got := counterVal(t, reg, "hostprof_http_shed_total"); got != 1 {
		t.Fatalf("hostprof_http_shed_total = %v, want 1", got)
	}

	// The client sees the Retry-After hint on its typed error.
	ext := &Extension{BaseURL: fx.srv.URL, User: 1}
	_, err := ext.Report(1, []string{"a.com"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests || apiErr.RetryAfter == "" {
		t.Fatalf("client error = %v, want 429 with RetryAfter", err)
	}

	close(release)
	if code := <-slow; code != http.StatusServiceUnavailable {
		// Untrained backend: the admitted request ends in 503, proving it
		// was served, not shed.
		t.Fatalf("admitted request finished with %d, want 503", code)
	}
}

// TestHandlerPanicRecovery: a panicking handler is contained into a 500
// JSON error, counted, and the server keeps serving.
func TestHandlerPanicRecovery(t *testing.T) {
	t.Cleanup(fault.Reset)
	reg := obs.NewRegistry()
	fx := newResilienceFixture(t, func(cfg *Config) { cfg.Metrics = reg })
	fault.SetN(fault.HTTPPoint("feedback"), 1, fault.Panic("wired to explode"))

	resp := postJSON(t, fx.srv.URL+"/v1/feedback", []byte(`{"user":1,"ad_id":1,"source":"original"}`))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	var eb httpmw.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || !strings.Contains(eb.Error, "internal error") {
		t.Fatalf("panic response body: %v (%q)", err, eb.Error)
	}
	if got := counterVal(t, reg, "hostprof_http_panics_total"); got != 1 {
		t.Fatalf("hostprof_http_panics_total = %v, want 1", got)
	}
	// The hook was one-shot: the next request goes through normally.
	resp = postJSON(t, fx.srv.URL+"/v1/feedback", []byte(`{"user":1,"ad_id":1,"source":"original"}`))
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("post-panic status = %d, want 204", resp.StatusCode)
	}
}

// TestServerDegradedStoreKeepsServing is the server-level acceptance
// test for graceful degradation: with the WAL failing underneath, the
// backend keeps answering /v1/report with 200 while
// hostprof_store_degraded reads 1, and re-attaches once the fault
// clears.
func TestServerDegradedStoreKeepsServing(t *testing.T) {
	t.Cleanup(fault.Reset)
	reg := obs.NewRegistry()
	st, err := store.Open(store.Config{
		Dir: t.TempDir(), Fsync: store.FsyncNever, Metrics: reg,
		ReprobeMin: 5 * time.Millisecond, ReprobeMax: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Stop the reprobe goroutine before TempDir cleanup: a probe landing
	// mid-RemoveAll recreates WAL files and fails the cleanup.
	t.Cleanup(func() { st.Close() })
	fx := newResilienceFixture(t, func(cfg *Config) {
		cfg.Metrics = reg
		cfg.Store = st
	})
	seedVisits(t, fx)
	if err := fx.b.Retrain(); err != nil {
		t.Fatalf("retrain: %v", err)
	}

	site := fx.u.Hosts[fx.u.Sites[0].Host].Name
	support := fx.u.Hosts[fx.u.Sites[0].Support[0]].Name
	ext := &Extension{BaseURL: fx.srv.URL, User: 0}

	fault.Set(fault.StoreWALAppend, fault.Error(errors.New("disk pulled")))
	for i := 0; i < 5; i++ {
		if _, err := ext.Report(int64(10_000_000+i), []string{site, support}); err != nil {
			t.Fatalf("report %d during WAL outage: %v", i, err)
		}
	}
	if !st.Degraded() {
		t.Fatal("store not degraded after WAL faults")
	}
	if got := gaugeVal(t, reg, "hostprof_store_degraded"); got != 1 {
		t.Fatalf("hostprof_store_degraded = %v, want 1", got)
	}

	fault.Reset()
	waitForCond(t, "WAL re-attach", func() bool { return !st.Degraded() })
	if _, err := ext.Report(10_000_100, []string{site, support}); err != nil {
		t.Fatalf("report after re-attach: %v", err)
	}
}

// TestReportIngestsAllHostsOnError: the report path must not drop the
// suffix of a host list when one append fails mid-loop.
func TestReportIngestsAllHostsOnError(t *testing.T) {
	t.Cleanup(fault.Reset)
	st, err := store.Open(store.Config{
		Dir: t.TempDir(), Fsync: store.FsyncNever,
		ReprobeMin: time.Hour, ReprobeMax: time.Hour, // keep it degraded
	})
	if err != nil {
		t.Fatal(err)
	}
	fx := newResilienceFixture(t, func(cfg *Config) { cfg.Store = st })

	// First append fails (degrades the store), the rest go memory-only;
	// every host must still land.
	fault.SetN(fault.StoreWALAppend, 1, fault.Error(errors.New("transient")))
	hosts := []string{"a.example", "b.example", "c.example", "d.example"}
	// Untrained backend: 503 after ingestion is the expected answer.
	resp := postJSON(t, fx.srv.URL+"/v1/report",
		[]byte(`{"user":3,"time":9,"hosts":["a.example","b.example","c.example","d.example"]}`))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (not trained)", resp.StatusCode)
	}
	got := make(map[string]bool)
	for _, v := range st.SnapshotTrace().Visits() {
		got[v.Host] = true
	}
	for _, h := range hosts {
		if !got[h] {
			t.Fatalf("host %s dropped by the failing report (stored: %v)", h, got)
		}
	}
}

// TestConcurrentReportsAndRetrain hammers the full surface at once: the
// coordinator, admission gate and sharded store must hold up under
// concurrent reports, feedback and retrains (run with -race).
func TestConcurrentReportsAndRetrain(t *testing.T) {
	fx := newResilienceFixture(t, func(cfg *Config) {
		cfg.MaxInflightReports = 4
	})
	seedVisits(t, fx)
	if err := fx.b.Retrain(); err != nil {
		t.Fatal(err)
	}
	site := fx.u.Hosts[fx.u.Sites[0].Host].Name

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ext := &Extension{BaseURL: fx.srv.URL, User: w}
			for i := 0; i < 20; i++ {
				_, err := ext.Report(int64(20_000_000+i), []string{site})
				var apiErr *APIError
				if err != nil && (!errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests) {
					t.Errorf("worker %d report %d: %v", w, i, err)
					return
				}
				if err := ext.feedback(1, "original", i%3 == 0); err != nil {
					var fbErr *APIError
					if !errors.As(err, &fbErr) || fbErr.Status != http.StatusTooManyRequests {
						t.Errorf("worker %d feedback %d: %v", w, i, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := fx.b.Retrain(); err != nil {
				t.Errorf("concurrent retrain %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
}

// waitForCond polls cond for up to 5s.
func waitForCond(t *testing.T, what string, cond func() bool) {
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

func gaugeVal(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

func counterVal(t *testing.T, reg *obs.Registry, name string) float64 {
	return gaugeVal(t, reg, name)
}
