package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"hostprof/internal/ads"
	"hostprof/internal/core"
	"hostprof/internal/obs"
	"hostprof/internal/synth"
)

// backendFixture spins a backend over a small labelled world plus an
// httptest server.
type backendFixture struct {
	b   *Backend
	srv *httptest.Server
	u   *synth.Universe
	pop *synth.Population
}

func newBackendFixture(t testing.TB) *backendFixture {
	t.Helper()
	return newBackendFixtureWith(t, nil)
}

func newBackendFixtureWith(t testing.TB, reg *obs.Registry) *backendFixture {
	t.Helper()
	u := synth.NewUniverse(synth.UniverseConfig{Sites: 100, Trackers: 15, Seed: 3})
	ont := synth.BuildOntology(u, synth.OntologyConfig{Coverage: 0.2, Seed: 5})
	db := ads.BuildFromOntology(ont, ads.BuildConfig{Seed: 7})
	bl := synth.BuildBlocklist(u, 1, 9)
	b, err := New(Config{
		Ontology:  ont,
		AdDB:      db,
		Blocklist: bl,
		Train:     core.TrainConfig{Dim: 16, Epochs: 4, MinCount: 2, Workers: 1, Seed: 11, Subsample: -1},
		Profile:   core.ProfilerConfig{N: 30, Agg: core.AggIDF},
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(b.Handler())
	t.Cleanup(srv.Close)
	pop := synth.NewPopulation(u, synth.PopulationConfig{Users: 8, Days: 2, Seed: 13})
	return &backendFixture{b: b, srv: srv, u: u, pop: pop}
}

// feedVisits replays the population's browsing into the backend via the
// HTTP API, batching per (user, 10-minute bucket) like the extension.
func (fx *backendFixture) feedVisits(t *testing.T) {
	t.Helper()
	tr := fx.pop.Browse()
	per := tr.PerUserVisits()
	for uid, visits := range per {
		ext := &Extension{BaseURL: fx.srv.URL, User: uid}
		var batch []string
		var batchTime int64 = -1
		flush := func() {
			if len(batch) == 0 {
				return
			}
			if _, err := ext.Report(batchTime, batch); err != nil {
				var apiErr *APIError
				// 503 before first training is expected.
				if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
					t.Fatalf("report: %v", err)
				}
			}
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
}

func TestBackendEndToEndOverHTTP(t *testing.T) {
	fx := newBackendFixture(t)
	ext := &Extension{BaseURL: fx.srv.URL, User: 0}

	// Before any data, retrain must fail cleanly.
	if err := ext.Retrain(); err == nil {
		t.Fatal("retrain on empty store should fail")
	}

	fx.feedVisits(t)
	st, err := ext.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Visits == 0 || st.Trained {
		t.Fatalf("pre-train stats: %+v", st)
	}

	if err := ext.Retrain(); err != nil {
		t.Fatalf("retrain: %v", err)
	}
	st, err = ext.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Trained || st.VocabSize == 0 {
		t.Fatalf("post-train stats: %+v", st)
	}

	// A fresh report now yields ads.
	site := fx.u.Hosts[fx.u.Sites[0].Host].Name
	support := fx.u.Hosts[fx.u.Sites[0].Support[0]].Name
	adsList, err := ext.Report(10_000_000, []string{site, support})
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	if len(adsList) == 0 {
		t.Fatal("no ads returned for a profileable session")
	}
	for _, ad := range adsList {
		if ad.Landing == "" || ad.W == 0 {
			t.Fatalf("malformed wire ad %+v", ad)
		}
	}

	// Feedback round trip.
	if err := ext.feedback(adsList[0].ID, "eavesdropper", true); err != nil {
		t.Fatal(err)
	}
	if err := ext.feedback(adsList[0].ID, "original", false); err != nil {
		t.Fatal(err)
	}
	st, _ = ext.Stats()
	if st.Impressions["eavesdropper"] != 1 || st.Clicks["eavesdropper"] != 1 {
		t.Fatalf("feedback not counted: %+v", st)
	}
	if st.CTRPercent["eavesdropper"] != 100 {
		t.Fatalf("ctr = %v", st.CTRPercent)
	}
}

func TestBackendRejectsBadRequests(t *testing.T) {
	fx := newBackendFixture(t)
	post := func(path, body string) int {
		resp, err := http.Post(fx.srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/v1/report", "{not json"); code != http.StatusBadRequest {
		t.Fatalf("bad json → %d", code)
	}
	if code := post("/v1/report", `{"user":1,"time":5,"hosts":[]}`); code != http.StatusBadRequest {
		t.Fatalf("empty hosts → %d", code)
	}
	if code := post("/v1/report", `{"user":1,"time":5,"hosts":["h"],"extra":1}`); code != http.StatusBadRequest {
		t.Fatalf("unknown field → %d", code)
	}
	if code := post("/v1/feedback", `{"user":1,"ad_id":1,"source":"martian","clicked":true}`); code != http.StatusBadRequest {
		t.Fatalf("bad source → %d", code)
	}
	// Wrong method.
	resp, err := http.Get(fx.srv.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET report → %d", resp.StatusCode)
	}
}

func TestBackendBlocklistFiltersReports(t *testing.T) {
	fx := newBackendFixture(t)
	ext := &Extension{BaseURL: fx.srv.URL, User: 4}
	tracker := fx.u.Hosts[fx.u.TrackerIDs[0]].Name
	_, err := ext.Report(100, []string{tracker, tracker})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("expected 503 before training, got %v", err)
	}
	st, _ := ext.Stats()
	if st.Visits != 0 {
		t.Fatalf("tracker visits stored: %+v", st)
	}
	if got := fx.b.Metrics().Counter("hostprof_report_blocklist_drops_total").Value(); got != 2 {
		t.Fatalf("hostprof_report_blocklist_drops_total = %d, want 2", got)
	}
}

func TestBackendConcurrentReports(t *testing.T) {
	fx := newBackendFixture(t)
	fx.feedVisits(t)
	if err := (&Extension{BaseURL: fx.srv.URL}).Retrain(); err != nil {
		t.Fatal(err)
	}
	site := fx.u.Hosts[fx.u.Sites[1].Host].Name
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ext := &Extension{BaseURL: fx.srv.URL, User: g}
			for i := 0; i < 10; i++ {
				if _, err := ext.Report(int64(20_000_000+i*700), []string{site}); err != nil {
					errs <- err
					return
				}
				if err := ext.feedback(1, "original", false); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st, _ := (&Extension{BaseURL: fx.srv.URL}).Stats()
	if st.Impressions["original"] != 80 {
		t.Fatalf("impressions = %d, want 80", st.Impressions["original"])
	}
}

func TestBackendConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	u := synth.NewUniverse(synth.UniverseConfig{Sites: 30, Seed: 1})
	ont := synth.BuildOntology(u, synth.OntologyConfig{Coverage: 0.3, Seed: 2})
	if _, err := New(Config{Ontology: ont}); err == nil {
		t.Fatal("missing ad DB accepted")
	}
	// Inventory with no labelled landing pages fails selector setup.
	empty := ads.NewDB(ont.Taxonomy())
	if _, err := New(Config{Ontology: ont, AdDB: empty}); err == nil {
		t.Fatal("empty inventory accepted")
	}
}

func TestWireAdJSONShape(t *testing.T) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(WireAd{ID: 3, Landing: "x.example", W: 300, H: 250}); err != nil {
		t.Fatal(err)
	}
	want := `{"id":3,"landing":"x.example","w":300,"h":250}`
	if strings.TrimSpace(buf.String()) != want {
		t.Fatalf("wire shape %q", buf.String())
	}
}

// feedback posts one displayed ad's outcome to /v1/feedback, the call
// the paper's extension makes after showing an ad.
func (e *Extension) feedback(adID int, source string, clicked bool) error {
	return e.post(context.Background(), "client.feedback", "/v1/feedback", FeedbackRequest{
		User: e.User, AdID: adID, Source: source, Clicked: clicked,
	}, nil)
}

// Retrain is RetrainContext without a deadline.
func (e *Extension) Retrain() error {
	return e.RetrainContext(context.Background())
}

// RetrainAsync kicks off a background retrain and returns as soon as the
// backend accepts it (202).
func (e *Extension) RetrainAsync() error {
	return e.post(context.Background(), "client.retrain_async", "/v1/retrain?async=1", struct{}{}, nil)
}

// Stats fetches the backend's aggregate statistics.
func (e *Extension) Stats() (Stats, error) {
	resp, err := e.client().Get(e.BaseURL + "/v1/stats")
	if err != nil {
		return Stats{}, fmt.Errorf("server client: stats: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Stats{}, &APIError{Status: resp.StatusCode}
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return Stats{}, fmt.Errorf("server client: decoding stats: %w", err)
	}
	return st, nil
}

// Retrain is RetrainContext without a deadline.
func (b *Backend) Retrain() error {
	return b.RetrainContext(context.Background())
}

// RetrainContext fits a fresh embedding on every stored per-user-day
// sequence, joining a run already in flight; ctx bounds the wait and,
// for the call that starts it, the run.
func (b *Backend) RetrainContext(ctx context.Context) error {
	_, err := b.eng.Retrain(ctx, ctx, b.store.AllSequences, retrainLabel)
	return err
}
