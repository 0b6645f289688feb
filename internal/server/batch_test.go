package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"hostprof/internal/ads"
	"hostprof/internal/core"
	"hostprof/internal/obs"
	"hostprof/internal/synth"
)

// newBatchFixture spins a backend with a profile cache of cacheSize
// entries (0 disables it).
func newBatchFixture(t *testing.T, cacheSize int) (*backendFixture, *obs.Registry) {
	t.Helper()
	u := synth.NewUniverse(synth.UniverseConfig{Sites: 100, Trackers: 15, Seed: 3})
	ont := synth.BuildOntology(u, synth.OntologyConfig{Coverage: 0.2, Seed: 5})
	db := ads.BuildFromOntology(ont, ads.BuildConfig{Seed: 7})
	reg := obs.NewRegistry()
	b, err := New(Config{
		Ontology:     ont,
		AdDB:         db,
		Train:        core.TrainConfig{Dim: 16, Epochs: 4, MinCount: 2, Workers: 1, Seed: 11, Subsample: -1},
		Profile:      core.ProfilerConfig{N: 30, Agg: core.AggIDF},
		Metrics:      reg,
		ProfileCache: cacheSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(b.Handler())
	t.Cleanup(srv.Close)
	pop := synth.NewPopulation(u, synth.PopulationConfig{Users: 8, Days: 2, Seed: 13})
	return &backendFixture{b: b, srv: srv, u: u, pop: pop}, reg
}

// profileableSession returns hosts that are in-vocabulary after a
// retrain over the fixture population's browsing.
func profileableSession(fx *backendFixture) []string {
	site := fx.u.Hosts[fx.u.Sites[0].Host].Name
	support := fx.u.Hosts[fx.u.Sites[0].Support[0]].Name
	return []string{site, support}
}

func TestProfileBatchEndpoint(t *testing.T) {
	fx, _ := newBatchFixture(t, 64)
	ext := &Extension{BaseURL: fx.srv.URL, User: 0}

	// Untrained backend answers 503.
	if _, err := ext.ProfileBatch(context.Background(), [][]string{{"a.example"}}); err == nil {
		t.Fatal("batch on untrained backend should fail")
	} else {
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
			t.Fatalf("err = %v, want 503", err)
		}
	}

	fx.feedVisits(t)
	if err := ext.Retrain(); err != nil {
		t.Fatalf("retrain: %v", err)
	}

	good := profileableSession(fx)
	results, err := ext.ProfileBatch(context.Background(), [][]string{
		good,
		{"never-seen-host.invalid"},
		{},
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	if results[0].Error != "" || len(results[0].Categories) == 0 {
		t.Fatalf("profileable session: %+v", results[0])
	}
	for name, v := range results[0].Categories {
		if v <= 0 || v > 1 {
			t.Fatalf("category %q weight %g outside (0,1]", name, v)
		}
	}
	if results[1].Error == "" || len(results[1].Categories) != 0 {
		t.Fatalf("unknown-host session should fail per-result: %+v", results[1])
	}
	if results[2].Error == "" {
		t.Fatalf("empty session should fail per-result: %+v", results[2])
	}
}

// TestProfileBatchAllocsPerSession guards the batch handler's marginal
// allocations per session, so that a map or a reflection walk per
// session cannot come back unnoticed. Measured on go1.24 with this
// two-host session: 13.0 per session with the map-and-Marshal encoder
// and an allocating dedupFirst, 7.3 with the append-style writer and
// pooled dedup scratch (what is left is the request decode and the
// result vector).
func TestProfileBatchAllocsPerSession(t *testing.T) {
	fx, _ := newBatchFixture(t, 0)
	fx.feedVisits(t)
	if err := (&Extension{BaseURL: fx.srv.URL}).Retrain(); err != nil {
		t.Fatalf("retrain: %v", err)
	}
	h := fx.b.Handler()
	allocs := func(sessions int) float64 {
		req := ProfileBatchRequest{Sessions: make([][]string, sessions)}
		for i := range req.Sessions {
			req.Sessions[i] = profileableSession(fx)
		}
		body, _ := json.Marshal(req)
		return testing.AllocsPerRun(100, func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/profile/batch", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
			}
		})
	}
	if perSession := (allocs(4) - allocs(1)) / 3; perSession > 10 {
		t.Fatalf("%.1f allocations per extra session, want at most 10", perSession)
	}
}

func TestProfileBatchValidation(t *testing.T) {
	fx, _ := newBatchFixture(t, 0)
	ext := &Extension{BaseURL: fx.srv.URL, User: 0}

	wantStatus := func(err error, code int, what string) {
		t.Helper()
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != code {
			t.Fatalf("%s: err = %v, want HTTP %d", what, err, code)
		}
	}
	_, err := ext.ProfileBatch(context.Background(), nil)
	wantStatus(err, http.StatusBadRequest, "empty batch")

	_, err = ext.ProfileBatch(context.Background(), make([][]string, MaxSessionsPerBatch+1))
	wantStatus(err, http.StatusBadRequest, "oversized batch")

	big := make([]string, 1025) // default per-session limit 1024
	for i := range big {
		big[i] = "h.example"
	}
	_, err = ext.ProfileBatch(context.Background(), [][]string{big})
	wantStatus(err, http.StatusBadRequest, "oversized session")
}

func TestProfileCacheHitsAndMetrics(t *testing.T) {
	fx, reg := newBatchFixture(t, 64)
	ext := &Extension{BaseURL: fx.srv.URL, User: 0}
	fx.feedVisits(t)
	if err := ext.Retrain(); err != nil {
		t.Fatalf("retrain: %v", err)
	}

	good := profileableSession(fx)
	first, err := ext.ProfileBatch(context.Background(), [][]string{good})
	if err != nil {
		t.Fatal(err)
	}
	hits0 := reg.Counter("hostprof_profile_cache_hits_total").Value()
	// Same influencing host set, different order plus unknown noise:
	// must hit the cache and return the identical profile.
	again, err := ext.ProfileBatch(context.Background(), [][]string{{good[1], good[0], "noise.invalid"}})
	if err != nil {
		t.Fatal(err)
	}
	if hits := reg.Counter("hostprof_profile_cache_hits_total").Value(); hits != hits0+1 {
		t.Fatalf("cache hits = %d, want %d", hits, hits0+1)
	}
	if !reflect.DeepEqual(first[0].Categories, again[0].Categories) {
		t.Fatal("cached profile differs from computed profile")
	}
	if reg.Counter("hostprof_profile_cache_misses_total").Value() == 0 {
		t.Fatal("first batch should have counted a miss")
	}
}

// TestProfileCacheLRU checks Config.ProfileCache end to end: with room
// for two entries, a third distinct session evicts exactly one. (The
// LRU order itself is pinned white-box in internal/engine.)
func TestProfileCacheLRU(t *testing.T) {
	fx, reg := newBatchFixture(t, 2)
	ext := &Extension{BaseURL: fx.srv.URL, User: 0}
	fx.feedVisits(t)
	if err := ext.Retrain(); err != nil {
		t.Fatalf("retrain: %v", err)
	}
	// Three single-site sessions the model can tell apart (a site pruned
	// from the vocabulary has an empty key and bypasses the cache).
	var sessions [][]string
	for _, site := range fx.u.Sites {
		s := []string{fx.u.Hosts[site.Host].Name}
		if len(sessions) < 3 && fx.b.eng.Profiler().SessionKey(s) != "" {
			sessions = append(sessions, s)
		}
	}
	if _, err := ext.ProfileBatch(context.Background(), sessions); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("hostprof_profile_cache_misses_total").Value(); got != 3 {
		t.Fatalf("misses = %d, want 3 (sessions must have distinct in-vocabulary keys)", got)
	}
	if got := reg.Counter("hostprof_profile_cache_evictions_total").Value(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if got := gaugeVal(t, reg, "hostprof_profile_cache_size"); got != 2 {
		t.Fatalf("hostprof_profile_cache_size = %v, want 2", got)
	}
}

// TestProfileCacheNeverStaleAcrossRetrain hammers the cached batch path
// while a retrain swaps the model underneath it, then verifies — against
// a freshly built profiler over the post-swap model — that the cache
// answers with current-model profiles only. Run under -race this also
// exercises the profiler/cache swap for data races.
func TestProfileCacheNeverStaleAcrossRetrain(t *testing.T) {
	u := synth.NewUniverse(synth.UniverseConfig{Sites: 100, Trackers: 15, Seed: 3})
	ont := synth.BuildOntology(u, synth.OntologyConfig{Coverage: 0.2, Seed: 5})
	db := ads.BuildFromOntology(ont, ads.BuildConfig{Seed: 7})
	b, err := New(Config{
		Ontology:     ont,
		AdDB:         db,
		Train:        core.TrainConfig{Dim: 16, Epochs: 4, MinCount: 2, Workers: 1, Seed: 11, Subsample: -1},
		Profile:      core.ProfilerConfig{N: 30, Agg: core.AggIDF},
		ProfileCache: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(b.Handler())
	t.Cleanup(srv.Close)
	fx := &backendFixture{b: b, srv: srv, u: u,
		pop: synth.NewPopulation(u, synth.PopulationConfig{Users: 8, Days: 2, Seed: 13})}
	fx.feedVisits(t)
	if err := b.Retrain(); err != nil {
		t.Fatal(err)
	}

	sessions := [][]string{
		profileableSession(fx),
		{fx.u.Hosts[fx.u.Sites[1].Host].Name},
		{fx.u.Hosts[fx.u.Sites[2].Host].Name, fx.u.Hosts[fx.u.Sites[3].Host].Name},
	}

	// Hammer the cached path while the model is retrained underneath.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := b.ProfileSessions(context.Background(), sessions); err != nil {
					t.Errorf("batch during retrain: %v", err)
					return
				}
			}
		}()
	}
	// Grow the corpus so the swapped-in model genuinely differs, then
	// retrain concurrently with the hammering.
	fx.pop = synth.NewPopulation(u, synth.PopulationConfig{Users: 8, Days: 2, Seed: 29})
	fx.feedVisits(t)
	if err := b.RetrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	// After the swap, every cached answer must match a profiler built
	// directly on the store's current (post-swap) model.
	fresh := core.NewProfiler(b.store.Model(), ont, core.ProfilerConfig{N: 30, Agg: core.AggIDF})
	vecs, errs, err := b.ProfileSessions(context.Background(), sessions)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sessions {
		want, wantErr := fresh.ProfileSession(s)
		if (errs[i] == nil) != (wantErr == nil) {
			t.Fatalf("session %d: err %v, fresh profiler err %v", i, errs[i], wantErr)
		}
		if (vecs[i] == nil) != (want == nil) || len(vecs[i]) != len(want) {
			t.Fatalf("session %d: cached profile does not match the post-swap model", i)
		}
		// The cache key ignores session order while Eq. 4's float sum
		// follows it, so an answer cached for a permutation wobbles in
		// the last bit; a stale pre-swap profile differs by far more.
		for c := range want {
			if d := math.Abs(vecs[i][c] - want[c]); d > 1e-9 {
				t.Fatalf("session %d category %d: cached %g vs post-swap %g",
					i, c, vecs[i][c], want[c])
			}
		}
	}
}

// TestProfileCacheNeverStaleAcrossRetrainANN is the ANN variant of the
// retrain hammer: with the HNSW layer enabled, concurrent batch queries
// during a generation swap must never observe a mixed old-graph /
// new-vectors state. The graph lives inside the Profiler that the swap
// replaces wholesale, so post-swap answers must match a fresh profiler
// built with the same ANN configuration over the current model.
func TestProfileCacheNeverStaleAcrossRetrainANN(t *testing.T) {
	u := synth.NewUniverse(synth.UniverseConfig{Sites: 100, Trackers: 15, Seed: 3})
	ont := synth.BuildOntology(u, synth.OntologyConfig{Coverage: 0.2, Seed: 5})
	db := ads.BuildFromOntology(ont, ads.BuildConfig{Seed: 7})
	// ANNEf is tiny so the graph genuinely answers queries at this
	// vocabulary size instead of falling back to the exact scan.
	profCfg := core.ProfilerConfig{N: 30, Agg: core.AggIDF, ANN: true, ANNEf: 8}
	b, err := New(Config{
		Ontology:     ont,
		AdDB:         db,
		Train:        core.TrainConfig{Dim: 16, Epochs: 4, MinCount: 2, Workers: 1, Seed: 11, Subsample: -1},
		Profile:      profCfg,
		ProfileCache: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(b.Handler())
	t.Cleanup(srv.Close)
	fx := &backendFixture{b: b, srv: srv, u: u,
		pop: synth.NewPopulation(u, synth.PopulationConfig{Users: 8, Days: 2, Seed: 13})}
	fx.feedVisits(t)
	if err := b.Retrain(); err != nil {
		t.Fatal(err)
	}

	sessions := [][]string{
		profileableSession(fx),
		{fx.u.Hosts[fx.u.Sites[1].Host].Name},
		{fx.u.Hosts[fx.u.Sites[2].Host].Name, fx.u.Hosts[fx.u.Sites[3].Host].Name},
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := b.ProfileSessions(context.Background(), sessions); err != nil {
					t.Errorf("batch during retrain: %v", err)
					return
				}
			}
		}()
	}
	fx.pop = synth.NewPopulation(u, synth.PopulationConfig{Users: 8, Days: 2, Seed: 29})
	fx.feedVisits(t)
	if err := b.RetrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	fresh := core.NewProfiler(b.store.Model(), ont, profCfg)
	vecs, errs, err := b.ProfileSessions(context.Background(), sessions)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sessions {
		want, wantErr := fresh.ProfileSession(s)
		if (errs[i] == nil) != (wantErr == nil) {
			t.Fatalf("session %d: err %v, fresh ANN profiler err %v", i, errs[i], wantErr)
		}
		if (vecs[i] == nil) != (want == nil) || len(vecs[i]) != len(want) {
			t.Fatalf("session %d: cached ANN profile does not match the post-swap model", i)
		}
		for c := range want {
			if d := math.Abs(vecs[i][c] - want[c]); d > 1e-9 {
				t.Fatalf("session %d category %d: cached %g vs post-swap %g",
					i, c, vecs[i][c], want[c])
			}
		}
	}
}
