package obs_test

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hostprof"
	"hostprof/internal/ads"
	"hostprof/internal/cluster"
	"hostprof/internal/core"
	"hostprof/internal/obs"
	"hostprof/internal/obs/tracer"
	"hostprof/internal/server"
	"hostprof/internal/synth"
)

// lintHelp fails on any hostprof_* family exposed without # HELP text
// — the silent-Describe-drift lint. A family shows up in the text
// exposition the moment some code path touches its counter; if nobody
// called Describe for it, dashboards get a bare series with no
// explanation, and nothing else in the build catches that.
func lintHelp(t *testing.T, who string, reg *obs.Registry) {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("%s: write exposition: %v", who, err)
	}
	helped := make(map[string]bool)
	var families []string
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		switch f[0] + " " + f[1] {
		case "# HELP":
			helped[f[2]] = true
		case "# TYPE":
			families = append(families, f[2])
		}
	}
	if len(families) == 0 {
		t.Fatalf("%s: exposition is empty; lint exercised nothing", who)
	}
	for _, fam := range families {
		if strings.HasPrefix(fam, "hostprof_") && !helped[fam] {
			t.Errorf("%s exposes %s without # HELP text — add a reg.Describe next to its registration", who, fam)
		}
	}
}

// TestDescribeCoverage lints each fully wired registry's exposition
// for HELP coverage.
func TestDescribeCoverage(t *testing.T) {
	for _, w := range wiredRegistries(t) {
		lintHelp(t, w.who, w.reg)
	}
}

// wiredRegistries builds every metric-producing component on a fresh
// registry (backend, gateway, pipeline) with its full observability
// plane on, and drives enough traffic to materialize the lazily created
// families.
func wiredRegistries(t *testing.T) []struct {
	who string
	reg *obs.Registry
} {
	t.Helper()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	u := synth.NewUniverse(synth.UniverseConfig{Sites: 60, Trackers: 10, Seed: 3})
	ont := synth.BuildOntology(u, synth.OntologyConfig{Coverage: 0.2, Seed: 5})
	db := ads.BuildFromOntology(ont, ads.BuildConfig{Seed: 7})

	// Backend: tracer, SLOs and the store all export here.
	breg := obs.NewRegistry()
	b, err := server.New(server.Config{
		Ontology:    ont,
		AdDB:        db,
		Train:       core.TrainConfig{Dim: 16, Epochs: 2, MinCount: 1, Workers: 1, Seed: 11, Subsample: -1},
		Profile:     core.ProfilerConfig{N: 30, Agg: core.AggIDF, ANN: true}, // as serve -ann
		Metrics:     breg,
		Tracer:      tracer.New(tracer.Config{Service: "lint", SampleRate: 1, Metrics: breg}),
		SLOTargets:  map[string]time.Duration{"report": 250 * time.Millisecond},
		SlowRequest: time.Nanosecond, // every request trips the slow path
		Logger:      quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	bsrv := httptest.NewServer(b.Handler())
	t.Cleanup(bsrv.Close)

	// Gateway over that backend, with the full observability plane on.
	greg := obs.NewRegistry()
	gw, err := cluster.New(cluster.Config{
		Backends:       []string{bsrv.URL},
		HealthInterval: -1,
		SLOTargets:     map[string]time.Duration{"report": 250 * time.Millisecond},
		SlowRequest:    time.Nanosecond,
		Metrics:        greg,
		Tracer:         tracer.New(tracer.Config{Service: "lint-gw", SampleRate: 1, Metrics: greg}),
		Logger:         quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	gw.CheckHealth(context.Background())
	gsrv := httptest.NewServer(gw.Handler())
	t.Cleanup(gsrv.Close)

	// Traffic through the gateway materializes request counters,
	// latency histograms, SLO gauges, federation and event series on
	// both registries (the report's 503 pre-training still counts); the
	// retrain has the backend publish its index and ANN families.
	for _, req := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/report", `{"user":1,"time":1000,"hosts":["a.example","b.example"]}`},
		{http.MethodPost, "/v1/retrain", `{}`},
		{http.MethodGet, "/v1/cluster", ""},
		{http.MethodGet, "/v1/cluster/metrics", ""},
		{http.MethodGet, "/v1/cluster/events", ""},
		{http.MethodGet, "/v1/stats", ""},
	} {
		r, err := http.NewRequest(req.method, gsrv.URL+req.path, strings.NewReader(req.body))
		if err != nil {
			t.Fatal(err)
		}
		if req.body != "" {
			r.Header.Set("Content-Type", "application/json")
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// Pipeline: the observer front end over the same serving engine,
	// with its own ingest and sniffer families.
	preg := obs.NewRegistry()
	pipe, err := hostprof.NewPipeline(hostprof.PipelineConfig{
		Ontology: ont,
		Train:    core.TrainConfig{Dim: 16, Epochs: 2, MinCount: 1, Workers: 1, Seed: 11, Subsample: -1},
		Profile:  core.ProfilerConfig{N: 30, Agg: core.AggIDF},
		Metrics:  preg,
	})
	if err != nil {
		t.Fatal(err)
	}
	pipe.Ingest([]byte{0}, 1000) // undecodable, but counted
	site := u.Hosts[u.Sites[0].Host].Name
	pipe.IngestVisit(hostprof.Visit{User: 1, Time: 1000, Host: site})
	pipe.IngestVisit(hostprof.Visit{User: 1, Time: 1001, Host: u.Hosts[u.Sites[1].Host].Name})
	if err := pipe.Retrain(); err != nil {
		t.Fatal(err)
	}
	pipe.ProfileSession([]string{site}) // outcome irrelevant: the call is the traffic

	return []struct {
		who string
		reg *obs.Registry
	}{{"backend", breg}, {"gateway", greg}, {"pipeline", preg}}
}
