package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"

	"hostprof/internal/ads"
	"hostprof/internal/core"
	"hostprof/internal/obs"
	"hostprof/internal/obs/tracer"
	"hostprof/internal/synth"
	"hostprof/internal/trace"
)

// TestDistributedTraceRoundTrip is the tracing acceptance test: one
// traced CLI round trip (retrain + report) against a live backend must
// produce a single trace in the server's /debug/traces holding the
// client span, the HTTP handler spans, the store/profile stages and the
// training span — all under one trace ID.
func TestDistributedTraceRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	srvTr := tracer.New(tracer.Config{Service: "hostprof-serve", SampleRate: 1, BufferTraces: 32, Metrics: reg, Seed: 3})
	fx := newResilienceFixture(t, func(cfg *Config) {
		cfg.Metrics = reg
		cfg.Tracer = srvTr
		cfg.SlowRequest = -1 // keep the log quiet in this test
	})
	seedVisits(t, fx)

	cliTr := tracer.New(tracer.Config{Service: "hostprof-cli", SampleRate: 1, BufferTraces: 8, Seed: 4})
	ext := &Extension{BaseURL: fx.srv.URL, User: 0, Tracer: cliTr}

	ctx, root := cliTr.StartSpan(context.Background(), "cli.report")
	if err := ext.RetrainContext(ctx); err != nil {
		t.Fatalf("retrain: %v", err)
	}
	site := fx.u.Hosts[fx.u.Sites[0].Host].Name
	support := fx.u.Hosts[fx.u.Sites[0].Support[0]].Name
	if _, err := ext.ReportContext(ctx, 10_000_000, []string{site, support}); err != nil {
		t.Fatalf("report: %v", err)
	}
	root.End()
	traceID := root.TraceIDString()

	// Push the client half so the server-side trace is complete.
	var clientSpans []tracer.SpanData
	for _, tj := range cliTr.Traces() {
		clientSpans = append(clientSpans, tj.Spans...)
	}
	if err := ext.PushTrace(context.Background(), clientSpans); err != nil {
		t.Fatalf("push trace: %v", err)
	}

	// The merged trace must be readable over HTTP, not just in memory.
	resp, err := http.Get(fx.srv.URL + "/debug/traces?trace=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces?trace=%s → %d: %s", traceID, resp.StatusCode, raw)
	}

	got, ok := srvTr.TraceByID(traceID)
	if !ok {
		t.Fatalf("server did not retain trace %s", traceID)
	}
	names := map[string]string{} // span name → service
	for _, sd := range got.Spans {
		if sd.TraceID != traceID {
			t.Fatalf("span %s carries trace %s, want %s", sd.Name, sd.TraceID, traceID)
		}
		names[sd.Name] = sd.Service
	}
	for span, svc := range map[string]string{
		"cli.report":    "hostprof-cli",
		"client.report": "hostprof-cli",
		"http.report":   "hostprof-serve",
		"http.retrain":  "hostprof-serve",
		"store.ingest":  "hostprof-serve",
		"store.session": "hostprof-serve",
		"profile":       "hostprof-serve",
		"ads.select":    "hostprof-serve",
		"train.retrain": "hostprof-serve",
	} {
		if names[span] != svc {
			t.Errorf("trace missing span %s (service %s); spans: %v", span, svc, names)
		}
	}

	// The same trace exports as Chrome trace-event JSON.
	resp, err = http.Get(fx.srv.URL + "/debug/traces?trace=" + traceID + "&format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(raw, []byte(`"traceEvents"`)) || !bytes.Contains(raw, []byte(`"ph":"X"`)) {
		t.Fatalf("chrome export malformed: %s", raw[:min(len(raw), 200)])
	}
}

// TestSlowRequestLog: a request over the SlowRequest threshold emits
// exactly one structured warning carrying the trace ID, endpoint and
// per-stage breakdown.
func TestSlowRequestLog(t *testing.T) {
	reg := obs.NewRegistry()
	srvTr := tracer.New(tracer.Config{Service: "hostprof-serve", SampleRate: 1, BufferTraces: 8, Seed: 5})
	var logBuf bytes.Buffer
	fx := newResilienceFixture(t, func(cfg *Config) {
		cfg.Metrics = reg
		cfg.Tracer = srvTr
		cfg.SlowRequest = time.Nanosecond // every request is "slow"
		cfg.Logger = slog.New(tracer.WithTraceIDs(slog.NewJSONHandler(&logBuf, nil)))
	})
	seedVisits(t, fx)
	if err := fx.b.Retrain(); err != nil {
		t.Fatalf("retrain: %v", err)
	}
	logBuf.Reset() // drop retrain logs; we want the request warning

	site := fx.u.Hosts[fx.u.Sites[0].Host].Name
	ext := &Extension{BaseURL: fx.srv.URL, User: 0}
	if _, err := ext.Report(10_000_000, []string{site}); err != nil {
		t.Fatalf("report: %v", err)
	}

	out := logBuf.String()
	if !strings.Contains(out, `"msg":"slow request"`) {
		t.Fatalf("no slow-request warning in log: %s", out)
	}
	for _, want := range []string{`"level":"WARN"`, `"endpoint":"report"`, `"trace_id":"`, `"stages":"store.ingest=`} {
		if !strings.Contains(out, want) {
			t.Errorf("slow-request log missing %s: %s", want, out)
		}
	}
}

// TestLatencyExemplarScrape: after a traced request, an OpenMetrics
// scrape of /metrics carries the request's trace ID as an exemplar on
// the latency histogram.
func TestLatencyExemplarScrape(t *testing.T) {
	reg := obs.NewRegistry()
	srvTr := tracer.New(tracer.Config{Service: "hostprof-serve", SampleRate: 1, BufferTraces: 8, Metrics: reg, Seed: 6})
	fx := newResilienceFixture(t, func(cfg *Config) {
		cfg.Metrics = reg
		cfg.Tracer = srvTr
		cfg.SlowRequest = -1
	})

	cliTr := tracer.New(tracer.Config{Service: "hostprof-cli", SampleRate: 1, BufferTraces: 8, Seed: 7})
	ext := &Extension{BaseURL: fx.srv.URL, User: 0, Tracer: cliTr}
	ctx, root := cliTr.StartSpan(context.Background(), "cli.report")
	// Untrained backend: 503 is fine, the latency histogram observes it
	// either way.
	ext.ReportContext(ctx, 1, []string{"a.example"})
	root.End()

	req, _ := http.NewRequest("GET", fx.srv.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := fmt.Sprintf(`# {trace_id="%s"}`, root.TraceIDString())
	if !bytes.Contains(body, []byte(want)) {
		t.Fatalf("scrape missing exemplar %s in:\n%s", want, body)
	}
	if !bytes.HasSuffix(body, []byte("# EOF\n")) {
		t.Fatal("OpenMetrics scrape missing # EOF")
	}
}

// newBenchBackend builds a small trained backend for the report-path
// benchmarks.
func newBenchBackend(b *testing.B, tr *tracer.Tracer) (*Backend, []string) {
	b.Helper()
	u := synth.NewUniverse(synth.UniverseConfig{Sites: 100, Trackers: 15, Seed: 3})
	ont := synth.BuildOntology(u, synth.OntologyConfig{Coverage: 0.2, Seed: 5})
	db := ads.BuildFromOntology(ont, ads.BuildConfig{Seed: 7})
	bk, err := New(Config{
		Ontology:    ont,
		AdDB:        db,
		Train:       core.TrainConfig{Dim: 16, Epochs: 2, MinCount: 1, Seed: 11, Subsample: -1},
		Profile:     core.ProfilerConfig{N: 30, Agg: core.AggIDF},
		Tracer:      tr,
		SlowRequest: -1,
		Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		b.Fatal(err)
	}
	pop := synth.NewPopulation(u, synth.PopulationConfig{Users: 8, Days: 2, Seed: 13})
	for _, v := range pop.Browse().Visits() {
		if err := bk.store.Append(trace.Visit{User: v.User, Time: v.Time, Host: v.Host}); err != nil {
			b.Fatal(err)
		}
	}
	if err := bk.Retrain(); err != nil {
		b.Fatal(err)
	}
	hosts := []string{u.Hosts[u.Sites[0].Host].Name, u.Hosts[u.Sites[0].Support[0]].Name}
	return bk, hosts
}

// BenchmarkReportIngest compares the full report path traced (rate 1)
// against untraced (nil tracer) — the difference is the tracer's
// per-request cost; the untraced variant is the zero-overhead baseline
// the cost contract promises.
func BenchmarkReportIngest(b *testing.B) {
	b.Run("untraced", func(b *testing.B) {
		bk, hosts := newBenchBackend(b, nil)
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := bk.report(ctx, 0, int64(20_000_000+i), hosts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("traced", func(b *testing.B) {
		tr := tracer.New(tracer.Config{Service: "bench", SampleRate: 1, BufferTraces: 16, Seed: 9})
		bk, hosts := newBenchBackend(b, tr)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctx, sp := tr.StartSpan(context.Background(), "http.report")
			if _, err := bk.report(ctx, 0, int64(20_000_000+i), hosts); err != nil {
				b.Fatal(err)
			}
			sp.End()
		}
	})
	b.Run("disabled", func(b *testing.B) {
		// Tracer constructed but sampling off: the cost must collapse to
		// nil checks.
		tr := tracer.New(tracer.Config{Service: "bench", SampleRate: 0})
		bk, hosts := newBenchBackend(b, tr)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctx, sp := tr.StartSpan(context.Background(), "http.report")
			if _, err := bk.report(ctx, 0, int64(20_000_000+i), hosts); err != nil {
				b.Fatal(err)
			}
			sp.End()
		}
	})
}
