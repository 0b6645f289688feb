package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"hostprof/internal/obs"
	"hostprof/internal/obs/prof"
	"hostprof/internal/obs/tracer"
)

// TestSlowRequestProfileLinkage: a request breaching SlowRequest must
// land in the slow log under its trace ID, and that ID must resolve
// through the backend's /debug/traces to the request's span tree — so
// /debug/statusz leads to the stage breakdown that explains the slow
// request.
func TestSlowRequestProfileLinkage(t *testing.T) {
	reg := obs.NewRegistry()
	tr := tracer.New(tracer.Config{Service: "hostprof-serve", SampleRate: 1, BufferTraces: 32, Metrics: reg, Seed: 21})
	fx := newResilienceFixture(t, func(cfg *Config) {
		cfg.Metrics = reg
		cfg.Tracer = tr
		cfg.SlowRequest = time.Nanosecond // everything is slow
	})
	seedVisits(t, fx)

	ext := &Extension{BaseURL: fx.srv.URL, User: 0}
	if err := ext.Retrain(); err != nil {
		t.Fatalf("retrain: %v", err)
	}
	if _, err := ext.Report(40_000_000, []string{"news-0.example.com"}); err != nil {
		t.Fatalf("report: %v", err)
	}

	// The slow log remembers the report with its trace ID.
	var traceID string
	for _, e := range fx.b.mw.SlowLog.Snapshot() {
		if e.Endpoint == "report" && e.TraceID != "" {
			traceID = e.TraceID
		}
	}
	if traceID == "" {
		t.Fatal("slow log holds no traced report")
	}

	// And the ID resolves over the backend handler to the report's span
	// tree, stages included.
	resp, err := http.Get(fx.srv.URL + "/debug/traces?trace=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	var page struct {
		Traces []tracer.TraceJSON `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(page.Traces) != 1 {
		t.Fatalf("/debug/traces?trace= answered %d traces, want 1", len(page.Traces))
	}
	names := map[string]bool{}
	for _, sd := range page.Traces[0].Spans {
		if sd.TraceID != traceID {
			t.Fatalf("span %s carries trace %s, want %s", sd.Name, sd.TraceID, traceID)
		}
		names[sd.Name] = true
	}
	if !names["http.report"] || len(names) < 2 {
		t.Fatalf("trace spans = %v, want the handler span and its stages", names)
	}
}

// TestStatuszEndpoint exercises the aggregated operational view over
// HTTP: build info, SLO state, store status, retrain state and the slow
// log must all render in one page.
func TestStatuszEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	fx := newResilienceFixture(t, func(cfg *Config) {
		cfg.Metrics = reg
		cfg.SLOTargets = map[string]time.Duration{"report": 250 * time.Millisecond}
		cfg.SlowRequest = -1
	})
	seedVisits(t, fx)
	ext := &Extension{BaseURL: fx.srv.URL, User: 0}
	if err := ext.Retrain(); err != nil {
		t.Fatalf("retrain: %v", err)
	}
	if _, err := ext.Report(40_000_000, []string{"news-0.example.com"}); err != nil {
		t.Fatalf("report: %v", err)
	}

	resp, err := http.Get(fx.srv.URL + "/debug/statusz?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	for _, section := range []string{"build", "slo", "store", "retrain", "slow_requests"} {
		if _, ok := page[section]; !ok {
			t.Fatalf("statusz missing section %q (has %v)", section, keys(page))
		}
	}
	var slos []prof.SLOStatus
	if err := json.Unmarshal(page["slo"], &slos); err != nil {
		t.Fatal(err)
	}
	if len(slos) != 1 || slos[0].Endpoint != "report" || slos[0].WindowRequests == 0 {
		t.Fatalf("slo section = %+v", slos)
	}
	var retrain map[string]any
	if err := json.Unmarshal(page["retrain"], &retrain); err != nil {
		t.Fatal(err)
	}
	if retrain["trained"] != true {
		t.Fatalf("retrain section = %v", retrain)
	}

	// HTML rendering too.
	resp, err = http.Get(fx.srv.URL + "/debug/statusz")
	if err != nil {
		t.Fatal(err)
	}
	html, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(html), "<h2>slo</h2>") || !strings.Contains(string(html), "burn_rate") {
		t.Fatal("HTML statusz missing SLO state")
	}
}

func keys(m map[string]json.RawMessage) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestSLOMetricsOnScrape pins the hostprof_slo_* exposition: a target
// every request breaches must burn at the 100x ceiling, a generous one
// must not burn at all.
func TestSLOMetricsOnScrape(t *testing.T) {
	reg := obs.NewRegistry()
	fx := newResilienceFixture(t, func(cfg *Config) {
		cfg.Metrics = reg
		cfg.SLOTargets = map[string]time.Duration{
			"report":  time.Nanosecond, // unmeetable
			"retrain": time.Hour,       // unmissable
		}
		cfg.SlowRequest = -1
	})
	seedVisits(t, fx)
	ext := &Extension{BaseURL: fx.srv.URL, User: 0}
	if err := ext.Retrain(); err != nil {
		t.Fatalf("retrain: %v", err)
	}
	for i := 0; i < 5; i++ {
		if _, err := ext.Report(int64(40_000_000+i), []string{"news-0.example.com"}); err != nil {
			t.Fatalf("report: %v", err)
		}
	}

	resp, err := http.Get(fx.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(body)
	if !strings.Contains(out, `hostprof_slo_burn_rate{endpoint="report"} 100`) {
		t.Fatalf("report burn rate not at ceiling:\n%s", grepLines(out, "hostprof_slo"))
	}
	if !strings.Contains(out, `hostprof_slo_burn_rate{endpoint="retrain"} 0`) {
		t.Fatalf("retrain burn rate not zero:\n%s", grepLines(out, "hostprof_slo"))
	}
	if !strings.Contains(out, `hostprof_slo_latency_seconds{endpoint="report",quantile="0.99"}`) {
		t.Fatal("latency quantile gauges missing")
	}
}

// TestSLOTargetIsServedBucketBound: a target that is no default bound
// (300 ms) becomes a bucket bound of the served
// hostprof_http_request_seconds, in one layout for every endpoint, and
// the SLO reads that very histogram, so a request of exactly the
// target does not breach.
func TestSLOTargetIsServedBucketBound(t *testing.T) {
	reg := obs.NewRegistry()
	fx := newResilienceFixture(t, func(cfg *Config) {
		cfg.Metrics = reg
		cfg.SLOTargets = map[string]time.Duration{"report": 300 * time.Millisecond}
		cfg.SlowRequest = -1
	})
	served := reg.Histogram("hostprof_http_request_seconds", nil, obs.L("endpoint", "report"))
	fx.b.mw.SLOs.Get("report").Mark(time.Now())
	served.Observe((300 * time.Millisecond).Seconds())

	resp, err := http.Get(fx.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(body)
	for _, want := range []string{
		`hostprof_http_request_seconds_bucket{endpoint="report",le="0.25"} 0`,
		`hostprof_http_request_seconds_bucket{endpoint="report",le="0.3"} 1`,
		`hostprof_http_request_seconds_bucket{endpoint="stats",le="0.3"} 0`,
		`hostprof_http_request_seconds_bucket{endpoint="stats",le="0.001"} 0`,
		`hostprof_http_request_seconds_bucket{endpoint="stats",le="0.0025"} 0`,
		`hostprof_slo_window_requests{endpoint="report"} 1`,
		`hostprof_slo_breach_ratio{endpoint="report"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, grepLines(out, `endpoint="report"`))
		}
	}
}

func grepLines(s, substr string) string {
	var sb strings.Builder
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			sb.WriteString(line)
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// BenchmarkReportIngestProfiled extends the tracing cost contract to
// the SLO window: the "slo" variant measures the per-request cost of an
// enabled SLO (one Mark, with the served histogram's Observe), the
// "disabled" variant pins that a nil SLO adds nothing over the
// BenchmarkReportIngest baseline.
func BenchmarkReportIngestProfiled(b *testing.B) {
	b.Run("slo", func(b *testing.B) {
		bk, hosts := newBenchBackend(b, nil)
		reg := obs.NewRegistry()
		slo := prof.NewSLOTracker("hostprof_slo", "hostprof_http_request_seconds",
			map[string]time.Duration{"report": 250 * time.Millisecond}, reg).Get("report")
		lat := reg.Histogram("hostprof_http_request_seconds", nil, obs.L("endpoint", "report"))
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			slo.Mark(start)
			if _, err := bk.report(ctx, 0, int64(30_000_000+i), hosts); err != nil {
				b.Fatal(err)
			}
			lat.Observe(time.Since(start).Seconds())
		}
	})
	b.Run("disabled", func(b *testing.B) {
		bk, hosts := newBenchBackend(b, nil)
		var slo *prof.SLO
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			slo.Mark(time.Now())
			if _, err := bk.report(ctx, 0, int64(30_000_000+i), hosts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
