package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"hostprof/internal/obs"
	"hostprof/internal/obs/prof"
	"hostprof/internal/obs/tracer"
)

// TestSlowRequestProfileLinkage is the profiling-pillar acceptance
// test: a request breaching SlowRequest must yield goroutine+mutex
// captures tagged with its trace ID, the trace's handler span must
// carry the /debug/prof/ link, and the captures must be downloadable
// over the backend handler — so /debug/traces leads to the profile
// that explains the slow request.
func TestSlowRequestProfileLinkage(t *testing.T) {
	reg := obs.NewRegistry()
	tr := tracer.New(tracer.Config{Service: "hostprof-serve", SampleRate: 1, BufferTraces: 32, Metrics: reg, Seed: 21})
	profiler := prof.New(prof.Config{
		Interval:        -1, // trigger captures only
		TriggerCooldown: -1, // every slow request captures
		MutexFraction:   -1,
		BlockRate:       -1,
		Metrics:         reg,
	})
	defer profiler.Stop()
	fx := newResilienceFixture(t, func(cfg *Config) {
		cfg.Metrics = reg
		cfg.Tracer = tr
		cfg.Profiler = profiler
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

	// Find a slow-tagged trace with its profiles attr.
	var traceID, profURL string
	for _, tj := range tr.Traces() {
		for _, sd := range tj.Spans {
			for _, a := range sd.Attrs {
				if a.Key == "profiles" && a.Value != "-" {
					traceID, profURL = sd.TraceID, a.Value
				}
			}
		}
	}
	if traceID == "" {
		t.Fatal("no span carries a profiles attr")
	}
	if want := "/debug/prof/?trace=" + traceID; profURL != want {
		t.Fatalf("profiles attr = %q, want %q", profURL, want)
	}

	// The trigger captured goroutine+mutex under that trace ID.
	caps := profiler.Ring().ByTrace(traceID)
	if len(caps) != 2 {
		t.Fatalf("captures for trace = %d, want 2", len(caps))
	}

	// And they are listed and downloadable through the backend handler.
	resp, err := http.Get(fx.srv.URL + profURL + "&format=json")
	if err != nil {
		t.Fatal(err)
	}
	var idx struct {
		Captures []prof.Capture `json:"captures"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(idx.Captures) != 2 {
		t.Fatalf("handler lists %d captures, want 2", len(idx.Captures))
	}
	resp, err = http.Get(fx.srv.URL + fmt.Sprintf("/debug/prof/%d", idx.Captures[0].ID))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || len(body) < 2 || body[0] != 0x1f || body[1] != 0x8b {
		t.Fatalf("capture download: code=%d len=%d", resp.StatusCode, len(body))
	}

	// The slow log remembers the request with its capture IDs.
	var found bool
	for _, e := range fx.b.mw.SlowLog.Snapshot() {
		if e.TraceID == traceID && len(e.CaptureIDs) == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("slow log does not link the trace to its captures")
	}
}

// TestStatuszEndpoint exercises the aggregated operational view over
// HTTP: build info, SLO state, store status, retrain state, the slow
// log and the profile ring must all render in one page.
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
	for _, section := range []string{"build", "slo", "store", "retrain", "slow_requests", "profile_ring"} {
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
// the profiling pillar: the "slo" variant measures the per-request
// cost of an enabled SLO window (one Observe), the "disabled" variant
// pins that a nil SLO plus a nil profiler add nothing over the
// BenchmarkReportIngest baseline.
func BenchmarkReportIngestProfiled(b *testing.B) {
	b.Run("slo", func(b *testing.B) {
		bk, hosts := newBenchBackend(b, nil)
		slo := prof.NewSLOTracker(time.Minute, nil).Register("report", 250*time.Millisecond)
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			if _, err := bk.report(ctx, 0, int64(30_000_000+i), hosts); err != nil {
				b.Fatal(err)
			}
			slo.Observe(time.Since(start).Seconds())
		}
	})
	b.Run("disabled", func(b *testing.B) {
		bk, hosts := newBenchBackend(b, nil)
		var slo *prof.SLO
		var profiler *prof.Profiler
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			if _, err := bk.report(ctx, 0, int64(30_000_000+i), hosts); err != nil {
				b.Fatal(err)
			}
			slo.Observe(time.Since(start).Seconds())
			_ = profiler.Enabled()
		}
	})
}
