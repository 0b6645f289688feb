package server

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"hostprof/internal/obs"
)

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

// sampleLine matches one non-comment line of the text exposition format.
var sampleLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\\n])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\\n])*")*\})? (NaN|[+-]?Inf|[+-]?[0-9].*)$`)

// TestObservabilityEndpoints drives the full report → retrain → report →
// feedback flow and then scrapes /metrics, /varz and /healthz,
// asserting the exposition is well-formed and covers every subsystem.
func TestObservabilityEndpoints(t *testing.T) {
	fx := newBackendFixture(t)

	// Liveness holds from the first request; readiness flips only once
	// the model is trained.
	if code, body, _ := get(t, fx.srv.URL+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz (liveness) before training: %d %q", code, body)
	}
	if code, body, _ := get(t, fx.srv.URL+"/readyz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, `"trained":false`) {
		t.Fatalf("readyz before training: %d %q", code, body)
	}

	fx.feedVisits(t)
	ext := &Extension{BaseURL: fx.srv.URL, User: 0}
	if err := ext.Retrain(); err != nil {
		t.Fatal(err)
	}
	if code, body, _ := get(t, fx.srv.URL+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz after training: %d %q", code, body)
	}
	code, body, _ := get(t, fx.srv.URL+"/readyz")
	if code != http.StatusOK {
		t.Fatalf("readyz after training: %d %q", code, body)
	}
	var rd Readiness
	if err := json.Unmarshal([]byte(body), &rd); err != nil {
		t.Fatalf("readyz body: %v", err)
	}
	if !rd.Ready || !rd.Trained || rd.StoreDegraded || rd.ModelVersion == "" || rd.Visits == 0 {
		t.Fatalf("readyz body after training: %+v", rd)
	}
	fx.feedVisits(t) // now served by a trained model → profiles run
	if err := ext.feedback(1, "eavesdropper", true); err != nil {
		t.Fatal(err)
	}
	if err := ext.feedback(2, "original", false); err != nil {
		t.Fatal(err)
	}

	code, body, hdr := get(t, fx.srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content-type %q", ct)
	}
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Fatalf("invalid exposition line %q", line)
		}
	}
	// One metric per wired subsystem: HTTP layer, ingest, retrain,
	// profiling, campaign, store.
	for _, want := range []string{
		`hostprof_http_requests_total{code="200",endpoint="report"}`,
		`hostprof_http_requests_total{code="204",endpoint="retrain"}`,
		`hostprof_http_request_seconds_bucket{endpoint="report",le="+Inf"}`,
		"hostprof_reports_total",
		"hostprof_report_hosts_total",
		"hostprof_retrain_seconds_count 1",
		"hostprof_train_epoch_seconds_count 4",
		"hostprof_train_epoch_loss",
		"hostprof_profile_seconds_count",
		`hostprof_campaign_impressions{source="eavesdropper"} 1`,
		`hostprof_campaign_clicks{source="eavesdropper"} 1`,
		`hostprof_campaign_impressions{source="original"} 1`,
		"hostprof_store_visits",
		"hostprof_model_trained 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}

	// Histogram bucket series must be monotone and end at +Inf == count.
	bucketRE := regexp.MustCompile(`hostprof_http_request_seconds_bucket\{endpoint="report",le="([^"]+)"\} (\d+)`)
	prev := int64(-1)
	n := 0
	for _, m := range bucketRE.FindAllStringSubmatch(body, -1) {
		c, _ := strconv.ParseInt(m[2], 10, 64)
		if c < prev {
			t.Fatalf("bucket counts decreased: %s", m[0])
		}
		prev = c
		n++
	}
	if n < 2 || prev == 0 {
		t.Fatalf("report latency histogram empty or truncated (%d buckets, last %d)", n, prev)
	}

	code, body, hdr = get(t, fx.srv.URL+"/varz")
	if code != http.StatusOK || hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("varz: %d %q", code, hdr.Get("Content-Type"))
	}
	var snap []obs.MetricSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("varz not valid JSON: %v", err)
	}
	found := false
	for _, m := range snap {
		if m.Name == "hostprof_retrain_seconds" && m.Kind == "histogram" && m.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("varz missing retrain histogram: %s", body)
	}
}

// TestCampaignStatsAccessor checks the typed snapshot matches what the
// HTTP stats endpoint reports, without going through HTTP.
func TestCampaignStatsAccessor(t *testing.T) {
	fx := newBackendFixture(t)
	for i := 0; i < 4; i++ {
		fx.b.observeImpression("eavesdropper", i%2 == 0)
	}
	fx.b.observeImpression("original", false)
	cs := fx.b.CampaignStats()
	if cs.Impressions["eavesdropper"] != 4 || cs.Clicks["eavesdropper"] != 2 {
		t.Fatalf("campaign stats: %+v", cs)
	}
	if cs.CTRPercent["eavesdropper"] != 50 {
		t.Fatalf("ctr: %+v", cs.CTRPercent)
	}
	if cs.Impressions["original"] != 1 || cs.Clicks["original"] != 0 {
		t.Fatalf("campaign stats: %+v", cs)
	}
	// The typed snapshot and the wire Stats must agree.
	ws := fx.b.CurrentStats()
	if ws.Impressions["eavesdropper"] != cs.Impressions["eavesdropper"] ||
		ws.CTRPercent["eavesdropper"] != cs.CTRPercent["eavesdropper"] {
		t.Fatalf("CurrentStats diverges: %+v vs %+v", ws, cs)
	}
	// Mutating the snapshot must not touch backend state.
	cs.Impressions["eavesdropper"] = 99
	if fx.b.CampaignStats().Impressions["eavesdropper"] != 4 {
		t.Fatal("snapshot aliases backend maps")
	}
}

// TestSharedRegistryAcrossLayers wires one registry through both an
// observer-facing config and the backend, as hostprof serve does, and
// checks both export into it without colliding.
func TestSharedRegistryAcrossLayers(t *testing.T) {
	reg := obs.NewRegistry()
	fx := newBackendFixtureWith(t, reg)
	fx.feedVisits(t)
	ext := &Extension{BaseURL: fx.srv.URL, User: 0}
	if err := ext.Retrain(); err != nil {
		t.Fatal(err)
	}
	if got := fx.b.Metrics(); got != reg {
		t.Fatal("Metrics() must return the configured registry")
	}
	if reg.Histogram("hostprof_retrain_seconds", nil).Count() != 1 {
		t.Fatal("retrain not visible in shared registry")
	}
}
