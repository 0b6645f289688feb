package prof

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"hostprof/internal/obs"
)

// --- Quantiles from histogram counts -----------------------------------

// fineBuckets give the estimator enough resolution that interpolation
// error stays well under the assertion tolerances below.
var fineBuckets = func() []float64 {
	var b []float64
	for v := 0.01; v <= 10.001; v += 0.01 {
		b = append(b, v)
	}
	return b
}()

// histogram observes values into a fresh registry histogram over
// buckets and returns it.
func histogram(buckets []float64, values ...float64) *obs.Histogram {
	h := obs.NewRegistry().Histogram("h", buckets)
	for _, v := range values {
		h.Observe(v)
	}
	return h
}

// quantile is EstimateQuantile over everything h has seen.
func quantile(h *obs.Histogram, q float64) float64 {
	return EstimateQuantile(h.Buckets(), h.BucketCounts(nil), h.Count(), q)
}

func TestQuantileUniform(t *testing.T) {
	// Uniform on (0, 10]: quantile q should be ~10q.
	h := histogram(fineBuckets)
	for i := 1; i <= 10000; i++ {
		h.Observe(float64(i) / 1000.0)
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.9, 0.99} {
		got := quantile(h, q)
		want := 10 * q
		if math.Abs(got-want) > 0.05 {
			t.Errorf("uniform q=%.2f: got %.4f want %.4f", q, got, want)
		}
	}
}

func TestQuantileBimodal(t *testing.T) {
	// 90% fast (~50ms), 10% slow (~5s): p50 must sit in the fast mode,
	// p99 in the slow mode.
	h := histogram(fineBuckets)
	for i := 0; i < 900; i++ {
		h.Observe(0.05)
	}
	for i := 0; i < 100; i++ {
		h.Observe(5.0)
	}
	if p50 := quantile(h, 0.5); p50 > 0.1 {
		t.Errorf("p50 = %.3f, want <= 0.1", p50)
	}
	if p99 := quantile(h, 0.99); p99 < 4.5 {
		t.Errorf("p99 = %.3f, want >= 4.5", p99)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	h := histogram(nil)
	if got := quantile(h, 0.5); !math.IsNaN(got) {
		t.Errorf("empty histogram: got %v, want NaN", got)
	}
	h.Observe(0.3)
	if got := quantile(h, -0.1); !math.IsNaN(got) {
		t.Errorf("q<0: got %v, want NaN", got)
	}
	if got := quantile(h, 1.1); !math.IsNaN(got) {
		t.Errorf("q>1: got %v, want NaN", got)
	}
	if got := EstimateQuantile(h.Buckets(), []int64{1}, 1, 0.5); !math.IsNaN(got) {
		t.Errorf("counts misaligned with bounds: got %v, want NaN", got)
	}
	if got := EstimateQuantile(nil, nil, 0, 0.5); !math.IsNaN(got) {
		t.Errorf("no buckets: got %v, want NaN", got)
	}
}

func TestQuantileMerge(t *testing.T) {
	// Quantiles over merged count vectors must match a single histogram
	// that saw the union of the observations.
	a, b, all := histogram(fineBuckets), histogram(fineBuckets), histogram(fineBuckets)
	for i := 1; i <= 1000; i++ {
		v := float64(i) / 200.0
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		all.Observe(v)
	}
	merged := a.BucketCounts(nil)
	for i, c := range b.BucketCounts(nil) {
		merged[i] += c
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got := EstimateQuantile(a.Buckets(), merged, a.Count()+b.Count(), q)
		want := quantile(all, q)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("merged q=%.2f: got %v want %v", q, got, want)
		}
	}
}

func TestCountAboveExactAtBound(t *testing.T) {
	h := histogram([]float64{0.1, 0.25, 0.5}, 0.05, 0.1, 0.25, 0.26, 0.7, 3)
	// Values equal to the bound are not "above" it.
	if above := countAbove(h.Buckets(), h.BucketCounts(nil), 0.25); above != 3 {
		t.Fatalf("countAbove(0.25) = %d, want 3", above)
	}
	// Off a bound, the covering bucket (0.25, 0.5] counts as above.
	if above := countAbove(h.Buckets(), h.BucketCounts(nil), 0.3); above != 3 {
		t.Fatalf("countAbove(0.3) = %d, want 3", above)
	}
}

func TestNilProfilerZeroAlloc(t *testing.T) {
	// The disabled path — nil SLO, nil slow log — must not allocate on
	// the request path, matching the tracer's contract.
	var s *SLO
	var l *SlowLog
	now := time.Now()
	allocs := testing.AllocsPerRun(1000, func() {
		s.Mark(now)
		l.Add(SlowEntry{})
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %.1f/op, want 0", allocs)
	}
}

// --- SLO tracker --------------------------------------------------------

// observe serves one request of the given latency the way the handler
// wrapper does: Mark at arrival, then the served histogram.
func observe(s *SLO, at time.Time, seconds float64) {
	s.Mark(at)
	s.hist.Observe(seconds)
}

func newTracker(reg *obs.Registry, targets map[string]time.Duration) *SLOTracker {
	return NewSLOTracker("hostprof_slo", "hostprof_http_request_seconds", targets, reg)
}

func TestSLOBurnRate(t *testing.T) {
	reg := obs.NewRegistry()
	tr := newTracker(reg, map[string]time.Duration{"report": 100 * time.Millisecond})
	s := tr.Get("report")
	// 95 fast, 5 slow → breach ratio 5%, burn rate 5 against the 1%
	// budget.
	for i := 0; i < 95; i++ {
		observe(s, time.Now(), 0.010)
	}
	for i := 0; i < 5; i++ {
		observe(s, time.Now(), 0.500)
	}
	st := s.Status()
	if st.WindowRequests != 100 {
		t.Fatalf("window requests = %d", st.WindowRequests)
	}
	if math.Abs(st.BreachRatio-0.05) > 1e-9 {
		t.Fatalf("breach ratio = %v", st.BreachRatio)
	}
	if math.Abs(st.BurnRate-5.0) > 1e-9 {
		t.Fatalf("burn rate = %v", st.BurnRate)
	}
	if st.P50 > 0.1 || st.P99 < 0.1 {
		t.Fatalf("quantiles p50=%v p99=%v", st.P50, st.P99)
	}
	// The gauges exist and agree.
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `hostprof_slo_burn_rate{endpoint="report"} 5`) {
		t.Fatalf("burn-rate gauge missing:\n%s", out)
	}
	if !strings.Contains(out, `hostprof_slo_target_seconds{endpoint="report"} 0.1`) {
		t.Fatalf("target gauge missing:\n%s", out)
	}
}

func TestSLOExactBoundarySemantics(t *testing.T) {
	tr := newTracker(obs.NewRegistry(), map[string]time.Duration{"report": 250 * time.Millisecond})
	s := tr.Get("report")
	observe(s, time.Now(), 0.250) // exactly on target: within SLO
	observe(s, time.Now(), 0.251) // breach
	st := s.Status()
	if math.Abs(st.BreachRatio-0.5) > 1e-9 {
		t.Fatalf("breach ratio = %v, want 0.5 (exact-boundary sample must not breach)", st.BreachRatio)
	}
}

// TestSLOWindowDecay walks a fake clock slice by slice: requests count
// while the slice they arrived in is inside the five-minute window and
// expire, slice-granular, once it leaves.
func TestSLOWindowDecay(t *testing.T) {
	tr := newTracker(obs.NewRegistry(), map[string]time.Duration{"report": 2 * time.Second})
	s := tr.Get("report")
	slice := int64(sloSlice)
	clock := 1000 * slice // the start of a slice
	at := func() time.Time { return time.Unix(0, clock) }
	window := func() int64 { return s.statusAt(clock).WindowRequests }

	if n := window(); n != 0 {
		t.Fatalf("fresh window holds %d requests", n)
	}
	for i := 0; i < 100; i++ {
		observe(s, at(), 1.0)
	}
	if n := window(); n != 100 {
		t.Fatalf("count = %d, want 100", n)
	}
	// Two slices on: the first batch is still inside the window.
	clock += 2 * slice
	for i := 0; i < 100; i++ {
		observe(s, at(), 9.0)
	}
	if n := window(); n != 200 {
		t.Fatalf("mid-window count = %d, want 200", n)
	}
	if st := s.statusAt(clock); st.BreachRatio != 0.5 || st.P50 < 0.9 || st.P50 > 9.1 {
		t.Fatalf("mixed window: breach %v p50 %.3f", st.BreachRatio, st.P50)
	}
	// The first batch's slice is the window's oldest until its last
	// nanosecond, and gone one nanosecond later.
	clock += (sloSlices-2)*slice - 1
	if n := window(); n != 200 {
		t.Fatalf("count at the first slice's last instant = %d, want 200", n)
	}
	clock++
	if n := window(); n != 100 {
		t.Fatalf("post-decay count = %d, want 100", n)
	}
	if st := s.statusAt(clock); st.BreachRatio != 1 || st.P50 < 5 {
		t.Fatalf("post-decay window: breach %v p50 %.3f, want only the 9 s batch", st.BreachRatio, st.P50)
	}
	// A full window after the second batch everything is gone, and a
	// new request starts a fresh window.
	clock += 2 * slice
	if n := window(); n != 0 {
		t.Fatalf("expired count = %d, want 0", n)
	}
	observe(s, at(), 0.5)
	if st := s.statusAt(clock); st.WindowRequests != 1 || st.BreachRatio != 0 {
		t.Fatalf("fresh window = %+v, want one request within target", st)
	}
	// A request whose arrival predates the newest baseline (it was
	// scheduled late) lands in the current slice rather than reopening
	// an old one.
	observe(s, time.Unix(0, clock-5*slice), 0.5)
	if n := window(); n != 2 {
		t.Fatalf("late arrival: count = %d, want 2", n)
	}
}

func TestSLOTrackerNilAndStatus(t *testing.T) {
	var tr *SLOTracker
	if tr.Get("x") != nil || tr.Status() != nil {
		t.Fatal("nil tracker not inert")
	}
	if !slices.Equal(tr.Buckets(), defaultSLOBuckets) {
		t.Fatalf("nil tracker buckets = %v, want the defaults", tr.Buckets())
	}
	reg := obs.NewRegistry()
	if newTracker(reg, map[string]time.Duration{"b": 0}) != nil {
		t.Fatal("non-positive target should not build a tracker")
	}
	if newTracker(nil, map[string]time.Duration{"b": time.Second}) != nil {
		t.Fatal("a tracker without a registry has no histogram to read")
	}
	real := newTracker(reg, map[string]time.Duration{"b": time.Second, "a": 300 * time.Millisecond, "c": -1})
	st := real.Status()
	if len(st) != 2 || st[0].Endpoint != "a" || st[1].Endpoint != "b" {
		t.Fatalf("status order = %+v", st)
	}
	if real.Get("c") != nil {
		t.Fatal("non-positive target registered an SLO")
	}
	// One layout for the family: the defaults plus every target.
	want := append(slices.Clone(defaultSLOBuckets), 0.3)
	slices.Sort(want)
	if !slices.Equal(real.Buckets(), want) {
		t.Fatalf("buckets = %v, want %v", real.Buckets(), want)
	}
	// Each SLO reads the served histogram, created with that layout.
	served := reg.Histogram("hostprof_http_request_seconds", nil, obs.L("endpoint", "a"))
	if real.Get("a").hist != served || !slices.Equal(served.Buckets(), want) {
		t.Fatalf("SLO does not read the served histogram (bounds %v)", served.Buckets())
	}
	var nilSLO *SLO
	nilSLO.Mark(time.Now())
	if got := nilSLO.Status(); got.WindowRequests != 0 {
		t.Fatal("nil SLO not inert")
	}
}

// --- statusz + slow log ---------------------------------------------

func TestStatuszRendering(t *testing.T) {
	s := NewStatusz()
	s.Section("slo", func() any {
		return []SLOStatus{{Endpoint: "report", TargetSeconds: 0.25, BurnRate: 2.5}}
	})
	s.Section("store", func() any { return map[string]any{"degraded": false} })
	// Replacing a section keeps its position and does not duplicate.
	s.Section("store", func() any { return map[string]any{"degraded": true} })

	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/statusz?format=json", nil))
	var page map[string]json.RawMessage
	if err := json.Unmarshal(rr.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if len(page) != 3 {
		t.Fatalf("sections = %d, want 3 (build, slo, store)", len(page))
	}
	if _, ok := page["build"]; !ok {
		t.Fatal("build section missing")
	}
	var store map[string]bool
	if err := json.Unmarshal(page["store"], &store); err != nil {
		t.Fatal(err)
	}
	if !store["degraded"] {
		t.Fatal("section replacement did not take")
	}

	rr = httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/statusz", nil))
	html := rr.Body.String()
	for _, want := range []string{"<h2>build</h2>", "<h2>slo</h2>", "<h2>store</h2>", "go_version", "burn_rate"} {
		if !strings.Contains(html, want) {
			t.Fatalf("HTML statusz missing %q:\n%s", want, html)
		}
	}
	if idx := strings.Index(html, "<h2>slo</h2>"); idx > strings.Index(html, "<h2>store</h2>") {
		t.Fatal("sections out of registration order")
	}

	var nilS *Statusz
	nilS.Section("x", func() any { return nil })
	rr = httptest.NewRecorder()
	nilS.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/statusz", nil))
	if rr.Code != 404 {
		t.Fatalf("nil statusz code = %d", rr.Code)
	}
}

func TestSlowLog(t *testing.T) {
	l := NewSlowLog(2)
	l.Add(SlowEntry{Endpoint: "a", Seconds: 1})
	l.Add(SlowEntry{Endpoint: "b", Seconds: 2})
	l.Add(SlowEntry{Endpoint: "c", Seconds: 3})
	got := l.Snapshot()
	if len(got) != 2 || got[0].Endpoint != "c" || got[1].Endpoint != "b" {
		t.Fatalf("slow log = %+v", got)
	}
	if got[0].UnixNano == 0 {
		t.Fatal("timestamp not stamped")
	}
}
