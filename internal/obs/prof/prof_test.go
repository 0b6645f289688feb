package prof

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hostprof/internal/obs"
)

// --- Windowed quantiles -------------------------------------------------

// fineBuckets give the estimator enough resolution that interpolation
// error stays well under the assertion tolerances below.
var fineBuckets = func() []float64 {
	var b []float64
	for v := 0.01; v <= 10.001; v += 0.01 {
		b = append(b, v)
	}
	return b
}()

func TestQuantileUniform(t *testing.T) {
	w := NewWindowed(time.Minute, 4, fineBuckets)
	// Uniform on (0, 10]: quantile q should be ~10q.
	for i := 1; i <= 10000; i++ {
		w.Observe(float64(i) / 1000.0)
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.9, 0.99} {
		got := w.Quantile(q)
		want := 10 * q
		if math.Abs(got-want) > 0.05 {
			t.Errorf("uniform q=%.2f: got %.4f want %.4f", q, got, want)
		}
	}
}

func TestQuantileBimodal(t *testing.T) {
	w := NewWindowed(time.Minute, 4, fineBuckets)
	// 90% fast (~50ms), 10% slow (~5s): p50 must sit in the fast mode,
	// p99 in the slow mode.
	for i := 0; i < 900; i++ {
		w.Observe(0.05)
	}
	for i := 0; i < 100; i++ {
		w.Observe(5.0)
	}
	if p50 := w.Quantile(0.5); p50 > 0.1 {
		t.Errorf("p50 = %.3f, want <= 0.1", p50)
	}
	if p99 := w.Quantile(0.99); p99 < 4.5 {
		t.Errorf("p99 = %.3f, want >= 4.5", p99)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	w := NewWindowed(time.Minute, 4, nil)
	if got := w.Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty window: got %v, want NaN", got)
	}
	w.Observe(0.3)
	if got := w.Quantile(-0.1); !math.IsNaN(got) {
		t.Errorf("q<0: got %v, want NaN", got)
	}
	if got := w.Quantile(1.1); !math.IsNaN(got) {
		t.Errorf("q>1: got %v, want NaN", got)
	}
	var nilW *Windowed
	nilW.Observe(1) // must not panic
	if got := nilW.Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("nil estimator: got %v, want NaN", got)
	}
	if c := nilW.Count(); c != 0 {
		t.Errorf("nil estimator count = %d", c)
	}
}

func TestWindowDecay(t *testing.T) {
	w := NewWindowed(time.Minute, 4, fineBuckets) // 15s slices
	clock := int64(0)
	w.setNow(func() int64 { return clock })
	for i := 0; i < 100; i++ {
		w.Observe(1.0)
	}
	if c := w.Count(); c != 100 {
		t.Fatalf("count = %d, want 100", c)
	}
	// Advance two slices: old samples still inside the window.
	clock += 2 * 15 * int64(time.Second)
	for i := 0; i < 100; i++ {
		w.Observe(9.0)
	}
	if c := w.Count(); c != 200 {
		t.Fatalf("mid-window count = %d, want 200", c)
	}
	if p50 := w.Quantile(0.5); p50 < 0.9 || p50 > 9.1 {
		t.Fatalf("mixed p50 = %.3f", p50)
	}
	// Advance past the window for the first batch only: the 1.0s
	// samples expire, the 9.0s samples remain.
	clock += 3 * 15 * int64(time.Second)
	if c := w.Count(); c != 100 {
		t.Fatalf("post-decay count = %d, want 100", c)
	}
	if p50 := w.Quantile(0.5); math.Abs(p50-9.0) > 0.1 {
		t.Fatalf("post-decay p50 = %.3f, want ~9.0", p50)
	}
	// A full window later everything is gone.
	clock += 5 * 15 * int64(time.Second)
	if c := w.Count(); c != 0 {
		t.Fatalf("expired count = %d, want 0", c)
	}
}

func TestQuantileMerge(t *testing.T) {
	// Quantiles over merged count vectors must match a single estimator
	// that saw the union of the observations.
	a := NewWindowed(time.Minute, 4, fineBuckets)
	b := NewWindowed(time.Minute, 4, fineBuckets)
	all := NewWindowed(time.Minute, 4, fineBuckets)
	for i := 1; i <= 1000; i++ {
		v := float64(i) / 200.0
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		all.Observe(v)
	}
	ca, na := a.Snapshot()
	cb, nb := b.Snapshot()
	merged := make([]int64, len(ca))
	for i := range ca {
		merged[i] = ca[i] + cb[i]
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got := EstimateQuantile(a.Buckets(), merged, na+nb, q)
		want := all.Quantile(q)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("merged q=%.2f: got %v want %v", q, got, want)
		}
	}
}

func TestCountAboveExactAtBound(t *testing.T) {
	w := NewWindowed(time.Minute, 4, []float64{0.1, 0.25, 0.5})
	for _, v := range []float64{0.05, 0.1, 0.25, 0.26, 0.7, 3} {
		w.Observe(v)
	}
	// Values equal to the bound are not "above" it.
	above, total := w.CountAbove(0.25)
	if total != 6 || above != 3 {
		t.Fatalf("CountAbove(0.25) = (%d, %d), want (3, 6)", above, total)
	}
}

func TestNilProfilerZeroAlloc(t *testing.T) {
	// The disabled path — nil SLO, nil slow log — must not allocate on
	// the request path, matching the tracer's contract.
	var s *SLO
	var l *SlowLog
	allocs := testing.AllocsPerRun(1000, func() {
		s.Observe(0.001)
		l.Add(SlowEntry{})
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %.1f/op, want 0", allocs)
	}
}

// --- SLO tracker --------------------------------------------------------

func TestSLOBurnRate(t *testing.T) {
	reg := obs.NewRegistry()
	tr := NewSLOTracker(time.Minute, reg)
	s := tr.Register("report", 100*time.Millisecond)
	// 95 fast, 5 slow → breach ratio 5%, burn rate 5 against the 1%
	// budget.
	for i := 0; i < 95; i++ {
		s.Observe(0.010)
	}
	for i := 0; i < 5; i++ {
		s.Observe(0.500)
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
	tr := NewSLOTracker(time.Minute, nil)
	s := tr.Register("report", 250*time.Millisecond)
	s.Observe(0.250) // exactly on target: within SLO
	s.Observe(0.251) // breach
	st := s.Status()
	if math.Abs(st.BreachRatio-0.5) > 1e-9 {
		t.Fatalf("breach ratio = %v, want 0.5 (exact-boundary sample must not breach)", st.BreachRatio)
	}
}

func TestSLOTrackerNilAndStatus(t *testing.T) {
	var tr *SLOTracker
	if tr.Register("x", time.Second) != nil {
		t.Fatal("nil tracker registered an SLO")
	}
	if tr.Status() != nil || tr.Get("x") != nil {
		t.Fatal("nil tracker not inert")
	}
	real := NewSLOTracker(0, nil)
	if real.Register("b", 0) != nil {
		t.Fatal("non-positive target should not register")
	}
	real.Register("b", time.Second)
	real.Register("a", time.Second)
	if same := real.Register("a", 2*time.Second); same != real.Get("a") {
		t.Fatal("re-register must return the existing SLO")
	}
	st := real.Status()
	if len(st) != 2 || st[0].Endpoint != "a" || st[1].Endpoint != "b" {
		t.Fatalf("status order = %+v", st)
	}
	var nilSLO *SLO
	nilSLO.Observe(1)
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
