package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", L("code", "200"))
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("requests_total", L("code", "200")); again != c {
		t.Fatal("get-or-create returned a different handle")
	}
	if other := r.Counter("requests_total", L("code", "500")); other == c {
		t.Fatal("distinct label values share a handle")
	}

	g := r.Gauge("temperature")
	g.Set(20)
	g.Add(2.5)
	if got := g.Value(); got != 22.5 {
		t.Fatalf("gauge = %v, want 22.5", got)
	}
}

func TestLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("m", L("x", "1"), L("y", "2"))
	b := r.Counter("m", L("y", "2"), L("x", "1"))
	if a != b {
		t.Fatal("label order changed metric identity")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	g := r.Gauge("y")
	g.Set(1)
	h := r.Histogram("z", nil)
	h.Observe(1)
	r.GaugeFunc("f", func() float64 { return 1 })
	r.Describe("x", "help")
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry exposition: %q err %v", sb.String(), err)
	}
	if snap := r.Snapshot(); len(snap) != 0 {
		t.Fatalf("nil registry snapshot: %v", snap)
	}
	var sp Span
	if sp.End() != 0 {
		t.Fatal("zero span must be a no-op")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("m")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 106 {
		t.Fatalf("sum = %v, want 106", h.Sum())
	}
	// Bucket semantics are le (<=): 1 lands in le=1, 100 only in +Inf.
	want := []int64{2, 3, 4} // cumulative per bound
	var cum int64
	for i := range h.upper {
		cum += h.counts[i].Load()
		if cum != want[i] {
			t.Fatalf("bucket le=%v cumulative = %d, want %d", h.upper[i], cum, want[i])
		}
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	if len(b) != len(want) {
		t.Fatalf("buckets = %v", b)
	}
	for i := range b {
		if diff := b[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("buckets = %v, want %v", b, want)
		}
	}
	if ExpBuckets(0, 10, 4) != nil || ExpBuckets(1, 1, 4) != nil || ExpBuckets(1, 10, 0) != nil {
		t.Fatal("degenerate ExpBuckets inputs must return nil")
	}
}

func TestSpanObserves(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("op_seconds", DefBuckets)
	sp := StartSpan(h)
	time.Sleep(time.Millisecond)
	if d := sp.End(); d <= 0 {
		t.Fatalf("span duration = %v", d)
	}
	if h.Count() != 1 || h.Sum() <= 0 {
		t.Fatalf("histogram after spans: count=%d sum=%v", h.Count(), h.Sum())
	}
}

// TestConcurrentRegistry exercises creation, updates and scraping from
// many goroutines at once; run under -race.
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("callback", func() float64 {
		// A callback that itself uses the registry must not deadlock
		// (exposition evaluates callbacks outside the registry lock).
		return float64(r.Counter("shared_total").Value())
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("shared_total").Inc()
				r.Counter("shared_total", L("worker", string(rune('a'+g)))).Inc()
				r.Gauge("level").Set(float64(i))
				r.Histogram("lat", DefBuckets).Observe(float64(i) / 1000)
				if i%100 == 0 {
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Error(err)
						return
					}
					r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("shared_total").Value(); got != 8*500 {
		t.Fatalf("shared counter = %d, want %d", got, 8*500)
	}
	if got := r.Histogram("lat", nil).Count(); got != 8*500 {
		t.Fatalf("histogram count = %d, want %d", got, 8*500)
	}
}
