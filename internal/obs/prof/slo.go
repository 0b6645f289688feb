package prof

import (
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hostprof/internal/obs"
)

// sloObjective is the availability objective every endpoint SLO uses:
// 99% of windowed requests must finish under the endpoint's latency
// target, leaving a 1% error budget for the burn rate to be measured
// against.
const sloObjective = 0.99

// Every SLO measures over a five-minute sliding window expiring in
// 15-second slices: the window is the current slice and the
// sloSlices-1 before it.
const (
	sloSlice  = 15 * time.Second
	sloSlices = int64(5 * time.Minute / sloSlice)
)

// An SLO tracks one endpoint against a latency target over a sliding
// window: the fraction of requests breaching the target, the burn rate
// of the 1% error budget, and the windowed latency quantiles.
//
// It keeps no histogram of its own: it reads the endpoint's request
// latency histogram, the one the handler wrapper observes. The first
// request of each slice records a baseline, the histogram's bucket
// counts at that moment, in a ring of one baseline per slice. The
// window's counts are the live counts minus the oldest baseline still
// inside the window, so expiry is slice-granular and resolution is the
// histogram's buckets, of which the target is one.
//
// All methods are safe for concurrent use and on a nil receiver (the
// disabled state).
type SLO struct {
	endpoint string
	target   float64 // seconds
	hist     *obs.Histogram

	epoch atomic.Int64 // newest slice holding a baseline

	mu     sync.Mutex
	epochs [sloSlices]int64   // slice each baseline belongs to; -1 empty
	base   [sloSlices][]int64 // histogram bucket counts at the slice's first request
}

func newSLO(endpoint string, target float64, hist *obs.Histogram) *SLO {
	s := &SLO{endpoint: endpoint, target: target, hist: hist}
	s.epoch.Store(-1)
	for i := range s.epochs {
		s.epochs[i] = -1
		s.base[i] = make([]int64, 0, len(hist.Buckets())+1)
	}
	return s
}

// Mark is the SLO's per-request cost: one epoch compare, and for the
// first request of a slice a baseline of the histogram. Call it with
// the request's arrival time, before the request's latency is observed
// into the histogram. Safe on nil — a disabled SLO costs this nil
// check.
func (s *SLO) Mark(arrival time.Time) {
	if s == nil {
		return
	}
	if e := arrival.UnixNano() / int64(sloSlice); e > s.epoch.Load() {
		s.advance(e)
	}
}

// advance records slice e's baseline, unless a request of e or of a
// later slice got there first.
func (s *SLO) advance(e int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e <= s.epoch.Load() {
		return
	}
	i := e % sloSlices
	s.base[i] = s.hist.BucketCounts(s.base[i][:0])
	s.epochs[i] = e
	s.epoch.Store(e)
}

// window returns the non-cumulative bucket counts of the requests
// inside the window ending at now (Unix nanoseconds), and their total.
func (s *SLO) window(now int64) ([]int64, int64) {
	e := now / int64(sloSlice)
	s.mu.Lock()
	defer s.mu.Unlock()
	oldest := -1
	for i, be := range s.epochs {
		if be > e-sloSlices && be <= e && (oldest < 0 || be < s.epochs[oldest]) {
			oldest = i
		}
	}
	if oldest < 0 {
		return nil, 0 // no request arrived inside the window
	}
	counts := s.hist.BucketCounts(nil)
	var total int64
	for i, b := range s.base[oldest] {
		counts[i] -= b
		total += counts[i]
	}
	return counts, total
}

// SLOStatus is one endpoint's point-in-time SLO state, as surfaced on
// /debug/statusz and the hostprof_slo_* gauges.
type SLOStatus struct {
	Endpoint      string  `json:"endpoint"`
	TargetSeconds float64 `json:"target_seconds"`
	Objective     float64 `json:"objective"`
	// WindowRequests is the number of requests inside the sliding
	// window; the remaining fields are meaningless (and zero/NaN-free:
	// reported as zero) when it is 0.
	WindowRequests int64 `json:"window_requests"`
	// BreachRatio is the fraction of windowed requests over target.
	BreachRatio float64 `json:"breach_ratio"`
	// BurnRate is BreachRatio divided by the error budget (1 −
	// objective): 1.0 means the budget is being consumed exactly as
	// fast as it accrues; above 1 the SLO is burning down.
	BurnRate float64 `json:"burn_rate"`
	P50      float64 `json:"p50_seconds"`
	P90      float64 `json:"p90_seconds"`
	P99      float64 `json:"p99_seconds"`
}

// Status snapshots the SLO. Safe on nil (returns the zero value).
func (s *SLO) Status() SLOStatus {
	return s.statusAt(time.Now().UnixNano())
}

func (s *SLO) statusAt(now int64) SLOStatus {
	if s == nil {
		return SLOStatus{}
	}
	st := SLOStatus{
		Endpoint:      s.endpoint,
		TargetSeconds: s.target,
		Objective:     sloObjective,
	}
	counts, total := s.window(now)
	st.WindowRequests = total
	if total == 0 {
		return st
	}
	upper := s.hist.Buckets()
	st.BreachRatio = float64(countAbove(upper, counts, s.target)) / float64(total)
	st.BurnRate = st.BreachRatio / (1 - sloObjective)
	st.P50 = finiteOrZero(EstimateQuantile(upper, counts, total, 0.50))
	st.P90 = finiteOrZero(EstimateQuantile(upper, counts, total, 0.90))
	st.P99 = finiteOrZero(EstimateQuantile(upper, counts, total, 0.99))
	return st
}

// countAbove sums the counts of the buckets above bound: exact when
// bound is one of the upper bounds (a sample equal to it is not above),
// otherwise over the smallest covering bucket.
func countAbove(upper []float64, counts []int64, bound float64) int64 {
	i := sort.SearchFloat64s(upper, bound)
	if i < len(upper) && upper[i] == bound {
		i++
	}
	var above int64
	for ; i < len(counts); i++ {
		above += counts[i]
	}
	return above
}

func finiteOrZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// An SLOTracker owns the per-endpoint SLOs and exports their state as
// <prefix>_* gauges. Its SLOs are fixed at construction. Safe for
// concurrent use and on a nil receiver (no SLOs).
type SLOTracker struct {
	buckets []float64
	slos    map[string]*SLO
}

// NewSLOTracker builds one SLO per endpoint with a positive latency
// target, each reading <family>{endpoint="..."} — the request-latency
// histogram the handler wrapper observes — from reg, and exports their
// state there as gauges named <prefix>_* ("hostprof_slo" for a shard,
// "hostprof_gateway_slo" for the gateway). It creates those histograms
// with Buckets' layout, so every target is an exact bucket bound. It
// returns nil, the disabled tracker, when reg is nil or no target is
// positive.
func NewSLOTracker(prefix, family string, targets map[string]time.Duration, reg *obs.Registry) *SLOTracker {
	t := &SLOTracker{buckets: slices.Clone(defaultSLOBuckets), slos: make(map[string]*SLO)}
	for _, target := range targets {
		if target > 0 {
			t.buckets = append(t.buckets, target.Seconds())
		}
	}
	if reg == nil || len(t.buckets) == len(defaultSLOBuckets) { // no positive target
		return nil
	}
	slices.Sort(t.buckets)
	t.buckets = slices.Compact(t.buckets)

	reg.Describe(prefix+"_target_seconds", "per-endpoint SLO latency target")
	reg.Describe(prefix+"_window_requests", "requests inside the SLO sliding window")
	reg.Describe(prefix+"_breach_ratio", "fraction of windowed requests over the SLO target")
	reg.Describe(prefix+"_burn_rate", "error-budget burn rate: breach ratio / (1 - objective); >1 burns the budget down")
	reg.Describe(prefix+"_latency_seconds", "windowed latency quantile estimates per endpoint")
	for endpoint, target := range targets {
		if target <= 0 {
			continue
		}
		le := obs.L("endpoint", endpoint)
		s := newSLO(endpoint, target.Seconds(), reg.Histogram(family, t.buckets, le))
		t.slos[endpoint] = s
		reg.GaugeFunc(prefix+"_target_seconds", func() float64 { return s.target }, le)
		reg.GaugeFunc(prefix+"_window_requests", func() float64 { return float64(s.Status().WindowRequests) }, le)
		reg.GaugeFunc(prefix+"_breach_ratio", func() float64 { return s.Status().BreachRatio }, le)
		reg.GaugeFunc(prefix+"_burn_rate", func() float64 { return s.Status().BurnRate }, le)
		for _, q := range []struct {
			name string
			q    float64
		}{{"0.5", 0.50}, {"0.9", 0.90}, {"0.99", 0.99}} {
			reg.GaugeFunc(prefix+"_latency_seconds", func() float64 {
				counts, total := s.window(time.Now().UnixNano())
				return finiteOrZero(EstimateQuantile(s.hist.Buckets(), counts, total, q.q))
			}, le, obs.L("quantile", q.name))
		}
	}
	return t
}

// Buckets is the bucket layout of every request-latency histogram in a
// process: defaultSLOBuckets plus each SLO target. Safe on nil
// (defaultSLOBuckets). The slice is shared; do not mutate.
func (t *SLOTracker) Buckets() []float64 {
	if t == nil {
		return defaultSLOBuckets
	}
	return t.buckets
}

// Get returns the SLO for endpoint, or nil. Safe on nil.
func (t *SLOTracker) Get(endpoint string) *SLO {
	if t == nil {
		return nil
	}
	return t.slos[endpoint]
}

// Status snapshots every SLO, sorted by endpoint. Safe on nil (returns
// nil).
func (t *SLOTracker) Status() []SLOStatus {
	if t == nil {
		return nil
	}
	out := make([]SLOStatus, 0, len(t.slos))
	for _, s := range t.slos {
		out = append(out, s.Status())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Endpoint < out[j].Endpoint })
	return out
}

// defaultSLOBuckets are the request-latency bounds, a denser low end
// than obs.DefBuckets because SLO targets live in the milliseconds.
var defaultSLOBuckets = []float64{
	.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}
