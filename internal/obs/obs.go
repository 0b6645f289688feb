// Package obs is a dependency-free observability layer: a metrics
// registry of atomic counters, gauges and fixed-bucket histograms with
// Prometheus text-format exposition and a JSON snapshot API, plus a
// lightweight span helper for stage latencies.
//
// Design rules:
//
//   - Hot paths pay one atomic op per update. Metric handles are
//     resolved once (a mutex-guarded map lookup) and then updated
//     lock-free; callers are expected to cache handles in struct
//     fields, not to resolve names per event.
//   - Every update method is safe on a nil receiver, and every
//     Registry method is safe on a nil *Registry (returning nil
//     handles), so instrumentation can be wired unconditionally and
//     disabled by simply not providing a registry.
//   - Exposition never invokes callbacks or reads values while holding
//     the registry lock, so a GaugeFunc may itself take locks that are
//     held around registry calls elsewhere.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A Label is one name/value pair attached to a metric.
type Label struct {
	Name, Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// A Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d (negative deltas are ignored: counters only go up). Safe on
// a nil receiver.
func (c *Counter) Add(d int64) {
	if c == nil || d < 0 {
		return
	}
	c.v.Add(d)
}

// Value returns the current count. Safe on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// A Gauge is an arbitrary float64 metric that may go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Safe on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d to the current value. Safe on a nil receiver.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value. Safe on a nil receiver.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// An Exemplar links one histogram observation to the trace that
// produced it, so a slow bucket leads to a concrete request in
// /debug/traces instead of an anonymous count.
type Exemplar struct {
	Value    float64 `json:"value"`
	TraceID  string  `json:"trace_id"`
	UnixNano int64   `json:"unix_nano"`
}

// A Histogram counts observations into fixed cumulative buckets and
// tracks their sum, in the Prometheus histogram model. Buckets are
// stored non-cumulatively and accumulated at exposition time, which
// makes the exposed series monotone by construction. Each bucket
// retains the most recent trace-ID exemplar observed into it.
type Histogram struct {
	upper  []float64 // sorted upper bounds; implicit +Inf bucket follows
	counts []atomic.Int64
	ex     []atomic.Pointer[Exemplar] // one slot per bucket, last write wins
	count  atomic.Int64
	sum    Gauge
}

// Observe records one sample. Safe on a nil receiver.
func (h *Histogram) Observe(v float64) {
	h.ObserveExemplar(v, "")
}

// ObserveExemplar records one sample and, when traceID is non-empty,
// stamps the sample's bucket with a trace exemplar. Safe on a nil
// receiver.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if h == nil {
		return
	}
	// First bucket whose upper bound is >= v; len(upper) is +Inf.
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	if traceID != "" {
		h.ex[i].Store(&Exemplar{Value: v, TraceID: traceID, UnixNano: time.Now().UnixNano()})
	}
}

// exemplar returns bucket i's retained exemplar, or nil.
func (h *Histogram) exemplar(i int) *Exemplar { return h.ex[i].Load() }

// Count returns the total number of observations. Safe on a nil
// receiver.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values. Safe on a nil receiver.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// Buckets returns the sorted upper bounds; the +Inf bucket is
// implicit. The slice is shared; do not mutate. Safe on a nil receiver.
func (h *Histogram) Buckets() []float64 {
	if h == nil {
		return nil
	}
	return h.upper
}

// BucketCounts appends the per-bucket observation counts since creation
// to dst — not cumulative over bounds, aligned with Buckets, the +Inf
// bucket last — and returns the extended slice. Safe on a nil receiver.
func (h *Histogram) BucketCounts(dst []int64) []int64 {
	if h == nil {
		return dst
	}
	for i := range h.counts {
		dst = append(dst, h.counts[i].Load())
	}
	return dst
}

// DefBuckets are general-purpose latency buckets in seconds (the
// Prometheus client defaults).
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// ExpBuckets returns n exponentially spaced bucket bounds starting at
// start and growing by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		return nil
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = start
		start *= factor
	}
	return b
}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// metric is one registered series: a family name plus a concrete label
// assignment.
type metric struct {
	name   string
	labels []Label // sorted by name
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// A Registry holds named metrics and renders them for scraping. All
// methods are safe for concurrent use; get-or-create methods return the
// same handle for the same (name, labels) every time.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	help    map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		metrics: make(map[string]*metric),
		help:    make(map[string]string),
	}
}

// Default is the process-wide registry used when no explicit registry is
// wired.
var Default = NewRegistry()

// Describe attaches HELP text to a metric family name.
func (r *Registry) Describe(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[sanitizeName(name, true)] = help
}

// Counter returns the counter for (name, labels), creating it on first
// use. Safe on a nil *Registry (returns a nil, no-op handle).
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	m := r.lookup(name, labels, kindCounter, nil)
	if m == nil {
		return nil
	}
	return m.counter
}

// Gauge returns the gauge for (name, labels), creating it on first use.
// Safe on a nil *Registry.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	m := r.lookup(name, labels, kindGauge, nil)
	if m == nil {
		return nil
	}
	return m.gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time. fn is always called without the registry lock held, so it may
// itself use the registry or take caller locks. Re-registering the same
// (name, labels) replaces the callback. Safe on a nil *Registry.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	if m := r.lookup(name, labels, kindGaugeFunc, fn); m != nil {
		r.mu.Lock()
		m.fn = fn
		r.mu.Unlock()
	}
}

// Histogram returns the histogram for (name, labels), creating it with
// the given bucket upper bounds on first use (nil selects DefBuckets).
// Later calls ignore buckets and return the existing handle. Safe on a
// nil *Registry.
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	m := r.lookup(name, labels, kindHistogram, buckets)
	if m == nil {
		return nil
	}
	return m.hist
}

// lookup is the shared get-or-create. arg carries the kind-specific
// construction parameter (histogram buckets or gauge callback).
func (r *Registry) lookup(name string, labels []Label, kind metricKind, arg any) *metric {
	if r == nil {
		return nil
	}
	name = sanitizeName(name, true)
	labels = canonLabels(labels)
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[key]; ok {
		if m.kind != kind {
			panic("obs: metric " + name + " re-registered as " + kind.String() +
				", was " + m.kind.String())
		}
		return m
	}
	m := &metric{name: name, labels: labels, kind: kind}
	switch kind {
	case kindCounter:
		m.counter = new(Counter)
	case kindGauge:
		m.gauge = new(Gauge)
	case kindGaugeFunc:
		m.fn = arg.(func() float64)
	case kindHistogram:
		upper := dedupSorted(arg.([]float64))
		m.hist = &Histogram{
			upper:  upper,
			counts: make([]atomic.Int64, len(upper)+1),
			ex:     make([]atomic.Pointer[Exemplar], len(upper)+1),
		}
	}
	r.metrics[key] = m
	return m
}

// collect snapshots the metric set (pointers, not values) so value reads
// and callbacks happen outside the registry lock, in deterministic
// order: by family name, then by label signature.
func (r *Registry) collect() ([]*metric, map[string]string) {
	if r == nil {
		return nil, nil
	}
	r.mu.Lock()
	ms := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return labelString(ms[i].labels) < labelString(ms[j].labels)
	})
	return ms, help
}

// canonLabels sanitizes label names and sorts pairs by name.
func canonLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	out := make([]Label, len(labels))
	for i, l := range labels {
		out[i] = Label{Name: sanitizeName(l.Name, false), Value: l.Value}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func metricKey(name string, labels []Label) string {
	return name + "\x00" + labelString(labels)
}

func labelString(labels []Label) string {
	s := ""
	for _, l := range labels {
		s += l.Name + "\x01" + l.Value + "\x00"
	}
	return s
}

// sanitizeName coerces s into a valid Prometheus metric name
// ([a-zA-Z_:][a-zA-Z0-9_:]*) or label name (no colon); invalid runes
// become '_'.
func sanitizeName(s string, allowColon bool) string {
	if s == "" {
		return "_"
	}
	b := []byte(s)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c == ':' && allowColon:
		case c >= '0' && c <= '9' && i > 0:
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// dedupSorted sorts bounds ascending and drops duplicates and
// non-finite entries, guaranteeing strictly increasing buckets.
func dedupSorted(bounds []float64) []float64 {
	out := make([]float64, 0, len(bounds))
	for _, b := range bounds {
		if !math.IsInf(b, 0) && !math.IsNaN(b) {
			out = append(out, b)
		}
	}
	sort.Float64s(out)
	n := 0
	for i, b := range out {
		if i == 0 || b != out[n-1] {
			out[n] = b
			n++
		}
	}
	return out[:n]
}
