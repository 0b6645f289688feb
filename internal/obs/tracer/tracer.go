// Package tracer is a zero-dependency, context-propagated tracing
// subsystem layered on the obs metrics registry. It answers the
// question aggregate histograms cannot: why was *this* request slow?
//
// Model:
//
//   - A Span measures one operation. Spans form a tree via
//     context.Context: StartSpan under a context that carries a span
//     creates a child; under a bare context it starts a new trace.
//   - Trace and span IDs follow the W3C Trace Context format, so a
//     `traceparent` header carries causality across processes — the CLI
//     client and the serving backend join one trace.
//   - A deterministic head sampler decides per trace ID whether a trace
//     is kept; the decision is a pure function of (rate, trace ID), so
//     every process holding the same ID agrees without coordination.
//     Traces that record an error are kept regardless (tail retention).
//   - Completed traces land in a fixed-size ring buffer, exported at
//     /debug/traces as JSON or Chrome trace-event format (Perfetto).
//
// Cost contract (mirrors obs): every method is safe on a nil *Tracer
// and a nil *Span, and a disabled tracer (nil, or SampleRate 0) makes
// StartSpan a nil check returning the context unchanged — no
// allocation, so instrumentation can be wired unconditionally.
package tracer

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"hostprof/internal/obs"
)

// A TraceID identifies one distributed trace (16 bytes, hex on the
// wire).
type TraceID [16]byte

// IsZero reports whether the ID is the invalid all-zero ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String returns the 32-char lowercase hex form.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// A SpanID identifies one span within a trace (8 bytes, hex on the
// wire).
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String returns the 16-char lowercase hex form.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// An Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// A SpanEvent is one timestamped point annotation within a span.
type SpanEvent struct {
	UnixNano int64  `json:"unix_nano"`
	Msg      string `json:"msg"`
}

// SpanData is the immutable record of a completed span — the unit
// stored in the trace buffer and exchanged over /debug/traces.
type SpanData struct {
	TraceID  string      `json:"trace_id"`
	SpanID   string      `json:"span_id"`
	ParentID string      `json:"parent_id,omitempty"`
	Service  string      `json:"service"`
	Name     string      `json:"name"`
	Start    int64       `json:"start_unix_nano"`
	Duration int64       `json:"duration_nano"`
	Attrs    []Attr      `json:"attrs,omitempty"`
	Events   []SpanEvent `json:"events,omitempty"`
	Error    string      `json:"error,omitempty"`
}

// Config assembles a Tracer.
type Config struct {
	// Service names this process in exported spans (e.g.
	// "hostprof-serve"). Default "hostprof".
	Service string
	// SampleRate is the head-sampling rate in [0, 1]. 0 disables
	// tracing entirely (StartSpan becomes a no-op); 1 keeps every
	// trace. Fractional rates keep a deterministic subset by trace ID,
	// plus every trace that records an error.
	SampleRate float64
	// BufferTraces is the completed-trace ring capacity. Default 256.
	BufferTraces int
	// Metrics, when non-nil, receives tracer counters
	// (hostprof_trace_* names).
	Metrics *obs.Registry
	// Seed fixes the ID sequence for tests; 0 seeds from the clock.
	Seed uint64
}

// Tracer creates spans and retains completed traces. All methods are
// safe for concurrent use and on a nil receiver.
type Tracer struct {
	service string
	thresh  uint64 // head-sampling threshold over the ID's low 8 bytes
	idstate atomic.Uint64
	buf     ring

	spans   *obs.Counter
	kept    *obs.Counter
	dropped *obs.Counter
}

// New builds a Tracer. A SampleRate of 0 still returns a usable (but
// fully disabled) tracer; callers wanting "no tracing" may equally pass
// a nil *Tracer around.
func New(cfg Config) *Tracer {
	if cfg.Service == "" {
		cfg.Service = "hostprof"
	}
	if cfg.BufferTraces <= 0 {
		cfg.BufferTraces = 256
	}
	t := &Tracer{
		service: cfg.Service,
		thresh:  sampleThreshold(cfg.SampleRate),
		buf:     ring{cap: cfg.BufferTraces, byID: make(map[TraceID]*traceData)},
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	t.idstate.Store(seed)
	if reg := cfg.Metrics; reg != nil {
		reg.Describe("hostprof_trace_spans_total", "spans recorded by the tracer")
		reg.Describe("hostprof_traces_kept_total", "completed traces retained in the trace buffer")
		reg.Describe("hostprof_traces_dropped_total", "completed traces discarded by the sampler")
		t.spans = reg.Counter("hostprof_trace_spans_total")
		t.kept = reg.Counter("hostprof_traces_kept_total")
		t.dropped = reg.Counter("hostprof_traces_dropped_total")
		reg.Describe("hostprof_trace_buffer_traces", "traces currently held in the ring buffer")
		reg.GaugeFunc("hostprof_trace_buffer_traces", func() float64 { return float64(t.buf.len()) })
	}
	return t
}

// sampleThreshold maps a rate in [0, 1] onto the uint64 space the
// sampler compares trace IDs against.
func sampleThreshold(rate float64) uint64 {
	switch {
	case rate <= 0 || math.IsNaN(rate):
		return 0
	case rate >= 1:
		return math.MaxUint64
	default:
		return uint64(rate * float64(math.MaxUint64))
	}
}

// Enabled reports whether StartSpan can create spans. Safe on nil.
func (t *Tracer) Enabled() bool { return t != nil && t.thresh > 0 }

// sampled is the deterministic head decision: a pure function of
// (threshold, trace ID), so every process agrees on the same ID.
func (t *Tracer) sampled(id TraceID) bool {
	if t == nil {
		return false
	}
	return binary.BigEndian.Uint64(id[8:]) <= t.thresh
}

// nextID advances the splitmix64 ID stream.
func (t *Tracer) nextID() uint64 {
	x := t.idstate.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	binary.BigEndian.PutUint64(id[:8], t.nextID())
	binary.BigEndian.PutUint64(id[8:], t.nextID())
	return id
}

func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	binary.BigEndian.PutUint64(id[:], t.nextID())
	return id
}

// traceData accumulates the completed spans of one trace; the ring
// buffer holds pointers, so spans ended after the root (stragglers)
// still surface in exports.
type traceData struct {
	id      TraceID
	sampled bool

	mu      sync.Mutex
	errored bool
	spans   []SpanData
}

// A Span is one live operation in a trace. A nil *Span is a valid
// no-op, so callers never need to check whether tracing is enabled.
type Span struct {
	tr     *Tracer
	td     *traceData
	parent *Span // nil for a local root
	name   string
	id     SpanID
	pid    SpanID // parent span ID (may be remote)
	start  time.Time

	mu     sync.Mutex
	ended  bool
	err    error
	attrs  []Attr
	events []SpanEvent
	stages []Stage
}

// A Stage is one completed child operation of a span — the raw material
// of the slow-request breakdown.
type Stage struct {
	Name     string
	Duration time.Duration
}

type spanKey struct{}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

type remoteKey struct{}

// ContextWithRemote marks ctx with a remote parent (a parsed
// traceparent): the next StartSpan joins that trace instead of opening
// a new one.
func ContextWithRemote(ctx context.Context, sc SpanContext) context.Context {
	if sc.Trace.IsZero() {
		return ctx
	}
	return context.WithValue(ctx, remoteKey{}, sc)
}

func remoteFromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(remoteKey{}).(SpanContext)
	return sc, ok
}

// StartSpan begins a span named name. Under a context carrying a span
// it creates a child; under a context marked with ContextWithRemote it
// joins the remote trace as a local root; otherwise it opens a new
// trace, head-sampled by ID. The returned context carries the new span.
// On a disabled tracer it returns (ctx, nil) without allocating.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if !t.Enabled() {
		return ctx, nil
	}
	s := &Span{tr: t, name: name, id: t.newSpanID(), start: time.Now()}
	if parent := FromContext(ctx); parent != nil {
		s.td, s.parent, s.pid = parent.td, parent, parent.id
	} else if rc, ok := remoteFromContext(ctx); ok {
		// The local head decision is ORed with the remote sampled flag:
		// deterministic-by-ID means both usually agree, and a sampling
		// upstream must not lose its server half.
		s.td = &traceData{id: rc.Trace, sampled: rc.Sampled || t.sampled(rc.Trace)}
		s.pid = rc.Span
	} else {
		id := t.newTraceID()
		s.td = &traceData{id: id, sampled: t.sampled(id)}
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// TraceIDString returns the hex trace ID, or "" on nil — the form
// histogram exemplars and log records want.
func (s *Span) TraceIDString() string {
	if s == nil {
		return ""
	}
	return s.td.id.String()
}

// SpanID returns the span's own ID (zero on nil).
func (s *Span) SpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// Recording reports whether the span is live (non-nil).
func (s *Span) Recording() bool { return s != nil }

// Traceparent renders the span as a W3C traceparent header value, or
// "" on nil.
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	return FormatTraceparent(SpanContext{Trace: s.td.id, Span: s.id, Sampled: s.td.sampled})
}

// SetAttr annotates the span with a key/value pair.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// Event records a timestamped point annotation (e.g. one training
// epoch).
func (s *Span) Event(msg string) {
	if s == nil {
		return
	}
	ev := SpanEvent{UnixNano: time.Now().UnixNano(), Msg: msg}
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// Error marks the span (and therefore its trace) failed. An errored
// trace is always retained, whatever the head sampler decided. A nil
// err is ignored.
func (s *Span) Error(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
	s.td.mu.Lock()
	s.td.errored = true
	s.td.mu.Unlock()
}

// addStage records a completed child on its parent.
func (s *Span) addStage(name string, d time.Duration) {
	s.mu.Lock()
	s.stages = append(s.stages, Stage{Name: name, Duration: d})
	s.mu.Unlock()
}

// Stages returns the completed direct children of the span, in
// completion order — the per-stage breakdown a slow-request log wants.
// The slice is a copy. Nil-safe.
func (s *Span) Stages() []Stage {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Stage, len(s.stages))
	copy(out, s.stages)
	return out
}

// End completes the span, appending its record to the trace; ending a
// local root offers the trace to the ring buffer (kept when sampled or
// errored). End is idempotent; the first call wins. Returns the span's
// elapsed time (0 on nil).
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return d
	}
	s.ended = true
	data := SpanData{
		TraceID:  s.td.id.String(),
		SpanID:   s.id.String(),
		Service:  s.tr.service,
		Name:     s.name,
		Start:    s.start.UnixNano(),
		Duration: int64(d),
		Attrs:    s.attrs,
		Events:   s.events,
	}
	if !s.pid.IsZero() {
		data.ParentID = s.pid.String()
	}
	if s.err != nil {
		data.Error = s.err.Error()
	}
	s.mu.Unlock()
	if s.parent != nil {
		s.parent.addStage(s.name, d)
	}
	s.td.mu.Lock()
	s.td.spans = append(s.td.spans, data)
	s.td.mu.Unlock()
	s.tr.spans.Inc()
	if s.parent == nil {
		s.tr.finish(s.td)
	}
	return d
}

// finish applies the keep decision to a completed trace.
func (t *Tracer) finish(td *traceData) {
	td.mu.Lock()
	keep := td.sampled || td.errored
	td.mu.Unlock()
	if !keep {
		t.dropped.Inc()
		return
	}
	t.kept.Inc()
	t.buf.add(td)
}

// ring is the completed-trace buffer: fixed capacity, oldest evicted
// first. It is locked only on trace completion and export, never per
// span.
type ring struct {
	mu   sync.Mutex
	cap  int
	buf  []*traceData
	next int // overwrite cursor once full
	byID map[TraceID]*traceData
}

func (r *ring) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// add inserts td, merging into an existing entry with the same trace ID
// (spans a client pushes through Ingest) and evicting the oldest entry
// at capacity.
func (r *ring) add(td *traceData) {
	r.mu.Lock()
	if have, ok := r.byID[td.id]; ok && have != td {
		r.mu.Unlock()
		td.mu.Lock()
		spans := td.spans
		errored := td.errored
		td.mu.Unlock()
		have.mu.Lock()
		have.spans = append(have.spans, spans...)
		have.errored = have.errored || errored
		have.mu.Unlock()
		return
	}
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, td)
	} else {
		delete(r.byID, r.buf[r.next].id)
		r.buf[r.next] = td
		r.next = (r.next + 1) % r.cap
	}
	r.byID[td.id] = td
	r.mu.Unlock()
}

// snapshot returns the retained traces oldest-first.
func (r *ring) snapshot() []*traceData {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*traceData, 0, len(r.buf))
	if len(r.buf) < r.cap {
		out = append(out, r.buf...)
	} else {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	}
	return out
}

func (r *ring) get(id TraceID) *traceData {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byID[id]
}
