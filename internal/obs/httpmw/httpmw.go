// Package httpmw is the one instrumented-handler wrapper both hostprof
// processes mount on their /v1 routes, and the JSON error envelope both
// send: the shard (hostprof serve) and the gateway differ only in the
// metric family prefix, the span-name prefix and the observability
// handles each already builds.
package httpmw

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"hostprof/internal/obs"
	"hostprof/internal/obs/prof"
	"hostprof/internal/obs/tracer"
)

// Config carries what differs between the processes mounting the
// wrapper. Metrics and Logger are required; every other handle is
// nil-safe and costs a nil check per request when absent.
type Config struct {
	// MetricPrefix names the families: <prefix>_requests_total
	// {endpoint,code}, <prefix>_request_seconds{endpoint} and
	// <prefix>_panics_total ("hostprof_http" / "hostprof_gateway").
	MetricPrefix string
	// SpanPrefix precedes the endpoint in handler span names ("http." /
	// "gw.").
	SpanPrefix string
	Metrics    *obs.Registry
	Tracer     *tracer.Tracer
	// SLOs supplies per-endpoint latency SLOs, read from the
	// <prefix>_request_seconds histograms, and those histograms' bucket
	// layout; endpoints without a target pay nothing for them.
	SLOs *prof.SLOTracker
	// SlowLog receives slow requests, each with its trace ID, for
	// /debug/statusz.
	SlowLog *prof.SlowLog
	Logger  *slog.Logger
	// SlowRequest is the latency at which a request takes the slow path;
	// zero or negative disables it.
	SlowRequest time.Duration
}

// statusRecorder captures the response code written by a handler and
// whether anything was written, so panic recovery knows if a 500 can
// still be sent.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusRecorder) WriteHeader(code int) {
	w.code = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

// Wrap instruments one endpoint handler with a per-endpoint latency
// histogram, a per-(endpoint, code) request counter, request tracing
// and panic containment: a panicking handler becomes a 500 (when
// nothing has been written yet) instead of tearing down the connection,
// and is counted in <prefix>_panics_total.
//
// With tracing enabled the handler span joins an incoming W3C
// traceparent (so a traced client, the gateway and the shards it fans
// out to share one trace ID), the latency histogram gets a trace-ID
// exemplar, and requests slower than Config.SlowRequest emit one
// structured warning carrying the trace ID and the per-stage breakdown.
// With tracing disabled all of that collapses to nil checks — no
// allocation on the request path.
func (c Config) Wrap(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	c.Metrics.Describe(c.MetricPrefix+"_panics_total", "handler panics recovered into 500s")
	panics := c.Metrics.Counter(c.MetricPrefix + "_panics_total")
	lat := c.Metrics.Histogram(c.MetricPrefix+"_request_seconds", c.SLOs.Buckets(), obs.L("endpoint", endpoint))
	requests := c.MetricPrefix + "_requests_total"
	spanName := c.SpanPrefix + endpoint
	// The SLO handle is resolved once per endpoint at wrap time; per
	// request it is one nil-safe Mark, before lat sees the request.
	// Endpoints without a configured target get a nil handle.
	slo := c.SLOs.Get(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		slo.Mark(start)
		var span *tracer.Span
		if c.Tracer.Enabled() {
			ctx := r.Context()
			if sc, ok := tracer.ParseTraceparent(r.Header.Get("traceparent")); ok {
				ctx = tracer.ContextWithRemote(ctx, sc)
			}
			ctx, span = c.Tracer.StartSpan(ctx, spanName)
			span.SetAttr("endpoint", endpoint)
			r = r.WithContext(ctx)
		}
		defer func() {
			d := time.Since(start)
			if p := recover(); p != nil {
				panics.Inc()
				rec.code = http.StatusInternalServerError
				if !rec.wrote {
					WriteError(rec, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", p))
				}
				span.Error(fmt.Errorf("panic: %v", p))
			} else if rec.code >= 500 {
				span.Error(fmt.Errorf("HTTP %d", rec.code))
			}
			slow := c.SlowRequest > 0 && d >= c.SlowRequest
			traceID := span.TraceIDString()
			lat.ObserveExemplar(d.Seconds(), traceID)
			span.SetAttr("code", strconv.Itoa(rec.code))
			span.End()
			c.Metrics.Counter(requests,
				obs.L("endpoint", endpoint),
				obs.L("code", strconv.Itoa(rec.code))).Inc()
			if slow {
				c.SlowLog.Add(prof.SlowEntry{
					Endpoint: endpoint,
					Code:     rec.code,
					Seconds:  d.Seconds(),
					TraceID:  traceID,
				})
				c.Logger.LogAttrs(r.Context(), slog.LevelWarn, "slow request",
					slog.String("endpoint", endpoint),
					slog.Int("code", rec.code),
					slog.Duration("elapsed", d),
					slog.String("stages", formatStages(span.Stages())))
			}
		}()
		h(rec, r)
	}
}

// formatStages renders a span's child durations as a compact breakdown
// ("store.ingest=1.2ms profile=840ms"); "-" when tracing is off or no
// stage completed.
func formatStages(stages []tracer.Stage) string {
	if len(stages) == 0 {
		return "-"
	}
	var sb strings.Builder
	for i, st := range stages {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(st.Name)
		sb.WriteByte('=')
		sb.WriteString(st.Duration.Round(time.Microsecond).String())
	}
	return sb.String()
}

// ErrorBody is the JSON error envelope every /v1 endpoint of both
// processes sends, so clients parse gateway and shard errors
// identically.
type ErrorBody struct {
	Error string `json:"error"`
}

// WriteError sends a structured JSON error response.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, ErrorBody{Error: msg})
}

// WriteJSON sends v as a JSON response. An encode error means the
// response is already committed; there is nothing safe left to do.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
