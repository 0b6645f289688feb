package httpmw

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"hostprof/internal/obs"
	"hostprof/internal/obs/prof"
	"hostprof/internal/obs/tracer"
)

// processes are the two parameterisations in product use; every test
// below runs over both.
var processes = []struct{ name, metricPrefix, spanPrefix string }{
	{"shard", "hostprof_http", "http."},
	{"gateway", "hostprof_gateway", "gw."},
}

// plane is a fully wired observability plane for one process.
type plane struct {
	reg     *obs.Registry
	tr      *tracer.Tracer
	slos    *prof.SLOTracker
	slowlog *prof.SlowLog
	logs    *bytes.Buffer
	mw      Config
}

func newPlane(t *testing.T, metricPrefix, spanPrefix string, slow time.Duration) *plane {
	t.Helper()
	p := &plane{reg: obs.NewRegistry(), slowlog: prof.NewSlowLog(8), logs: new(bytes.Buffer)}
	p.tr = tracer.New(tracer.Config{Service: "mw-test", SampleRate: 1, BufferTraces: 8, Seed: 3})
	p.slos = prof.NewSLOTracker(metricPrefix+"_slo", metricPrefix+"_request_seconds",
		map[string]time.Duration{"op": time.Second}, p.reg)
	p.mw = Config{
		MetricPrefix: metricPrefix,
		SpanPrefix:   spanPrefix,
		Metrics:      p.reg,
		Tracer:       p.tr,
		SLOs:         p.slos,
		SlowLog:      p.slowlog,
		Logger:       slog.New(slog.NewJSONHandler(p.logs, nil)),
		SlowRequest:  slow,
	}
	return p
}

func (p *plane) requests(prefix string, code int) int64 {
	return p.reg.Counter(prefix+"_requests_total", obs.L("endpoint", "op"), obs.L("code", strconv.Itoa(code))).Value()
}

// handlerSpan returns the wrapper's span for the only request served.
func (p *plane) handlerSpan(t *testing.T, name string) (tracer.TraceJSON, tracer.SpanData) {
	t.Helper()
	for _, tj := range p.tr.Traces() {
		for _, sd := range tj.Spans {
			if sd.Name == name {
				return tj, sd
			}
		}
	}
	t.Fatalf("no %s span recorded", name)
	return tracer.TraceJSON{}, tracer.SpanData{}
}

func attr(sd tracer.SpanData, key string) string {
	for _, a := range sd.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// TestStatusCapture: the per-(endpoint, code) counter and the span's
// code attribute see the status the client sees — explicit, implicit 200
// from a handler that writes nothing, and implicit 200 from a bare
// Write — and 5xx marks the trace errored.
func TestStatusCapture(t *testing.T) {
	handlers := []struct {
		name string
		h    http.HandlerFunc
		code int
	}{
		{"explicit", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusTeapot) }, 418},
		{"silent", func(w http.ResponseWriter, r *http.Request) {}, 200},
		{"bare write", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok")) }, 200},
		{"envelope", func(w http.ResponseWriter, r *http.Request) { WriteError(w, http.StatusBadGateway, "shard down") }, 502},
	}
	for _, pr := range processes {
		for _, hc := range handlers {
			t.Run(pr.name+"/"+hc.name, func(t *testing.T) {
				p := newPlane(t, pr.metricPrefix, pr.spanPrefix, 0)
				rec := httptest.NewRecorder()
				p.mw.Wrap("op", hc.h)(rec, httptest.NewRequest(http.MethodPost, "/v1/op", nil))
				if got := p.requests(pr.metricPrefix, hc.code); got != 1 {
					t.Fatalf("%s_requests_total{code=%d} = %d, want 1", pr.metricPrefix, hc.code, got)
				}
				if rec.Code != hc.code {
					t.Fatalf("client saw %d, counter says %d", rec.Code, hc.code)
				}
				tj, sd := p.handlerSpan(t, pr.spanPrefix+"op")
				if attr(sd, "code") != strconv.Itoa(hc.code) || attr(sd, "endpoint") != "op" {
					t.Fatalf("span attrs = %+v, want code=%d endpoint=op", sd.Attrs, hc.code)
				}
				if wantErr := hc.code >= 500; tj.Errored != wantErr {
					t.Fatalf("trace errored = %v for status %d", tj.Errored, hc.code)
				}
				if hc.code == http.StatusBadGateway {
					var eb ErrorBody
					if err := json.NewDecoder(rec.Body).Decode(&eb); err != nil || eb.Error != "shard down" {
						t.Fatalf("error envelope: %v (%+v)", err, eb)
					}
					if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
						t.Fatalf("error envelope Content-Type = %q", ct)
					}
				}
			})
		}
	}
}

// TestTraceparentJoinAndExemplar: the handler span joins the caller's
// W3C trace, hands its context to the handler, and the latency
// histogram carries the trace ID as an exemplar.
func TestTraceparentJoinAndExemplar(t *testing.T) {
	for _, pr := range processes {
		t.Run(pr.name, func(t *testing.T) {
			p := newPlane(t, pr.metricPrefix, pr.spanPrefix, 0)
			const traceID = "0102030405060708090a0b0c0d0e0f10"
			req := httptest.NewRequest(http.MethodPost, "/v1/op", nil)
			req.Header.Set("traceparent", "00-"+traceID+"-00000000000000aa-01")
			var inHandler string
			p.mw.Wrap("op", func(w http.ResponseWriter, r *http.Request) {
				inHandler = tracer.FromContext(r.Context()).TraceIDString()
			})(httptest.NewRecorder(), req)
			if inHandler != traceID {
				t.Fatalf("handler context carries trace %q, want the caller's %s", inHandler, traceID)
			}
			if _, sd := p.handlerSpan(t, pr.spanPrefix+"op"); sd.TraceID != traceID || sd.ParentID != "00000000000000aa" {
				t.Fatalf("handler span %+v did not join the remote parent", sd)
			}
			var om bytes.Buffer
			if err := p.reg.WriteOpenMetrics(&om); err != nil {
				t.Fatal(err)
			}
			want := pr.metricPrefix + `_request_seconds_bucket{endpoint="op"`
			found := false
			for _, line := range strings.Split(om.String(), "\n") {
				if strings.HasPrefix(line, want) && strings.Contains(line, `# {trace_id="`+traceID+`"}`) {
					found = true
				}
			}
			if !found {
				t.Fatalf("no %s bucket carries the trace exemplar:\n%s", want, om.String())
			}
			if got := p.slos.Get("op").Status().WindowRequests; got != 1 {
				t.Fatalf("SLO window holds %d requests, want 1 (request not observed)", got)
			}
		})
	}
}

// TestSlowPath: a request past the threshold lands in the slow log
// under its trace ID and emits exactly one "slow request" warning with
// the stage breakdown.
func TestSlowPath(t *testing.T) {
	for _, pr := range processes {
		t.Run(pr.name, func(t *testing.T) {
			p := newPlane(t, pr.metricPrefix, pr.spanPrefix, time.Nanosecond)
			p.mw.Wrap("op", func(w http.ResponseWriter, r *http.Request) {
				_, sp := p.tr.StartSpan(r.Context(), "stage.one")
				sp.End()
			})(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/op", nil))

			_, sd := p.handlerSpan(t, pr.spanPrefix+"op")
			entries := p.slowlog.Snapshot()
			if len(entries) != 1 || entries[0].Endpoint != "op" || entries[0].TraceID != sd.TraceID {
				t.Fatalf("slow log = %+v", entries)
			}
			out := p.logs.String()
			if strings.Count(out, `"msg":"slow request"`) != 1 {
				t.Fatalf("want exactly one slow-request warning, got: %s", out)
			}
			for _, want := range []string{`"level":"WARN"`, `"endpoint":"op"`, `"code":200`, `"stages":"stage.one=`} {
				if !strings.Contains(out, want) {
					t.Errorf("slow-request log missing %s: %s", want, out)
				}
			}
		})
	}
}

// TestPanicContainment: a panicking handler becomes a 500 with the
// error envelope, is counted in <prefix>_panics_total and as a 500
// request, and marks its trace errored; a handler that already
// committed a response keeps what it sent.
func TestPanicContainment(t *testing.T) {
	for _, pr := range processes {
		t.Run(pr.name, func(t *testing.T) {
			p := newPlane(t, pr.metricPrefix, pr.spanPrefix, 0)
			rec := httptest.NewRecorder()
			p.mw.Wrap("op", func(http.ResponseWriter, *http.Request) { panic("wired to explode") })(
				rec, httptest.NewRequest(http.MethodPost, "/v1/op", nil))
			if rec.Code != http.StatusInternalServerError {
				t.Fatalf("status = %d, want 500", rec.Code)
			}
			var eb ErrorBody
			if err := json.NewDecoder(rec.Body).Decode(&eb); err != nil || !strings.Contains(eb.Error, "wired to explode") {
				t.Fatalf("panic response body: %v (%+v)", err, eb)
			}
			if got := p.reg.Counter(pr.metricPrefix + "_panics_total").Value(); got != 1 {
				t.Fatalf("%s_panics_total = %d, want 1", pr.metricPrefix, got)
			}
			if got := p.requests(pr.metricPrefix, 500); got != 1 {
				t.Fatalf("panicking request not counted as a 500")
			}
			if tj, sd := p.handlerSpan(t, pr.spanPrefix+"op"); !tj.Errored || !strings.Contains(sd.Error, "panic") {
				t.Fatalf("trace errored=%v span error=%q, want an errored panic span", tj.Errored, sd.Error)
			}

			rec = httptest.NewRecorder()
			p.mw.Wrap("op", func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(http.StatusAccepted)
				panic("after commit")
			})(rec, httptest.NewRequest(http.MethodPost, "/v1/op", nil))
			if rec.Code != http.StatusAccepted || rec.Body.Len() != 0 {
				t.Fatalf("committed response rewritten: %d %q", rec.Code, rec.Body.String())
			}
			if got := p.reg.Counter(pr.metricPrefix + "_panics_total").Value(); got != 2 {
				t.Fatalf("%s_panics_total = %d, want 2", pr.metricPrefix, got)
			}
		})
	}
}

// TestDisabledPathAllocs: with no tracer, SLOs, slow log or
// threshold, one pass through the wrapper allocates only the recorder,
// the deferred closure and the per-request counter lookup — every
// observability hook must be free when switched off.
func TestDisabledPathAllocs(t *testing.T) {
	for _, pr := range processes {
		t.Run(pr.name, func(t *testing.T) {
			mw := Config{
				MetricPrefix: pr.metricPrefix,
				SpanPrefix:   pr.spanPrefix,
				Metrics:      obs.NewRegistry(),
				Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
			}
			h := mw.Wrap("report", func(w http.ResponseWriter, r *http.Request) {})
			req := httptest.NewRequest(http.MethodPost, "/v1/report", nil)
			rec := httptest.NewRecorder()
			const budget = 14
			if allocs := testing.AllocsPerRun(500, func() { h(rec, req) }); allocs > budget {
				t.Fatalf("disabled wrapper path allocates %.0f/op, budget %d — an observability hook leaked onto the hot path", allocs, budget)
			}
		})
	}
}
