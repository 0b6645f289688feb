package tracer

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"hostprof/internal/obs"
)

func newTestTracer(rate float64, buf int) *Tracer {
	return New(Config{Service: "test", SampleRate: rate, BufferTraces: buf, Seed: 42})
}

// endRoot starts and immediately ends one root span, returning its hex
// trace ID.
func endRoot(t *Tracer, name string) string {
	_, sp := t.StartSpan(context.Background(), name)
	id := sp.TraceIDString()
	sp.End()
	return id
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := newTestTracer(1, 8)
	_, sp := tr.StartSpan(context.Background(), "op")
	hdr := sp.Traceparent()
	sc, ok := ParseTraceparent(hdr)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) rejected own output", hdr)
	}
	if sc.Trace != sp.TraceID() || sc.Span != sp.SpanID() || !sc.Sampled {
		t.Fatalf("round trip: got %+v, want trace=%s span=%s sampled",
			sc, sp.TraceID(), sp.SpanID())
	}
	if len(hdr) != 55 || !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") {
		t.Fatalf("malformed header %q", hdr)
	}
	sp.End()
}

func TestParseTraceparentMalformed(t *testing.T) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	if _, ok := ParseTraceparent(valid); !ok {
		t.Fatalf("valid header rejected: %q", valid)
	}
	// A future version may append '-'-separated fields.
	if _, ok := ParseTraceparent("cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra"); !ok {
		t.Fatal("future-version header with suffix rejected")
	}
	bad := []string{
		"",
		"00",
		valid[:54],       // truncated
		"ff" + valid[2:], // version ff is invalid
		valid + "x",      // version 00 must be exactly 55 chars
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331_01",  // bad separator
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",  // zero trace ID
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",  // zero span ID
		"00-zzf7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",  // non-hex
		"cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01x", // bad suffix separator
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted malformed input", s)
		}
	}
	// Unsampled flag round trip.
	sc, ok := ParseTraceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00")
	if !ok || sc.Sampled {
		t.Fatalf("flags 00: ok=%v sampled=%v, want parsed unsampled", ok, sc.Sampled)
	}
}

func TestSamplerDeterministic(t *testing.T) {
	mkID := func(low uint64) TraceID {
		var id TraceID
		binary.BigEndian.PutUint64(id[8:], low)
		id[0] = 1
		return id
	}
	zero := New(Config{SampleRate: 0})
	one := New(Config{SampleRate: 1})
	if zero.Enabled() {
		t.Fatal("rate 0 tracer reports Enabled")
	}
	if !one.Enabled() {
		t.Fatal("rate 1 tracer reports disabled")
	}
	for _, low := range []uint64{0, 1, 1 << 32, 1 << 63, ^uint64(0)} {
		if !one.sampled(mkID(low)) {
			t.Errorf("rate 1 dropped ID with low=%d", low)
		}
	}
	// A fractional rate is a pure function of the ID: two tracers at the
	// same rate (e.g. CLI and server) agree on every ID without
	// coordination.
	a := New(Config{SampleRate: 0.25, Seed: 1})
	b := New(Config{SampleRate: 0.25, Seed: 99})
	kept := 0
	const n = 4096
	for i := 0; i < n; i++ {
		id := a.newTraceID()
		ka, kb := a.sampled(id), b.sampled(id)
		if ka != kb {
			t.Fatalf("tracers disagree on %s: %v vs %v", id, ka, kb)
		}
		if ka {
			kept++
		}
	}
	if frac := float64(kept) / n; frac < 0.2 || frac > 0.3 {
		t.Errorf("rate 0.25 kept %.3f of IDs", frac)
	}
}

func TestParentChildSpans(t *testing.T) {
	tr := newTestTracer(1, 8)
	ctx, root := tr.StartSpan(context.Background(), "root")
	cctx, child := tr.StartSpan(ctx, "child")
	_, grand := tr.StartSpan(cctx, "grandchild")
	if child.TraceID() != root.TraceID() || grand.TraceID() != root.TraceID() {
		t.Fatal("children did not inherit the trace ID")
	}
	grand.End()
	child.End()
	root.End()

	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	byName := map[string]SpanData{}
	for _, sd := range traces[0].Spans {
		byName[sd.Name] = sd
	}
	if len(byName) != 3 {
		t.Fatalf("got spans %v, want root/child/grandchild", byName)
	}
	if byName["root"].ParentID != "" {
		t.Errorf("root has parent %q", byName["root"].ParentID)
	}
	if byName["child"].ParentID != byName["root"].SpanID {
		t.Errorf("child parent = %q, want root %q", byName["child"].ParentID, byName["root"].SpanID)
	}
	if byName["grandchild"].ParentID != byName["child"].SpanID {
		t.Errorf("grandchild parent = %q, want child %q", byName["grandchild"].ParentID, byName["child"].SpanID)
	}
	// Completed children surface as the parent's stage breakdown.
	stages := root.Stages()
	if len(stages) != 1 || stages[0].Name != "child" {
		t.Errorf("root stages = %v, want [child]", stages)
	}
}

func TestRemotePropagation(t *testing.T) {
	cli := New(Config{Service: "cli", SampleRate: 1, BufferTraces: 4, Seed: 7})
	srv := New(Config{Service: "srv", SampleRate: 1, BufferTraces: 4, Seed: 8})

	_, csp := cli.StartSpan(context.Background(), "client.report")
	sc, ok := ParseTraceparent(csp.Traceparent())
	if !ok {
		t.Fatal("client traceparent did not parse")
	}
	_, ssp := srv.StartSpan(ContextWithRemote(context.Background(), sc), "http.report")
	if ssp.TraceID() != csp.TraceID() {
		t.Fatalf("server trace %s != client trace %s", ssp.TraceID(), csp.TraceID())
	}
	ssp.End()
	csp.End()

	got, ok := srv.TraceByID(csp.TraceIDString())
	if !ok {
		t.Fatal("server did not retain the joined trace")
	}
	if got.Spans[0].ParentID != csp.SpanID().String() {
		t.Fatalf("server span parent = %q, want client span %q",
			got.Spans[0].ParentID, csp.SpanID())
	}
}

func TestErrorTailRetention(t *testing.T) {
	// A rate just above zero samples (nearly) nothing by head decision.
	tr := New(Config{Service: "test", SampleRate: 1e-18, BufferTraces: 8, Seed: 42})
	if !tr.Enabled() {
		t.Fatal("tiny rate should still enable tracing")
	}
	_, ok := tr.StartSpan(context.Background(), "fine")
	_ = ok
	_, sp := tr.StartSpan(context.Background(), "fine")
	if tr.sampled(sp.TraceID()) {
		t.Skip("seed collided with the sampled set; adjust seed")
	}
	sp.End()
	if n := len(tr.Traces()); n != 0 {
		t.Fatalf("unsampled clean trace retained (%d)", n)
	}
	_, esp := tr.StartSpan(context.Background(), "broken")
	esp.Error(errors.New("boom"))
	id := esp.TraceIDString()
	esp.End()
	got, found := tr.TraceByID(id)
	if !found {
		t.Fatal("errored trace not retained despite tail rule")
	}
	if !got.Errored || got.Spans[0].Error != "boom" {
		t.Fatalf("errored trace export = %+v", got)
	}
}

// TestTracerCounters: the tracer's four families count exactly. Every
// ended span counts once; every completed trace is kept (head-sampled
// or errored) or dropped; the buffer gauge is the kept traces up to the
// ring's capacity.
func TestTracerCounters(t *testing.T) {
	reg := obs.NewRegistry()
	const capacity, traces = 4, 40
	tr := New(Config{Service: "test", SampleRate: 0.5, BufferTraces: capacity, Seed: 42, Metrics: reg})
	wantKept := 0
	for i := 0; i < traces; i++ {
		ctx, root := tr.StartSpan(context.Background(), "root")
		_, child := tr.StartSpan(ctx, "child")
		errored := i%10 == 0
		if errored {
			child.Error(errors.New("boom"))
		}
		child.End()
		root.End()
		if errored || tr.sampled(root.TraceID()) {
			wantKept++
		}
	}
	value := map[string]float64{}
	for _, m := range reg.Snapshot() {
		value[m.Name] = m.Value
	}
	kept, dropped := value["hostprof_traces_kept_total"], value["hostprof_traces_dropped_total"]
	if kept != float64(wantKept) || dropped != float64(traces-wantKept) || dropped == 0 {
		t.Fatalf("kept %v, dropped %v; want %d of %d kept, some dropped", kept, dropped, wantKept, traces)
	}
	if got := value["hostprof_trace_spans_total"]; got != 2*traces {
		t.Fatalf("hostprof_trace_spans_total = %v, want %d", got, 2*traces)
	}
	if got := value["hostprof_trace_buffer_traces"]; got != float64(min(wantKept, capacity)) {
		t.Fatalf("hostprof_trace_buffer_traces = %v, want min(%d, %d)", got, wantKept, capacity)
	}
}

func TestRingEvictionOrder(t *testing.T) {
	tr := newTestTracer(1, 2)
	id1 := endRoot(tr, "a")
	id2 := endRoot(tr, "b")
	id3 := endRoot(tr, "c")

	traces := tr.Traces()
	if len(traces) != 2 {
		t.Fatalf("ring holds %d traces, want 2", len(traces))
	}
	if traces[0].TraceID != id2 || traces[1].TraceID != id3 {
		t.Fatalf("snapshot order = [%s %s], want oldest-first [%s %s]",
			traces[0].TraceID, traces[1].TraceID, id2, id3)
	}
	if _, ok := tr.TraceByID(id1); ok {
		t.Fatal("evicted trace still reachable by ID")
	}
	// One more wraps the cursor and evicts id2.
	id4 := endRoot(tr, "d")
	traces = tr.Traces()
	if traces[0].TraceID != id3 || traces[1].TraceID != id4 {
		t.Fatalf("after wrap: [%s %s], want [%s %s]",
			traces[0].TraceID, traces[1].TraceID, id3, id4)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer enabled")
	}
	ctx, sp := tr.StartSpan(context.Background(), "op")
	if sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	if ctx == nil {
		t.Fatal("nil tracer dropped the context")
	}
	// Every span method must be a no-op on nil.
	sp.SetAttr("k", "v")
	sp.Event("e")
	sp.Error(errors.New("x"))
	if sp.Stages() != nil || sp.End() != 0 || sp.Traceparent() != "" ||
		sp.TraceIDString() != "" || sp.Recording() {
		t.Fatal("nil span is not a no-op")
	}
	if tr.Traces() != nil || tr.Ingest(nil) != 0 {
		t.Fatal("nil tracer methods not safe")
	}
	if _, ok := tr.TraceByID("00"); ok {
		t.Fatal("nil tracer found a trace")
	}
	// FromContext on a bare/nil context.
	if FromContext(nil) != nil || FromContext(context.Background()) != nil {
		t.Fatal("FromContext invented a span")
	}
	// The nil handler still answers (with 404s).
	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 404 {
		t.Fatalf("nil handler status = %d, want 404", rec.Code)
	}
}

func TestDisabledStartSpanAllocs(t *testing.T) {
	disabled := New(Config{SampleRate: 0})
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c, sp := disabled.StartSpan(ctx, "op")
		sp.SetAttr("k", "v")
		sp.End()
		_ = c
	})
	if allocs != 0 {
		t.Fatalf("disabled StartSpan allocates %.1f times per op, want 0", allocs)
	}
	var nilTr *Tracer
	allocs = testing.AllocsPerRun(1000, func() {
		_, sp := nilTr.StartSpan(ctx, "op")
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("nil StartSpan allocates %.1f times per op, want 0", allocs)
	}
}

func TestIngestMerge(t *testing.T) {
	tr := newTestTracer(1, 8)
	id := endRoot(tr, "server.op")
	// A client pushes its half of the same trace, plus a span with a
	// malformed ID that must be skipped.
	pushed := []SpanData{
		{TraceID: id, SpanID: "aaaaaaaaaaaaaaaa", Service: "cli", Name: "client.op"},
		{TraceID: "not-hex", SpanID: "bbbbbbbbbbbbbbbb", Service: "cli", Name: "bad"},
	}
	if n := tr.Ingest(pushed); n != 1 {
		t.Fatalf("Ingest accepted %d spans, want 1", n)
	}
	got, ok := tr.TraceByID(id)
	if !ok {
		t.Fatal("merged trace vanished")
	}
	if len(got.Spans) != 2 {
		t.Fatalf("merged trace has %d spans, want server+client = 2", len(got.Spans))
	}
	services := map[string]bool{}
	for _, sd := range got.Spans {
		services[sd.Service] = true
	}
	if !services["test"] || !services["cli"] {
		t.Fatalf("merged services = %v, want test+cli", services)
	}
	// Ingest into an empty buffer creates the trace (always retained).
	tr2 := newTestTracer(1e-18, 8)
	if n := tr2.Ingest([]SpanData{{TraceID: id, SpanID: "cccccccccccccccc", Name: "pushed"}}); n != 1 {
		t.Fatal("fresh ingest rejected")
	}
	if _, ok := tr2.TraceByID(id); !ok {
		t.Fatal("pushed trace not retained despite explicit keep")
	}
}

// mkSpan builds one externally-shaped span record.
func mkSpan(traceID, spanID, parentID, service, name string) SpanData {
	return SpanData{
		TraceID:  traceID,
		SpanID:   spanID,
		ParentID: parentID,
		Service:  service,
		Name:     name,
		Start:    1_000_000,
		Duration: 2_000,
	}
}

// TestIngestConcurrentSources is Ingest's merge contract under -race:
// three batches of one trace ID land concurrently, and the buffer ends
// up with one trace holding every span.
func TestIngestConcurrentSources(t *testing.T) {
	collector := New(Config{Service: "gateway", SampleRate: 1, BufferTraces: 8})
	const traceID = "0102030405060708090a0b0c0d0e0f10"
	batches := [][]SpanData{
		{
			mkSpan(traceID, "0000000000000001", "", "gateway", "gw.report"),
			mkSpan(traceID, "0000000000000002", "0000000000000001", "gateway", "shard.report"),
		},
		{
			mkSpan(traceID, "0000000000000003", "0000000000000002", "shard-a", "http.report"),
			mkSpan(traceID, "0000000000000004", "0000000000000003", "shard-a", "store.ingest"),
		},
		{
			mkSpan(traceID, "0000000000000005", "0000000000000002", "shard-b", "http.report"),
		},
	}
	var wg sync.WaitGroup
	for _, b := range batches {
		wg.Add(1)
		go func(b []SpanData) {
			defer wg.Done()
			if n := collector.Ingest(b); n != len(b) {
				t.Errorf("Ingest accepted %d of %d spans", n, len(b))
			}
		}(b)
	}
	wg.Wait()

	tr, ok := collector.TraceByID(traceID)
	if !ok {
		t.Fatal("merged trace not retrievable by ID")
	}
	if len(tr.Spans) != 5 {
		t.Fatalf("merged trace has %d spans, want 5: %+v", len(tr.Spans), tr.Spans)
	}
	if !tr.Sampled {
		t.Fatal("pushed trace must be retained (sampled)")
	}
	services := make(map[string]int)
	for _, sp := range tr.Spans {
		if sp.TraceID != traceID {
			t.Fatalf("span %s under wrong trace: %s", sp.Name, sp.TraceID)
		}
		services[sp.Service]++
	}
	if services["gateway"] != 2 || services["shard-a"] != 2 || services["shard-b"] != 1 {
		t.Fatalf("span distribution by service = %v", services)
	}
	// Exactly one retained trace: three concurrent pushes of one ID
	// must not fan out into three buffer entries.
	if n := len(collector.Traces()); n != 1 {
		t.Fatalf("buffer holds %d traces, want 1", n)
	}

	// Malformed IDs are skipped, not fatal.
	if n := collector.Ingest([]SpanData{mkSpan("zz", "01", "", "s", "bad")}); n != 0 {
		t.Fatalf("malformed trace ID accepted: %d", n)
	}
}

// TestMerge pins Merge's contract: traces union across sources by ID, a
// span two sources hold appears once, Sampled and Errored are OR-ed,
// and the result runs oldest first by earliest span start, ties by ID.
func TestMerge(t *testing.T) {
	const a, b, c = "0000000000000000000000000000000a", "0000000000000000000000000000000b", "0000000000000000000000000000000c"
	at := func(sd SpanData, start int64) SpanData { sd.Start = start; return sd }
	gw := []TraceJSON{
		{TraceID: a, Sampled: true, Spans: []SpanData{at(mkSpan(a, "01", "", "gw", "gw.report"), 300)}},
		{TraceID: b, Spans: []SpanData{at(mkSpan(b, "02", "", "gw", "gw.report"), 100)}},
	}
	shard1 := []TraceJSON{
		{TraceID: a, Errored: true, Spans: []SpanData{
			at(mkSpan(a, "11", "01", "s1", "http.report"), 310),
			at(mkSpan(a, "01", "", "gw", "gw.report"), 300), // also in gw's buffer
		}},
		{TraceID: c, Sampled: true, Spans: []SpanData{at(mkSpan(c, "12", "", "s1", "http.retrain"), 300)}},
	}
	shard2 := []TraceJSON{
		{TraceID: b, Sampled: true, Spans: []SpanData{at(mkSpan(b, "21", "02", "s2", "http.report"), 50)}},
	}
	before := fmt.Sprint(gw, shard1, shard2)
	got := Merge(gw, shard1, shard2)
	if after := fmt.Sprint(gw, shard1, shard2); after != before {
		t.Fatalf("Merge modified its sources:\n%s\n%s", before, after)
	}
	var order []string
	for _, tr := range got {
		order = append(order, tr.TraceID)
	}
	// b starts at 50 (its shard span precedes the gateway's); a and c tie
	// at 300, so the ID breaks the tie.
	if want := []string{b, a, c}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	spans := func(tr TraceJSON) []string {
		var out []string
		for _, sd := range tr.Spans {
			out = append(out, sd.SpanID)
		}
		return out
	}
	for _, tc := range []struct {
		tr               TraceJSON
		spans            string
		sampled, errored bool
	}{
		{got[0], "[02 21]", true, false},
		{got[1], "[01 11]", true, true},
		{got[2], "[12]", true, false},
	} {
		if s := fmt.Sprint(spans(tc.tr)); s != tc.spans || tc.tr.Sampled != tc.sampled || tc.tr.Errored != tc.errored {
			t.Errorf("trace %s: spans %s sampled %v errored %v, want %s %v %v",
				tc.tr.TraceID, s, tc.tr.Sampled, tc.tr.Errored, tc.spans, tc.sampled, tc.errored)
		}
	}
	if got := Merge(); got == nil || len(got) != 0 {
		t.Fatalf("Merge() = %#v, want an empty non-nil list", got)
	}
}

func TestHandlerFormats(t *testing.T) {
	tr := newTestTracer(1, 8)
	ctx, root := tr.StartSpan(context.Background(), "root")
	root.SetAttr("user", "3")
	root.Event("checkpoint")
	_, child := tr.StartSpan(ctx, "child")
	child.End()
	root.End()
	id := root.TraceIDString()
	h := tr.Handler()

	// Default JSON listing.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	var listing struct {
		Traces []TraceJSON `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil {
		t.Fatalf("listing not JSON: %v", err)
	}
	if len(listing.Traces) != 1 || len(listing.Traces[0].Spans) != 2 {
		t.Fatalf("listing = %+v, want 1 trace with 2 spans", listing)
	}

	// Single-trace lookup.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?trace="+id, nil))
	if rec.Code != 200 {
		t.Fatalf("trace lookup status %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?trace=ffffffffffffffffffffffffffffffff", nil))
	if rec.Code != 404 {
		t.Fatalf("missing trace status %d, want 404", rec.Code)
	}

	// Chrome trace-event export: valid JSON with one X event per span,
	// process metadata, and microsecond times.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?format=chrome", nil))
	var chrome struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Dur   float64        `json:"dur"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &chrome); err != nil {
		t.Fatalf("chrome export not JSON: %v", err)
	}
	if chrome.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", chrome.DisplayTimeUnit)
	}
	var meta, complete, instant int
	for _, ev := range chrome.TraceEvents {
		switch ev.Phase {
		case "M":
			meta++
		case "X":
			complete++
			if ev.PID == 0 || ev.TID == 0 {
				t.Errorf("X event %q missing pid/tid", ev.Name)
			}
		case "i":
			instant++
		}
	}
	if meta != 1 || complete != 2 || instant != 1 {
		t.Fatalf("chrome events M=%d X=%d i=%d, want 1/2/1", meta, complete, instant)
	}

	// POST push path.
	body := fmt.Sprintf(`{"spans":[{"trace_id":%q,"span_id":"aaaaaaaaaaaaaaaa","service":"cli","name":"client.op"}]}`, id)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/debug/traces", strings.NewReader(body)))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"accepted":1`) {
		t.Fatalf("push: status %d body %s", rec.Code, rec.Body.String())
	}
	got, _ := tr.TraceByID(id)
	if len(got.Spans) != 3 {
		t.Fatalf("after push: %d spans, want 3", len(got.Spans))
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/debug/traces", strings.NewReader("{")))
	if rec.Code != 400 {
		t.Fatalf("bad payload status %d, want 400", rec.Code)
	}
}

func TestLoggerTraceStamping(t *testing.T) {
	tr := newTestTracer(1, 4)
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "json", "info")
	if err != nil {
		t.Fatal(err)
	}
	ctx, sp := tr.StartSpan(context.Background(), "op")
	lg.InfoContext(ctx, "hello", slog.String("k", "v"))
	lg.Info("no span here")
	sp.End()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d log lines, want 2", len(lines))
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("log line not JSON: %v", err)
	}
	if first["trace_id"] != sp.TraceIDString() || first["span_id"] != sp.SpanID().String() {
		t.Fatalf("log line %v missing trace stamp %s/%s", first, sp.TraceIDString(), sp.SpanID())
	}
	if strings.Contains(lines[1], "trace_id") {
		t.Fatalf("spanless log line stamped anyway: %s", lines[1])
	}

	// Level gating and bad flag values.
	if _, err := NewLogger(&buf, "json", "nope"); err == nil {
		t.Fatal("bad level accepted")
	}
	if _, err := NewLogger(&buf, "xml", "info"); err == nil {
		t.Fatal("bad format accepted")
	}
	buf.Reset()
	quiet, _ := NewLogger(&buf, "text", "error")
	quiet.Info("dropped")
	quiet.Error("kept")
	if out := buf.String(); strings.Contains(out, "dropped") || !strings.Contains(out, "kept") {
		t.Fatalf("level gating broken: %q", out)
	}
}

// TraceID returns the span's trace ID (zero on nil).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.td.id
}
