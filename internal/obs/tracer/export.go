package tracer

import (
	"cmp"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"
)

// TraceJSON is one retained trace as served by /debug/traces.
type TraceJSON struct {
	TraceID string     `json:"trace_id"`
	Sampled bool       `json:"sampled"`
	Errored bool       `json:"errored,omitempty"`
	Spans   []SpanData `json:"spans"`
}

func exportTrace(td *traceData) TraceJSON {
	td.mu.Lock()
	defer td.mu.Unlock()
	spans := make([]SpanData, len(td.spans))
	copy(spans, td.spans)
	return TraceJSON{
		TraceID: td.id.String(),
		Sampled: td.sampled,
		Errored: td.errored,
		Spans:   spans,
	}
}

// Traces snapshots the retained traces, oldest first. Safe on nil.
func (t *Tracer) Traces() []TraceJSON {
	if t == nil {
		return nil
	}
	tds := t.buf.snapshot()
	out := make([]TraceJSON, len(tds))
	for i, td := range tds {
		out[i] = exportTrace(td)
	}
	return out
}

// TraceByID returns one retained trace by its hex ID. Safe on nil.
func (t *Tracer) TraceByID(hexID string) (TraceJSON, bool) {
	if t == nil {
		return TraceJSON{}, false
	}
	var id TraceID
	if n, err := hex.Decode(id[:], []byte(hexID)); err != nil || n != len(id) {
		return TraceJSON{}, false
	}
	td := t.buf.get(id)
	if td == nil {
		return TraceJSON{}, false
	}
	return exportTrace(td), true
}

// Ingest merges externally produced span records into the buffer — the
// cross-process collection path: a CLI client pushes its spans so the
// server's /debug/traces shows the whole distributed trace. Spans with
// malformed trace IDs are skipped; the count of accepted spans is
// returned. Pushed traces are always retained (pushing is an explicit
// keep decision). Safe on nil (returns 0).
func (t *Tracer) Ingest(spans []SpanData) int {
	if t == nil {
		return 0
	}
	groups := make(map[TraceID][]SpanData)
	var order []TraceID
	n := 0
	for _, sd := range spans {
		var id TraceID
		if k, err := hex.Decode(id[:], []byte(sd.TraceID)); err != nil || k != len(id) || id.IsZero() {
			continue
		}
		if _, ok := groups[id]; !ok {
			order = append(order, id)
		}
		groups[id] = append(groups[id], sd)
		n++
	}
	for _, id := range order {
		g := groups[id]
		td := &traceData{id: id, sampled: true, spans: g}
		for _, sd := range g {
			if sd.Error != "" {
				td.errored = true
			}
		}
		t.buf.add(td)
	}
	return n
}

// Merge unions the traces of several sources, such as a gateway's own
// buffer and each shard's, into one list. Traces sharing an ID become
// one; a span two sources both hold (same span ID) appears once, as the
// first source gave it; Sampled and Errored are OR-ed. The result is
// oldest first by each trace's earliest span start, ties by trace ID.
// The sources are not modified.
func Merge(sources ...[]TraceJSON) []TraceJSON {
	type spanKey struct{ trace, span string }
	out := []TraceJSON{}
	at := make(map[string]int)
	seen := make(map[spanKey]bool)
	for _, src := range sources {
		for _, tr := range src {
			i, ok := at[tr.TraceID]
			if !ok {
				i = len(out)
				at[tr.TraceID] = i
				out = append(out, TraceJSON{TraceID: tr.TraceID, Spans: []SpanData{}})
			}
			m := &out[i]
			m.Sampled = m.Sampled || tr.Sampled
			m.Errored = m.Errored || tr.Errored
			for _, sd := range tr.Spans {
				if k := (spanKey{tr.TraceID, sd.SpanID}); !seen[k] {
					seen[k] = true
					m.Spans = append(m.Spans, sd)
				}
			}
		}
	}
	earliest := func(tr TraceJSON) int64 {
		var first int64
		for i, sd := range tr.Spans {
			if i == 0 || sd.Start < first {
				first = sd.Start
			}
		}
		return first
	}
	slices.SortFunc(out, func(a, b TraceJSON) int {
		return cmp.Or(cmp.Compare(earliest(a), earliest(b)), strings.Compare(a.TraceID, b.TraceID))
	})
	return out
}

// chromeEvent is one entry of the Chrome trace-event format ("X"
// complete events plus "M" metadata), loadable in Perfetto and
// chrome://tracing.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`            // microseconds
	Dur   float64        `json:"dur,omitempty"` // microseconds
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeExport renders traces as a Chrome trace-event JSON object.
// Processes (services) map to pids; each trace gets its own tid so
// concurrent requests render as separate tracks, with span nesting
// expressed by the "X" events' time containment.
func chromeExport(traces []TraceJSON) map[string]any {
	pids := map[string]int{}
	var services []string
	for _, tr := range traces {
		for _, sd := range tr.Spans {
			if _, ok := pids[sd.Service]; !ok {
				pids[sd.Service] = 0
				services = append(services, sd.Service)
			}
		}
	}
	sort.Strings(services)
	events := make([]chromeEvent, 0, len(traces)*4+len(services))
	for i, svc := range services {
		pids[svc] = i + 1
		events = append(events, chromeEvent{
			Name: "process_name", Phase: "M", PID: i + 1, TID: 0,
			Args: map[string]any{"name": svc},
		})
	}
	for ti, tr := range traces {
		for _, sd := range tr.Spans {
			args := map[string]any{
				"trace_id": sd.TraceID,
				"span_id":  sd.SpanID,
			}
			if sd.ParentID != "" {
				args["parent_id"] = sd.ParentID
			}
			for _, a := range sd.Attrs {
				args[a.Key] = a.Value
			}
			if sd.Error != "" {
				args["error"] = sd.Error
			}
			events = append(events, chromeEvent{
				Name:  sd.Name,
				Cat:   "hostprof",
				Phase: "X",
				TS:    float64(sd.Start) / 1e3,
				Dur:   float64(sd.Duration) / 1e3,
				PID:   pids[sd.Service],
				TID:   ti + 1,
				Args:  args,
			})
			for _, ev := range sd.Events {
				events = append(events, chromeEvent{
					Name:  ev.Msg,
					Cat:   "hostprof",
					Phase: "i",
					TS:    float64(ev.UnixNano) / 1e3,
					PID:   pids[sd.Service],
					TID:   ti + 1,
					Args:  map[string]any{"trace_id": sd.TraceID, "span_id": sd.SpanID},
				})
			}
		}
	}
	return map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}
}

// Handler serves the trace buffer:
//
//	GET  /debug/traces                  → {"traces": [TraceJSON...]}
//	GET  /debug/traces?format=chrome    → Chrome trace-event JSON (Perfetto)
//	GET  /debug/traces?trace=<hex id>   → one trace (both formats)
//	POST /debug/traces                  → {"spans": [SpanData...]} merged in
//
// Safe on a nil receiver (serves 404s).
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if t == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		if r.Method == http.MethodPost {
			var body struct {
				Spans []SpanData `json:"spans"`
			}
			if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20)).Decode(&body); err != nil {
				http.Error(w, fmt.Sprintf("bad span payload: %v", err), http.StatusBadRequest)
				return
			}
			n := t.Ingest(body.Spans)
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]int{"accepted": n})
			return
		}
		var traces []TraceJSON
		if id := r.URL.Query().Get("trace"); id != "" {
			tr, ok := t.TraceByID(id)
			if !ok {
				http.Error(w, "no such trace", http.StatusNotFound)
				return
			}
			traces = []TraceJSON{tr}
		} else {
			traces = t.Traces()
		}
		WriteTraces(w, r, traces)
	})
}

// WriteTraces answers a GET /debug/traces with traces: Chrome
// trace-event JSON when r asks for format=chrome, {"traces": [...]}
// otherwise.
func WriteTraces(w http.ResponseWriter, r *http.Request, traces []TraceJSON) {
	w.Header().Set("Content-Type", "application/json")
	if r.URL.Query().Get("format") == "chrome" {
		json.NewEncoder(w).Encode(chromeExport(traces))
		return
	}
	json.NewEncoder(w).Encode(map[string]any{"traces": traces})
}
