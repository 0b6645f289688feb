package prof

import (
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// A Statusz is the single-page operational view: named sections whose
// bodies are computed at render time, served as HTML (each section a
// pretty-printed JSON block) or as one JSON object with ?format=json.
// Sections render in registration order. All methods are safe for
// concurrent use and on a nil receiver.
type Statusz struct {
	mu       sync.Mutex
	names    []string
	sections map[string]func() any
}

// NewStatusz returns a page pre-populated with a "build" section
// (module version, VCS revision, Go version, GOMAXPROCS, uptime).
func NewStatusz() *Statusz {
	s := &Statusz{sections: make(map[string]func() any)}
	start := time.Now()
	s.Section("build", func() any {
		info := map[string]any{
			"go_version": runtime.Version(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"uptime":     time.Since(start).Round(time.Second).String(),
		}
		if bi, ok := debug.ReadBuildInfo(); ok {
			info["module"] = bi.Main.Path
			if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
				info["version"] = bi.Main.Version
			}
			for _, kv := range bi.Settings {
				switch kv.Key {
				case "vcs.revision", "vcs.time", "vcs.modified":
					info[kv.Key] = kv.Value
				}
			}
		}
		return info
	})
	return s
}

// Section registers (or replaces) a named section. body is invoked per
// render, outside any page lock, and its return value must be
// JSON-marshalable. Safe on nil (no-op).
func (s *Statusz) Section(name string, body func() any) {
	if s == nil || body == nil {
		return
	}
	s.mu.Lock()
	if _, ok := s.sections[name]; !ok {
		s.names = append(s.names, name)
	}
	s.sections[name] = body
	s.mu.Unlock()
}

// render evaluates every section in registration order.
func (s *Statusz) render() ([]string, map[string]any) {
	s.mu.Lock()
	names := make([]string, len(s.names))
	copy(names, s.names)
	bodies := make([]func() any, len(names))
	for i, n := range names {
		bodies[i] = s.sections[n]
	}
	s.mu.Unlock()
	out := make(map[string]any, len(names))
	for i, n := range names {
		out[n] = bodies[i]()
	}
	return names, out
}

// Handler serves the page:
//
//	GET /debug/statusz              → HTML
//	GET /debug/statusz?format=json  → {"<section>": <body>, ...}
//
// Safe on a nil receiver (serves 404s).
func (s *Statusz) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s == nil {
			http.Error(w, "statusz disabled", http.StatusNotFound)
			return
		}
		names, sections := s.render()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(sections)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, "<!DOCTYPE html><html><head><title>hostprof statusz</title></head><body><h1>statusz</h1>")
		fmt.Fprint(w, `<p><a href="/metrics">/metrics</a> · <a href="/varz">/varz</a> · <a href="/debug/traces">/debug/traces</a></p>`)
		for _, n := range names {
			body, err := json.MarshalIndent(sections[n], "", "  ")
			if err != nil {
				body = []byte(fmt.Sprintf("render error: %v", err))
			}
			fmt.Fprintf(w, "<h2>%s</h2><pre>%s</pre>",
				html.EscapeString(n), html.EscapeString(string(body)))
		}
		fmt.Fprint(w, "</body></html>")
	})
}
