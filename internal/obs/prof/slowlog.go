package prof

import (
	"sync"
	"time"
)

// A SlowEntry is one recorded slow request: what breached, by how
// much, and the trace ID that explains it.
type SlowEntry struct {
	Endpoint string  `json:"endpoint"`
	Code     int     `json:"code"`
	Seconds  float64 `json:"seconds"`
	TraceID  string  `json:"trace_id,omitempty"`
	UnixNano int64   `json:"unix_nano"`
}

// A SlowLog retains the most recent slow requests for /debug/statusz.
// Fixed capacity, oldest evicted. Safe for concurrent use and on a nil
// receiver.
type SlowLog struct {
	mu      sync.Mutex
	cap     int
	entries []SlowEntry // oldest first
}

// NewSlowLog returns a log retaining the most recent n entries
// (non-positive selects 32).
func NewSlowLog(n int) *SlowLog {
	if n <= 0 {
		n = 32
	}
	return &SlowLog{cap: n}
}

// Add records one slow request. Safe on nil.
func (l *SlowLog) Add(e SlowEntry) {
	if l == nil {
		return
	}
	if e.UnixNano == 0 {
		e.UnixNano = time.Now().UnixNano()
	}
	l.mu.Lock()
	if len(l.entries) >= l.cap {
		l.entries = l.entries[1:]
	}
	l.entries = append(l.entries, e)
	l.mu.Unlock()
}

// Snapshot lists the retained entries, newest first. Safe on nil.
func (l *SlowLog) Snapshot() []SlowEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowEntry, len(l.entries))
	for i, e := range l.entries {
		out[len(out)-1-i] = e
	}
	return out
}
