package cluster

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	"hostprof/internal/obs"
	"hostprof/internal/obs/httpmw"
)

// Event types recorded on the cluster timeline. The set is closed and
// documented here so dashboards and tests can match on it.
const (
	// EventShardUp / EventShardDown are liveness edges: the shard
	// answered a probe after not answering (or vice versa), or an
	// in-band request failure marked it dead.
	EventShardUp   = "shard_up"
	EventShardDown = "shard_down"
	// EventShardReady / EventShardUnready are readiness edges on an
	// alive shard (trained and durable vs. degraded or untrained).
	EventShardReady   = "shard_ready"
	EventShardUnready = "shard_unready"
	// EventModelVersion records a shard starting to serve a different
	// model version — distribution landing, or a restarted shard
	// recovering an old generation.
	EventModelVersion = "model_version"
	// EventRingRebalance records a ring rebuild from a membership
	// change: a completed resize migration.
	EventRingRebalance = "ring_rebalance"
	// EventShedOpen / EventShedClose bracket a shed window: the span
	// between the first request refused because its owning shard was
	// down and that shard answering a probe again.
	EventShedOpen  = "shed_open"
	EventShedClose = "shed_close"
	// EventMigration records a resize migration state-machine
	// transition (planning, copying, cutover, done, failed) with range
	// counts; EventMigrationRange records one range rolled back to its
	// old owner after exhausting its attempts.
	EventMigration      = "migration"
	EventMigrationRange = "migration_range"
)

// An Event is one structured entry on the cluster timeline. IDs are
// monotonically increasing per gateway, so ?since=<last seen id> is a
// stable cursor even as the ring evicts old entries.
type Event struct {
	ID       int64             `json:"id"`
	UnixNano int64             `json:"unix_nano"`
	Type     string            `json:"type"`
	Shard    string            `json:"shard,omitempty"`
	Msg      string            `json:"msg"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// eventLog is the bounded timeline ring: fixed capacity, oldest
// evicted. All methods are safe for concurrent use and on nil (the
// disabled state — record becomes a nil check).
type eventLog struct {
	mu     sync.Mutex
	cap    int
	nextID int64
	buf    []Event // oldest first
}

// eventBuffer is the gateway's timeline capacity, in events.
const eventBuffer = 512

func newEventLog(capacity int) *eventLog {
	return &eventLog{cap: capacity}
}

// record appends one event, stamping its ID and timestamp.
func (l *eventLog) record(typ, shard, msg string, attrs map[string]string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.nextID++
	ev := Event{
		ID:       l.nextID,
		UnixNano: time.Now().UnixNano(),
		Type:     typ,
		Shard:    shard,
		Msg:      msg,
		Attrs:    attrs,
	}
	if len(l.buf) >= l.cap {
		copy(l.buf, l.buf[1:])
		l.buf[len(l.buf)-1] = ev
	} else {
		l.buf = append(l.buf, ev)
	}
	l.mu.Unlock()
}

// since returns the retained events with ID > after, oldest first, and
// the newest assigned ID (the client's next cursor — valid even when
// no events matched).
func (l *eventLog) since(after int64) ([]Event, int64) {
	if l == nil {
		return nil, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	i := 0
	for i < len(l.buf) && l.buf[i].ID <= after {
		i++
	}
	out := make([]Event, len(l.buf)-i)
	copy(out, l.buf[i:])
	return out, l.nextID
}

// event records one timeline entry and counts it by type. attrs come
// as alternating key/value pairs.
func (g *Gateway) event(typ, shard, msg string, attrs ...string) {
	var m map[string]string
	if len(attrs) >= 2 {
		m = make(map[string]string, len(attrs)/2)
		for i := 0; i+1 < len(attrs); i += 2 {
			m[attrs[i]] = attrs[i+1]
		}
	}
	g.events.record(typ, shard, msg, m)
	g.reg.Counter("hostprof_gateway_events_total", obs.L("type", typ)).Inc()
}

// handleEvents serves GET /v1/cluster/events: the retained timeline as
// JSON, oldest first, filtered with ?since=<id> (strictly greater) and
// bounded with ?limit=<n>. last_id is the cursor for the next poll.
func (g *Gateway) handleEvents(w http.ResponseWriter, r *http.Request) {
	var after int64
	if s := r.URL.Query().Get("since"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil || v < 0 {
			httpmw.WriteError(w, http.StatusBadRequest, "bad since cursor: "+s)
			return
		}
		after = v
	}
	events, lastID := g.events.since(after)
	if s := r.URL.Query().Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			httpmw.WriteError(w, http.StatusBadRequest, "bad limit: "+s)
			return
		}
		if n < len(events) {
			events = events[len(events)-n:] // keep the newest
		}
	}
	httpmw.WriteJSON(w, http.StatusOK, map[string]any{
		"events":  events,
		"last_id": lastID,
	})
}
