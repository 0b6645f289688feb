package cluster

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"hostprof/internal/obs"
	"hostprof/internal/server"
)

// shardState is the gateway's view of one backend, updated by health
// probes and by request outcomes (a transport failure marks the shard
// dead immediately rather than waiting for the next probe). Guarded by
// Gateway.mu.
type shardState struct {
	name         string
	alive        bool // answered its last /readyz probe at all
	ready        bool // answered 200: trained and fully durable
	degraded     bool // serving memory-only (WAL detached)
	shedding     bool // a request was refused because this shard was down (shed window open)
	modelVersion string
	visits       int
	fails        int // consecutive failed probes
	lastErr      string
	lastProbe    time.Time
}

// ShardStatus is one shard's externally visible state (the /v1/cluster
// body element).
type ShardStatus struct {
	Backend      string `json:"backend"`
	Alive        bool   `json:"alive"`
	Ready        bool   `json:"ready"`
	Degraded     bool   `json:"degraded,omitempty"`
	ModelVersion string `json:"model_version,omitempty"`
	Visits       int    `json:"visits"`
	LastError    string `json:"last_error,omitempty"`
}

// ClusterStatus is the gateway's /v1/cluster (and /readyz detail) body.
type ClusterStatus struct {
	Backends     int              `json:"backends"`
	AliveShards  int              `json:"alive_shards"`
	ReadyShards  int              `json:"ready_shards"`
	ModelVersion string           `json:"model_version,omitempty"` // consensus version, "" when shards disagree or none trained
	Converged    bool             `json:"converged"`               // every alive shard serves the same non-empty version
	Shards       []ShardStatus    `json:"shards"`
	Migration    *MigrationStatus `json:"migration,omitempty"` // installed resize, or the last finished one
}

// wireShardGauges registers the per-backend health gauges. The
// callbacks read live state under g.mu at scrape time; a backend a
// finished resize pruned scrapes as 0/0 rather than unregistering (the
// registry keeps families forever — cheap, and the zeros document the
// departure).
func (g *Gateway) wireShardGauges(name string) {
	lbl := obs.L("backend", name)
	read := func(f func(*shardState) float64) func() float64 {
		return func() float64 {
			g.mu.Lock()
			defer g.mu.Unlock()
			s := g.shards[name]
			if s == nil {
				return 0
			}
			return f(s)
		}
	}
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	g.reg.GaugeFunc("hostprof_gateway_shard_up", read(func(s *shardState) float64 { return b2f(s.alive) }), lbl)
	g.reg.GaugeFunc("hostprof_gateway_shard_ready", read(func(s *shardState) float64 { return b2f(s.ready) }), lbl)
}

// CheckHealth probes every shard's /readyz once, in parallel, and
// updates membership state. Returns the number of alive shards.
func (g *Gateway) CheckHealth(ctx context.Context) int {
	g.mu.Lock()
	names := make([]string, 0, len(g.shards))
	for name := range g.shards {
		names = append(names, name)
	}
	g.mu.Unlock()

	var wg sync.WaitGroup
	for _, name := range names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			g.probeShard(ctx, name)
		}(name)
	}
	wg.Wait()

	g.mu.Lock()
	defer g.mu.Unlock()
	alive := 0
	for _, s := range g.shards {
		if s.alive {
			alive++
		}
	}
	return alive
}

// probeShard performs one /readyz exchange and folds the answer into
// the shard's state. Any HTTP answer (200 or 503) proves liveness; only
// a transport error marks the shard dead.
func (g *Gateway) probeShard(ctx context.Context, name string) {
	ctx, cancel := context.WithTimeout(ctx, g.cfg.ShardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, name+"/readyz", nil)
	if err != nil {
		g.markProbe(name, false, server.Readiness{}, err.Error())
		return
	}
	resp, err := g.client.Do(req)
	if err != nil {
		g.markProbe(name, false, server.Readiness{}, err.Error())
		return
	}
	defer resp.Body.Close()
	var rd server.Readiness
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&rd); err != nil {
		// Alive (it answered), but the body is not a shard readiness —
		// treat as not ready so no traffic routes there.
		g.markProbe(name, true, server.Readiness{}, "bad readyz body: "+err.Error())
		return
	}
	g.markProbe(name, true, rd, "")
}

// markProbe records a probe outcome. Transitions are logged once per
// edge, not per probe.
func (g *Gateway) markProbe(name string, alive bool, rd server.Readiness, errMsg string) {
	g.mu.Lock()
	s := g.shards[name]
	if s == nil { // pruned by a resize that finished meanwhile
		g.mu.Unlock()
		return
	}
	wasAlive, wasReady := s.alive, s.ready
	oldVersion := s.modelVersion
	shedClosed := alive && s.shedding
	if shedClosed {
		s.shedding = false
	}
	s.alive = alive
	s.ready = alive && rd.Ready
	s.degraded = rd.StoreDegraded
	s.modelVersion = rd.ModelVersion
	s.visits = rd.Visits
	s.lastErr = errMsg
	s.lastProbe = time.Now()
	if alive {
		s.fails = 0
	} else {
		s.fails++
	}
	nowReady := s.ready
	g.mu.Unlock()
	if wasAlive != alive {
		if alive {
			g.event(EventShardUp, name, "shard answering probes again")
		} else {
			g.event(EventShardDown, name, "shard stopped answering probes", "err", errMsg)
		}
	}
	if wasReady != nowReady {
		if nowReady {
			g.event(EventShardReady, name, "shard ready",
				"model_version", rd.ModelVersion)
		} else if wasAlive == alive { // the liveness event already tells the story
			g.event(EventShardUnready, name, "shard alive but not ready", "err", errMsg)
		}
	}
	if shedClosed {
		g.event(EventShedClose, name, "shed window closed: shard is back")
	}
	if alive && rd.ModelVersion != oldVersion && rd.ModelVersion != "" {
		g.event(EventModelVersion, name, "shard serving a new model version",
			"from", oldVersion, "to", rd.ModelVersion)
	}
	if wasAlive != alive || wasReady != nowReady {
		g.log.Info("shard state change",
			slog.String("backend", name),
			slog.Bool("alive", alive),
			slog.Bool("ready", alive && rd.Ready),
			slog.String("model_version", rd.ModelVersion),
			slog.String("err", errMsg))
	}
}

// markDead records an in-band transport failure (a proxied request that
// could not reach the shard), so routing stops before the next probe.
func (g *Gateway) markDead(name string, err error) {
	g.mu.Lock()
	s := g.shards[name]
	if s != nil && (s.alive || s.ready) {
		s.alive, s.ready = false, false
		s.fails++
		s.lastErr = err.Error()
		g.mu.Unlock()
		g.event(EventShardDown, name, "shard marked dead on request failure",
			"err", err.Error())
		g.log.Warn("shard marked dead on request failure",
			slog.String("backend", name), slog.String("err", err.Error()))
		return
	}
	g.mu.Unlock()
}

// noteShed records the shed-window-open edge for a down shard: the
// first refused request opens the window (one event, however many
// requests are refused inside it); the window closes when the shard
// answers a probe again (markProbe).
func (g *Gateway) noteShed(name string) {
	g.mu.Lock()
	s := g.shards[name]
	opened := s != nil && !s.shedding
	if opened {
		s.shedding = true
	}
	g.mu.Unlock()
	if opened {
		g.event(EventShedOpen, name, "shed window opened: requests for this shard's keyspace refused")
	}
}

// shardSnapshot returns a copy of one shard's state (zero value when
// unknown).
func (g *Gateway) shardSnapshot(name string) shardState {
	g.mu.Lock()
	defer g.mu.Unlock()
	if s := g.shards[name]; s != nil {
		return *s
	}
	return shardState{name: name}
}

// readyShards returns the shards currently routable for model-dependent
// work, in ring order.
func (g *Gateway) readyShards() []string {
	nodes := g.Ring().Nodes()
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if s := g.shards[n]; s != nil && s.ready {
			out = append(out, n)
		}
	}
	return out
}

// aliveShards returns the shards answering probes, in ring order.
func (g *Gateway) aliveShards() []string {
	nodes := g.Ring().Nodes()
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if s := g.shards[n]; s != nil && s.alive {
			out = append(out, n)
		}
	}
	return out
}

// trainNode returns the designated training shard: the first alive
// backend in membership order (the live membership, which a completed
// resize rewrites — not the frozen config). Deterministic given the
// same health view, so concurrent retrains pick the same node; "" when
// the whole cluster is down.
func (g *Gateway) trainNode() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, name := range g.backends {
		if s := g.shards[name]; s != nil && s.alive {
			return name
		}
	}
	return ""
}

// ClusterStatus snapshots cluster health for /v1/cluster and the
// gateway's own /readyz.
func (g *Gateway) ClusterStatus() ClusterStatus {
	nodes := g.Ring().Nodes()
	st := ClusterStatus{Backends: len(nodes), Shards: make([]ShardStatus, 0, len(nodes))}
	consensus, mixed := "", false
	g.mu.Lock()
	for _, n := range nodes {
		s := g.shards[n]
		if s == nil {
			s = &shardState{name: n}
		}
		st.Shards = append(st.Shards, ShardStatus{
			Backend:      n,
			Alive:        s.alive,
			Ready:        s.ready,
			Degraded:     s.degraded,
			ModelVersion: s.modelVersion,
			Visits:       s.visits,
			LastError:    s.lastErr,
		})
		if s.alive {
			st.AliveShards++
			switch {
			case s.modelVersion == "":
				mixed = true
			case consensus == "":
				consensus = s.modelVersion
			case consensus != s.modelVersion:
				mixed = true
			}
		}
		if s.ready {
			st.ReadyShards++
		}
	}
	last := g.lastMigration
	g.mu.Unlock()
	if !mixed && consensus != "" {
		st.ModelVersion = consensus
		st.Converged = st.AliveShards > 0
	}
	if m := g.migration.Load(); m != nil {
		ms := m.Status()
		st.Migration = &ms
	} else {
		st.Migration = last
	}
	return st
}
