package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hostprof/internal/obs"
	"hostprof/internal/obs/httpmw"
	"hostprof/internal/obs/prof"
	"hostprof/internal/obs/tracer"
)

// Config assembles a Gateway.
type Config struct {
	// Backends lists the shard base URLs (e.g. "http://127.0.0.1:8421").
	// Order matters for one thing only: the designated training node is
	// the first healthy backend in this order. Placement comes from the
	// ring, which is order-independent.
	Backends []string
	// VirtualNodes per backend on the ring (default
	// DefaultVirtualNodes).
	VirtualNodes int
	// ShardTimeout bounds every proxied shard request (report,
	// feedback, one batch chunk, health probe). Default 5s. A shard
	// past its deadline degrades that request only — scatter-gather
	// returns the other shards' results.
	ShardTimeout time.Duration
	// RetrainTimeout bounds the synchronous retrain forward plus model
	// distribution. Default 10m.
	RetrainTimeout time.Duration
	// HealthInterval is the readiness-poll cadence. <= 0 disables the
	// background loop; CheckHealth can still be driven manually.
	HealthInterval time.Duration
	// ShardRetries re-sends a shard request the shard shed (429, or 503
	// with Retry-After) before giving up, reusing the extension
	// client's backoff schedule (server.RetryDelay). Default 2;
	// negative disables.
	ShardRetries int
	// RetryBase/RetryMax bound the backoff (defaults 50ms / 1s).
	RetryBase, RetryMax time.Duration
	// MaxSessionsPerBatch caps a gateway batch (default 2048). The
	// gateway re-chunks below every shard's own limit, so its cap can
	// exceed a single backend's.
	MaxSessionsPerBatch int
	// ShardBatchLimit is the largest chunk sent to one shard in one
	// request (default 256, the backend's MaxSessionsPerBatch default).
	ShardBatchLimit int
	// MigrationChunk is the visit-record count per export/import call
	// while a resize migration copies a user's history (default 4096).
	MigrationChunk int
	// MigrationThrottle, when positive, sleeps between migration copy
	// chunks. Production resizes leave it zero; tests use it to hold
	// the double-write window open deterministically.
	MigrationThrottle time.Duration
	// MigrationWorkers bounds concurrently copying key ranges during a
	// resize (default 4).
	MigrationWorkers int
	// MigrationAttempts bounds freeze→copy→verify rounds per range
	// before the range is rolled back to its old owner (default 3).
	MigrationAttempts int
	// NoAutoSync disables the health loop's model anti-entropy: by
	// default, when a polled shard serves a different model version
	// than the designated node (a restarted shard that recovered an
	// old generation, a node that missed a distribution), the gateway
	// re-ships the artifact.
	NoAutoSync bool
	// SLOTargets maps endpoint names ("report", "profile_batch") to
	// latency SLO targets, exported as hostprof_gateway_slo_* gauges
	// over a five-minute sliding window. Every target is a bucket bound
	// of hostprof_gateway_request_seconds. Empty disables gateway SLOs —
	// the per-request cost collapses to a nil check.
	SLOTargets map[string]time.Duration
	// SlowRequest, when positive, logs one structured warning per
	// gateway request slower than this (with its trace ID and stage
	// breakdown) and records it on /debug/statusz.
	SlowRequest time.Duration
	// EventBuffer is the cluster timeline capacity (default 512
	// events).
	EventBuffer int
	// FederationTTL bounds how stale the cached shard /varz scrapes
	// behind /v1/cluster/metrics may get before a read re-scrapes
	// (default 2s).
	FederationTTL time.Duration
	// Metrics, when non-nil, is the registry the gateway exports into
	// (hostprof_gateway_* names). Nil creates a private registry.
	Metrics *obs.Registry
	// Tracer, when non-nil, traces every gateway request; proxied shard
	// calls carry the gateway span's traceparent, so one trace covers
	// client → gateway → shard.
	Tracer *tracer.Tracer
	// Logger receives structured logs. Nil selects slog.Default().
	Logger *slog.Logger
	// HTTPClient overrides the shard transport (tests). Nil builds one
	// with sane pooling.
	HTTPClient *http.Client
}

func (c Config) withDefaults() Config {
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = DefaultVirtualNodes
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 5 * time.Second
	}
	if c.RetrainTimeout <= 0 {
		c.RetrainTimeout = 10 * time.Minute
	}
	if c.ShardRetries == 0 {
		c.ShardRetries = 2
	}
	if c.ShardRetries < 0 {
		c.ShardRetries = 0
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = time.Second
	}
	if c.MaxSessionsPerBatch <= 0 {
		c.MaxSessionsPerBatch = 2048
	}
	if c.MigrationChunk <= 0 {
		c.MigrationChunk = 4096
	}
	if c.MigrationWorkers <= 0 {
		c.MigrationWorkers = 4
	}
	if c.MigrationAttempts <= 0 {
		c.MigrationAttempts = 3
	}
	if c.ShardBatchLimit <= 0 {
		c.ShardBatchLimit = 256
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = 512
	}
	if c.FederationTTL <= 0 {
		c.FederationTTL = 2 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Gateway is the cluster's stateless router. All methods are safe for
// concurrent use.
type Gateway struct {
	cfg    Config
	reg    *obs.Registry
	met    gatewayMetrics
	tr     *tracer.Tracer
	log    *slog.Logger
	client *http.Client

	// observability plane: the cluster event timeline, the federated
	// shard-metrics cache, the statusz page, and the handler wrapper
	// holding the gateway's own SLOs and slow-request log.
	events  *eventLog
	fed     *federator
	statusz *prof.Statusz
	mw      httpmw.Config

	ringMu sync.Mutex
	ring   *Ring

	// migration is the installed resize operation, nil when idle. The
	// pointer is read lock-free on every routed request; migBarrier
	// gives installation a drain point: forwarders hold it shared for a
	// write's duration, so after install takes (and releases) it
	// exclusively, every in-flight write predating the migration has
	// finished and all later writes see it. resizeMu serializes
	// Resize/SetBackends calls against each other.
	migration  atomic.Pointer[Migration]
	migBarrier sync.RWMutex
	resizeMu   sync.Mutex

	mu     sync.Mutex
	shards map[string]*shardState
	// backends is the live membership — cfg.Backends at build time,
	// replaced when a migration completes or SetBackends swaps the
	// ring. trainNode and model anti-entropy iterate this, not the
	// frozen config.
	backends      []string
	lastMigration *MigrationStatus
	// modelVersion/modelData cache the last artifact the gateway pulled,
	// so distribution and anti-entropy re-GET a shard's model only when
	// the version actually changed (If-None-Match → 304).
	modelVersion string
	modelData    []byte

	stop      chan struct{}
	wg        sync.WaitGroup
	startOnce sync.Once
	closeOnce sync.Once
}

// gatewayMetrics caches the gateway's registry handles.
type gatewayMetrics struct {
	shed         *obs.Counter
	retries      *obs.Counter
	rebalances   *obs.Counter
	batchPartial *obs.Counter
	modelPushes  *obs.Counter
	pushErrors   *obs.Counter

	// migration lifecycle
	migStarts        *obs.Counter
	migResumes       *obs.Counter
	migDone          *obs.Counter
	migFailed        *obs.Counter
	migRangesDone    *obs.Counter
	migRangesAborted *obs.Counter
	migRecords       *obs.Counter
	doubleWrites     *obs.Counter
	doubleWriteErrs  *obs.Counter
}

func newGatewayMetrics(reg *obs.Registry) gatewayMetrics {
	reg.Describe("hostprof_gateway_requests_total", "gateway requests, by endpoint and status code")
	reg.Describe("hostprof_gateway_request_seconds", "gateway request latency, by endpoint")
	reg.Describe("hostprof_gateway_shard_requests_total", "proxied shard requests, by backend and status code")
	reg.Describe("hostprof_gateway_shard_request_seconds", "proxied shard request latency, by backend")
	reg.Describe("hostprof_gateway_shard_errors_total", "shard transport failures, by backend")
	reg.Describe("hostprof_gateway_shard_up", "1 when the shard answered its last health probe, by backend")
	reg.Describe("hostprof_gateway_shard_ready", "1 when the shard reported ready, by backend")
	reg.Describe("hostprof_gateway_model_version", "numeric prefix of the shard's model version (0 = untrained), by backend")
	reg.Describe("hostprof_gateway_shed_total", "requests refused because the owning shard is down (its keyspace is shed)")
	reg.Describe("hostprof_gateway_retries_total", "shard requests re-sent after a shed answer")
	reg.Describe("hostprof_gateway_ring_rebalance_total", "ring rebuilds from membership changes")
	reg.Describe("hostprof_gateway_batch_partial_total", "scatter-gather batches answered with partial results")
	reg.Describe("hostprof_gateway_model_pushes_total", "model artifacts pushed to shards")
	reg.Describe("hostprof_gateway_events_total", "cluster timeline events recorded, by type")
	reg.Describe("hostprof_gateway_worst_shard_burn_rate", "largest hostprof_slo_burn_rate any shard reported in the cached federation view")
	return gatewayMetrics{
		shed:         reg.Counter("hostprof_gateway_shed_total"),
		retries:      reg.Counter("hostprof_gateway_retries_total"),
		rebalances:   reg.Counter("hostprof_gateway_ring_rebalance_total"),
		batchPartial: reg.Counter("hostprof_gateway_batch_partial_total"),
		modelPushes:  reg.Counter("hostprof_gateway_model_pushes_total", obs.L("outcome", "ok")),
		pushErrors:   reg.Counter("hostprof_gateway_model_pushes_total", obs.L("outcome", "error")),

		migStarts:        reg.Counter("hostprof_gateway_migrations_total", obs.L("outcome", "started")),
		migResumes:       reg.Counter("hostprof_gateway_migrations_total", obs.L("outcome", "resumed")),
		migDone:          reg.Counter("hostprof_gateway_migrations_total", obs.L("outcome", "done")),
		migFailed:        reg.Counter("hostprof_gateway_migrations_total", obs.L("outcome", "failed")),
		migRangesDone:    reg.Counter("hostprof_gateway_migration_ranges_total", obs.L("outcome", "done")),
		migRangesAborted: reg.Counter("hostprof_gateway_migration_ranges_total", obs.L("outcome", "aborted")),
		migRecords:       reg.Counter("hostprof_gateway_migration_records_total"),
		doubleWrites:     reg.Counter("hostprof_gateway_migration_double_writes_total", obs.L("outcome", "ok")),
		doubleWriteErrs:  reg.Counter("hostprof_gateway_migration_double_writes_total", obs.L("outcome", "error")),
	}
}

// New validates cfg and builds a gateway. The ring is built immediately
// (placement needs no I/O); every shard starts unknown-dead until the
// first health probe, so call Start (or CheckHealth) before serving.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: gateway needs at least one backend")
	}
	ring, err := NewRing(cfg.Backends, cfg.VirtualNodes)
	if err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	client := cfg.HTTPClient
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	g := &Gateway{
		cfg:      cfg,
		reg:      reg,
		met:      newGatewayMetrics(reg),
		tr:       cfg.Tracer,
		log:      cfg.Logger,
		client:   client,
		events:   newEventLog(cfg.EventBuffer),
		fed:      &federator{ttl: cfg.FederationTTL},
		ring:     ring,
		shards:   make(map[string]*shardState, len(cfg.Backends)),
		backends: append([]string(nil), cfg.Backends...),
		stop:     make(chan struct{}),
	}
	g.mw = httpmw.Config{
		MetricPrefix: "hostprof_gateway",
		SpanPrefix:   "gw.",
		Metrics:      reg,
		Tracer:       cfg.Tracer,
		Logger:       cfg.Logger,
		SlowRequest:  cfg.SlowRequest,
		SLOs:         prof.NewSLOTracker("hostprof_gateway_slo", "hostprof_gateway_request_seconds", cfg.SLOTargets, reg),
	}
	if cfg.SlowRequest > 0 {
		g.mw.SlowLog = prof.NewSlowLog(32)
	}
	for _, b := range cfg.Backends {
		g.shards[b] = &shardState{name: b}
		g.wireShardGauges(b)
	}
	g.registerMigrationMetrics()
	reg.GaugeFunc("hostprof_gateway_worst_shard_burn_rate", g.worstShardBurnRate)
	g.statusz = g.buildStatusz()
	return g, nil
}

// buildStatusz assembles the gateway's /debug/statusz: the cluster
// view, gateway SLOs, the newest timeline events, the federation
// scrape ledger and the slow-request log — the one-pager an operator
// opens first.
func (g *Gateway) buildStatusz() *prof.Statusz {
	sz := prof.NewStatusz()
	sz.Section("cluster", func() any { return g.ClusterStatus() })
	sz.Section("slo", func() any { return g.mw.SLOs.Status() })
	sz.Section("events", func() any { return g.events.last(50) })
	sz.Section("federation", func() any { return scrapeStatuses(g.fed.cached()) })
	sz.Section("slow_requests", func() any { return g.mw.SlowLog.Snapshot() })
	return sz
}

// Metrics returns the registry the gateway exports into.
func (g *Gateway) Metrics() *obs.Registry { return g.reg }

// Ring returns the current placement ring.
func (g *Gateway) Ring() *Ring {
	g.ringMu.Lock()
	defer g.ringMu.Unlock()
	return g.ring
}

// SetBackends rebuilds the ring over a new member set WITHOUT migrating
// any data — the raw swap behind a data-free topology change (all-new
// cluster, test fixtures). A resize that must preserve users' histories
// goes through Resize instead, which refuses to coexist with this:
// SetBackends errors while a migration is installed. Counted in
// hostprof_gateway_ring_rebalance_total.
func (g *Gateway) SetBackends(backends []string) error {
	ring, err := NewRing(backends, g.cfg.VirtualNodes)
	if err != nil {
		return err
	}
	if m := g.migration.Load(); m != nil {
		return fmt.Errorf("cluster: cannot swap backends while a migration is installed (state %s)", m.Status().State)
	}
	g.ringMu.Lock()
	changed := !g.ring.Equal(backends)
	g.ring = ring
	g.ringMu.Unlock()
	if !changed {
		return nil
	}
	g.met.rebalances.Inc()
	g.mu.Lock()
	g.backends = append([]string(nil), backends...)
	for _, b := range backends {
		if g.shards[b] == nil {
			g.shards[b] = &shardState{name: b}
			g.wireShardGauges(b)
		}
	}
	keep := make(map[string]bool, len(backends))
	for _, b := range backends {
		keep[b] = true
	}
	for name := range g.shards {
		if !keep[name] {
			delete(g.shards, name)
		}
	}
	g.mu.Unlock()
	g.event(EventRingRebalance, "", "ring rebalanced over new membership",
		"backends", strconv.Itoa(len(backends)))
	g.log.Info("gateway ring rebalanced", slog.Int("backends", len(backends)))
	return nil
}

// Start launches the health loop (when HealthInterval > 0) after one
// synchronous probe pass, so the first proxied request already knows
// which shards are up.
func (g *Gateway) Start(ctx context.Context) {
	g.startOnce.Do(func() {
		g.CheckHealth(ctx)
		if g.cfg.HealthInterval > 0 {
			g.wg.Add(1)
			go g.healthLoop()
		}
	})
}

// Close stops the health loop.
func (g *Gateway) Close() {
	g.closeOnce.Do(func() {
		close(g.stop)
		g.wg.Wait()
	})
}

func (g *Gateway) healthLoop() {
	defer g.wg.Done()
	t := time.NewTicker(g.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), g.cfg.ShardTimeout)
			g.CheckHealth(ctx)
			if !g.cfg.NoAutoSync {
				g.SyncModels(ctx)
			}
			cancel()
		case <-g.stop:
			return
		}
	}
}

// Handler returns the gateway's HTTP API — wire-compatible with a
// single backend for everything a client uses, so pointing an
// Extension at a gateway instead of a backend changes nothing:
//
//	POST /v1/report         → forwarded to the user's owning shard
//	POST /v1/feedback       → forwarded to the user's owning shard
//	POST /v1/profile/batch  → scatter-gather across ready shards
//	POST /v1/retrain        → designated shard trains, model distributed
//	GET  /v1/stats          → aggregated across live shards
//	GET  /v1/cluster        → ring, shard health, model versions, migration
//	POST /v1/cluster/resize → start/resume/join a keyspace migration
//	GET  /v1/cluster/metrics→ federated shard metrics, merged (partial on scrape failures)
//	GET  /v1/cluster/events → the cluster event timeline (?since=<id> cursor)
//	GET  /metrics           → gateway metrics + shard="<name>"-labelled federated series
//	GET  /varz              → gateway metrics (JSON)
//	GET  /healthz           → gateway liveness
//	GET  /readyz            → 200 when ≥1 shard is alive ("degraded" mid-migration)
//	GET  /debug/traces      → distributed traces (gateway spans + shard-pushed spans)
//	GET  /debug/statusz     → cluster one-pager (health, SLOs, events, federation)
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/report", g.mw.Wrap("report", g.handleReport))
	mux.HandleFunc("POST /v1/feedback", g.mw.Wrap("feedback", g.handleFeedback))
	mux.HandleFunc("POST /v1/profile/batch", g.mw.Wrap("profile_batch", g.handleProfileBatch))
	mux.HandleFunc("POST /v1/retrain", g.mw.Wrap("retrain", g.handleRetrain))
	mux.HandleFunc("GET /v1/stats", g.mw.Wrap("stats", g.handleStats))
	mux.HandleFunc("GET /v1/cluster", g.mw.Wrap("cluster", g.handleCluster))
	mux.HandleFunc("POST /v1/cluster/resize", g.mw.Wrap("cluster_resize", g.handleResize))
	mux.HandleFunc("GET /v1/cluster/metrics", g.mw.Wrap("cluster_metrics", g.handleClusterMetrics))
	mux.HandleFunc("GET /v1/cluster/events", g.mw.Wrap("cluster_events", g.handleEvents))
	mux.Handle("GET /metrics", g.federatedMetricsHandler())
	mux.Handle("GET /varz", g.reg.VarzHandler())
	mux.Handle("GET /healthz", obs.HealthzHandler(nil))
	mux.HandleFunc("GET /readyz", g.handleReadyz)
	mux.Handle("GET /debug/statusz", g.statusz.Handler())
	if g.tr.Enabled() {
		mux.Handle("/debug/traces", g.tr.Handler())
	}
	return mux
}
