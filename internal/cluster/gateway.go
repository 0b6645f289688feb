package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"strings"
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
	// Backends lists the shard base URLs (e.g. "http://127.0.0.1:8421";
	// a bare "host:port" gets http://, see normalizeBackends).
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
	// background loop; CheckHealth can still be driven manually. It is
	// also how long a /v1/cluster/metrics scrape stays fresh: with the
	// loop off, every read re-scrapes.
	HealthInterval time.Duration
	// SLOTargets maps endpoint names ("report", "profile_batch") to
	// latency SLO targets, exported as hostprof_gateway_slo_* gauges
	// over a five-minute sliding window. Every target is a bucket bound
	// of hostprof_gateway_request_seconds. Empty disables gateway SLOs —
	// the per-request cost collapses to a nil check.
	SLOTargets map[string]time.Duration
	// SlowRequest, when positive, logs one structured warning per
	// gateway request slower than this, with its trace ID and stage
	// breakdown.
	SlowRequest time.Duration
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
	// shard-metrics cache, and the handler wrapper holding the
	// gateway's own SLOs.
	events *eventLog
	fed    *federator
	mw     httpmw.Config

	ringMu sync.Mutex
	ring   *Ring

	// migration is the installed resize operation, nil when idle. The
	// pointer is read lock-free on every routed request; migBarrier
	// gives installation a drain point: forwarders hold it shared for a
	// write's duration, so after install takes (and releases) it
	// exclusively, every in-flight write predating the migration has
	// finished and all later writes see it. resizeMu serializes Resize
	// calls against each other.
	migration  atomic.Pointer[Migration]
	migBarrier sync.RWMutex
	resizeMu   sync.Mutex

	mu     sync.Mutex
	shards map[string]*shardState
	// backends is the live membership — cfg.Backends at build time,
	// replaced when a migration completes. trainNode and model
	// anti-entropy iterate this, not the frozen config.
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
}

func newGatewayMetrics(reg *obs.Registry) gatewayMetrics {
	reg.Describe("hostprof_gateway_requests_total", "gateway requests, by endpoint and status code")
	reg.Describe("hostprof_gateway_request_seconds", "gateway request latency, by endpoint")
	reg.Describe("hostprof_gateway_shard_requests_total", "proxied shard requests, by backend and status code")
	reg.Describe("hostprof_gateway_shard_request_seconds", "proxied shard request latency, by backend")
	reg.Describe("hostprof_gateway_shard_errors_total", "shard transport failures, by backend")
	reg.Describe("hostprof_gateway_shard_up", "1 when the shard answered its last health probe, by backend")
	reg.Describe("hostprof_gateway_shard_ready", "1 when the shard reported ready, by backend")
	reg.Describe("hostprof_gateway_shed_total", "requests refused because the owning shard is down (its keyspace is shed)")
	reg.Describe("hostprof_gateway_retries_total", "shard requests re-sent after a shed answer")
	reg.Describe("hostprof_gateway_batch_partial_total", "scatter-gather batches answered with partial results")
	reg.Describe("hostprof_gateway_model_pushes_total", "model artifacts pushed to shards")
	reg.Describe("hostprof_gateway_events_total", "cluster timeline events recorded, by type")
	reg.Describe("hostprof_gateway_migration_ranges_total", "moved key ranges finished, by outcome")
	reg.Describe("hostprof_gateway_migrations_total", "resize migrations, by outcome")
	return gatewayMetrics{
		shed:         reg.Counter("hostprof_gateway_shed_total"),
		retries:      reg.Counter("hostprof_gateway_retries_total"),
		batchPartial: reg.Counter("hostprof_gateway_batch_partial_total"),
		modelPushes:  reg.Counter("hostprof_gateway_model_pushes_total", obs.L("outcome", "ok")),
		pushErrors:   reg.Counter("hostprof_gateway_model_pushes_total", obs.L("outcome", "error")),

		migStarts:        reg.Counter("hostprof_gateway_migrations_total", obs.L("outcome", "started")),
		migResumes:       reg.Counter("hostprof_gateway_migrations_total", obs.L("outcome", "resumed")),
		migDone:          reg.Counter("hostprof_gateway_migrations_total", obs.L("outcome", "done")),
		migFailed:        reg.Counter("hostprof_gateway_migrations_total", obs.L("outcome", "failed")),
		migRangesDone:    reg.Counter("hostprof_gateway_migration_ranges_total", obs.L("outcome", "done")),
		migRangesAborted: reg.Counter("hostprof_gateway_migration_ranges_total", obs.L("outcome", "aborted")),
	}
}

// normalizeBackends is the one backend normalization, applied by New
// and Resize alike: each entry is trimmed of surrounding
// whitespace, empty entries are dropped (a trailing comma on the
// command line), a scheme-less host:port gets http://, and trailing
// slashes go. An entry with inner whitespace or no host is refused, as
// is a list with no entry left.
func normalizeBackends(in []string) ([]string, error) {
	out := make([]string, 0, len(in))
	for _, b := range in {
		s := strings.TrimSpace(b)
		if s == "" {
			continue
		}
		if !strings.Contains(s, "://") {
			s = "http://" + s
		}
		s = strings.TrimRight(s, "/")
		// url.Parse tolerates spaces in hostnames; a dial never will.
		if u, err := url.Parse(s); err != nil || u.Host == "" || strings.ContainsAny(s, " \t\r\n") {
			return nil, fmt.Errorf("cluster: bad backend URL %q", b)
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, errors.New("cluster: gateway needs at least one backend")
	}
	return out, nil
}

// New validates cfg and builds a gateway. The ring is built immediately
// (placement needs no I/O); every shard starts unknown-dead until the
// first health probe, so call Start (or CheckHealth) before serving.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	backends, err := normalizeBackends(cfg.Backends)
	if err != nil {
		return nil, err
	}
	cfg.Backends = backends
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
		events:   newEventLog(eventBuffer),
		fed:      &federator{ttl: cfg.HealthInterval},
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
	for _, b := range cfg.Backends {
		g.shards[b] = &shardState{name: b}
		g.wireShardGauges(b)
	}
	return g, nil
}

// Metrics returns the registry the gateway exports into.
func (g *Gateway) Metrics() *obs.Registry { return g.reg }

// Ring returns the current placement ring.
func (g *Gateway) Ring() *Ring {
	g.ringMu.Lock()
	defer g.ringMu.Unlock()
	return g.ring
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
			g.SyncModels(ctx)
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
//	GET  /metrics           → gateway metrics
//	GET  /varz              → gateway metrics (JSON)
//	GET  /healthz           → gateway liveness
//	GET  /readyz            → 200 when ≥1 shard is alive ("degraded" mid-migration)
//	GET  /debug/traces      → distributed traces (gateway spans merged with each alive shard's at read time)
//	POST /debug/traces      → client-pushed spans merged into the gateway's buffer
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
	mux.Handle("GET /metrics", g.reg.MetricsHandler())
	mux.Handle("GET /varz", g.reg.VarzHandler())
	mux.Handle("GET /healthz", obs.HealthzHandler(nil))
	mux.HandleFunc("GET /readyz", g.handleReadyz)
	if g.tr.Enabled() {
		mux.HandleFunc("GET /debug/traces", g.handleTraces)
		mux.Handle("POST /debug/traces", g.tr.Handler())
	}
	return mux
}
