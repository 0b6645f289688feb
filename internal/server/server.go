// Package server implements the experiment back-end of paper Section 5:
// an HTTP service that receives hostname reports from instrumented
// clients (the paper's Chrome extension), maintains the visit store,
// retrains the embedding model on demand (the paper retrained daily),
// profiles the reporting user's last T minutes and answers with a list
// of relevant ads; a second endpoint collects impression/click feedback
// so campaign CTR can be read off the back-end.
//
// The wire format is JSON over HTTP — the paper's extension spoke to its
// back-end over TLS the same way.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hostprof/internal/ads"
	"hostprof/internal/core"
	"hostprof/internal/engine"
	"hostprof/internal/fault"
	"hostprof/internal/obs"
	"hostprof/internal/obs/httpmw"
	"hostprof/internal/obs/prof"
	"hostprof/internal/obs/tracer"
	"hostprof/internal/ontology"
	"hostprof/internal/store"
	"hostprof/internal/trace"
)

// Config assembles a Backend.
type Config struct {
	// Ontology supplies labels (required).
	Ontology *ontology.Ontology
	// AdDB is the replacement-ad inventory (required).
	AdDB *ads.DB
	// Blocklist filters tracker hostnames from reports (optional).
	Blocklist *ontology.Blocklist
	// Train configures (re)training.
	Train core.TrainConfig
	// Profile configures session profiling.
	Profile core.ProfilerConfig
	// Metrics, when non-nil, is the registry the backend exports into
	// (hostprof_* names; see internal/obs). Nil creates a private
	// registry, retrievable via Backend.Metrics, so /metrics and /varz
	// always have content.
	Metrics *obs.Registry
	// DataDir, when non-empty, makes the visit store durable: every
	// report is written to a WAL under this directory, snapshots
	// (visits + model) are taken after each retrain, and startup
	// recovers both — a killed backend restarts with its store and a
	// warm model.
	DataDir string
	// Fsync selects the WAL flush policy (default store.FsyncInterval).
	Fsync store.FsyncPolicy
	// SnapshotEvery, when positive, snapshots on a timer in addition to
	// the after-retrain and shutdown snapshots.
	SnapshotEvery time.Duration
	// Store, when non-nil, is used directly instead of opening one from
	// DataDir/Fsync/SnapshotEvery — for callers that need store tuning
	// beyond those fields (sharding, WAL re-probe cadence).
	Store *store.Store
	// RetrainTimeout bounds each retrain run; a run past the deadline is
	// cancelled at the next epoch boundary and reported as
	// context.DeadlineExceeded (HTTP 504). Zero means no deadline.
	RetrainTimeout time.Duration
	// MaxInflightReports caps concurrently served /v1/report requests;
	// excess requests are shed with 429 + Retry-After instead of piling
	// onto a saturated backend. Zero means unlimited.
	MaxInflightReports int
	// MaxHostsPerReport rejects reports carrying more hostnames (400),
	// bounding per-request work and WAL amplification. Default 1024.
	MaxHostsPerReport int
	// MaxSessionsPerBatch rejects /v1/profile/batch requests carrying
	// more sessions (400). Default 256.
	MaxSessionsPerBatch int
	// ProfileCache sizes the LRU of session profiles sitting in front of
	// the profile path, in entries; zero or negative disables caching.
	// The cache is keyed by the set of hosts that can influence the
	// profile (see core.Profiler.SessionKey) and swapped wholesale on
	// every retrain, so a hit can never surface a previous model's
	// profile.
	ProfileCache int
	// Tracer, when non-nil, gives every request a span tree: handler
	// spans join incoming W3C traceparent contexts, and store, profile
	// and retrain work become child spans. Completed traces surface at
	// /debug/traces on the backend handler. Nil (or a disabled tracer)
	// costs a nil check per instrumentation point.
	Tracer *tracer.Tracer
	// SlowRequest is the latency past which a request emits one
	// structured warning with its trace ID and stage breakdown.
	// Default 1s; negative disables the slow-request log.
	SlowRequest time.Duration
	// SLOTargets maps endpoint names ("report", "profile_batch",
	// "retrain", ...) to latency targets. Each named endpoint gets a
	// five-minute sliding-window SLO (99% of requests under target)
	// whose burn rate and latency quantiles are exported as
	// hostprof_slo_* gauges. Every target is a bucket bound of
	// hostprof_http_request_seconds. Empty disables SLO tracking — zero
	// cost on the request path.
	SLOTargets map[string]time.Duration
	// Logger receives the backend's structured logs (retrain outcomes,
	// slow requests). Nil selects slog.Default().
	Logger *slog.Logger
}

// Backend is the profiling/ad server: the HTTP adapter over the shared
// serving engine (internal/engine), which owns retraining, the model
// swap, the profile cache and profiling. All methods are safe for
// concurrent use.
type Backend struct {
	cfg Config
	reg *obs.Registry
	met backendMetrics
	tr  *tracer.Tracer

	// mw is the instrumented-handler wrapper every /v1 route mounts,
	// holding the per-endpoint SLOs.
	mw httpmw.Config

	store *store.Store
	eng   *engine.Engine

	// inflight counts /v1/report requests being served, for the
	// admission gate.
	inflight atomic.Int64

	// selector is built once in New and immutable thereafter: reports
	// call Select concurrently without a lock.
	selector *ads.Selector
	// cats writes /v1/profile/batch answers; immutable like selector.
	cats categoryTable

	// mu guards the campaign tallies.
	mu          sync.Mutex
	impressions map[string]int64 // by source: "eavesdropper" / "original"
	clicks      map[string]int64
}

// backendMetrics caches the backend's own registry handles (the engine
// and the middleware register theirs).
type backendMetrics struct {
	reports      *obs.Counter
	reportHosts  *obs.Counter
	reportDrops  *obs.Counter
	shed         *obs.Counter
	modelImports *obs.Counter
}

func newBackendMetrics(reg *obs.Registry) backendMetrics {
	reg.Describe("hostprof_reports_total", "extension hostname reports accepted")
	reg.Describe("hostprof_report_hosts_total", "hostnames ingested across accepted reports")
	reg.Describe("hostprof_report_blocklist_drops_total", "reported hostnames dropped by the blocklist before ingest")
	reg.Describe("hostprof_campaign_impressions", "ad impressions recorded, by ad source")
	reg.Describe("hostprof_campaign_clicks", "ad clicks recorded, by ad source")
	reg.Describe("hostprof_http_shed_total", "report requests shed by the max-in-flight admission gate")
	reg.Describe("hostprof_model_imports_total", "models installed via PUT /v1/model (gateway distribution)")
	reg.Describe("hostprof_http_requests_total", "HTTP requests served, by endpoint and status code")
	reg.Describe("hostprof_http_request_seconds", "HTTP request latency, by endpoint")
	return backendMetrics{
		reports:      reg.Counter("hostprof_reports_total"),
		reportHosts:  reg.Counter("hostprof_report_hosts_total"),
		reportDrops:  reg.Counter("hostprof_report_blocklist_drops_total"),
		shed:         reg.Counter("hostprof_http_shed_total"),
		modelImports: reg.Counter("hostprof_model_imports_total"),
	}
}

// New validates cfg and returns an empty backend. Ads are indexed
// immediately; the model does not exist until the first Retrain.
func New(cfg Config) (*Backend, error) {
	if cfg.Ontology == nil {
		return nil, errors.New("server: config requires an ontology")
	}
	if cfg.AdDB == nil {
		return nil, errors.New("server: config requires an ad inventory")
	}
	if cfg.MaxHostsPerReport <= 0 {
		cfg.MaxHostsPerReport = 1024
	}
	if cfg.MaxSessionsPerBatch <= 0 {
		cfg.MaxSessionsPerBatch = 256
	}
	if cfg.SlowRequest == 0 {
		cfg.SlowRequest = time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	sel, err := ads.NewSelector(cfg.AdDB, cfg.Ontology, adsPerReport)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	obs.RegisterRuntimeMetrics(reg)
	st := cfg.Store
	if st == nil {
		st, err = store.Open(store.Config{
			Dir:           cfg.DataDir,
			Fsync:         cfg.Fsync,
			SnapshotEvery: cfg.SnapshotEvery,
			Metrics:       reg,
			Logger:        cfg.Logger,
		})
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	b := &Backend{
		cfg:         cfg,
		reg:         reg,
		met:         newBackendMetrics(reg),
		tr:          cfg.Tracer,
		store:       st,
		selector:    sel,
		cats:        newCategoryTable(cfg.Ontology.Taxonomy()),
		impressions: make(map[string]int64),
		clicks:      make(map[string]int64),
		// A snapshot-restored model starts the engine warm: ads are
		// served immediately, without waiting for the first retrain.
		eng: engine.New(engine.Config{
			Ontology:       cfg.Ontology,
			Store:          st,
			Train:          cfg.Train,
			Profile:        cfg.Profile,
			RetrainTimeout: cfg.RetrainTimeout,
			CacheSize:      cfg.ProfileCache,
			Metrics:        reg,
			Tracer:         cfg.Tracer,
			Logger:         cfg.Logger,
		}),
	}
	b.mw = httpmw.Config{
		MetricPrefix: "hostprof_http",
		SpanPrefix:   "http.",
		Metrics:      reg,
		Tracer:       cfg.Tracer,
		Logger:       cfg.Logger,
		SlowRequest:  cfg.SlowRequest,
		SLOs:         prof.NewSLOTracker("hostprof_slo", "hostprof_http_request_seconds", cfg.SLOTargets, reg),
	}
	return b, nil
}

// Store returns the backend's visit store, for durability operations and
// recovery stats.
func (b *Backend) Store() *store.Store { return b.store }

// Close flushes the store, takes a final snapshot (so the next start
// recovers instantly) and releases the WAL. It is the graceful-shutdown
// half of the durability contract; a SIGKILLed backend relies on WAL
// replay instead.
func (b *Backend) Close() error {
	snapErr := b.store.Snapshot()
	if err := b.store.Close(); err != nil {
		return err
	}
	return snapErr
}

// Metrics returns the registry the backend exports into — the
// configured one, or the private registry created when none was given.
func (b *Backend) Metrics() *obs.Registry { return b.reg }

// Ready reports whether the model has been trained, i.e. whether
// /v1/report can serve ads; it feeds the /readyz readiness probe.
func (b *Backend) Ready() bool { return b.eng.Profiler() != nil }

// Retrain fits a fresh embedding on every per-user-day sequence stored so
// far and swaps in a new profiler (the paper's daily retraining step).
// Equivalent to RetrainContext(context.Background()).
func (b *Backend) Retrain() error {
	return b.RetrainContext(context.Background())
}

// RetrainContext is Retrain under ctx, which bounds both the caller's
// wait and (for the call that starts it) the run. Concurrent calls
// coalesce into one training pass; see engine.Engine.Retrain.
func (b *Backend) RetrainContext(ctx context.Context) error {
	_, err := b.eng.Retrain(ctx, ctx, b.store.AllSequences, retrainLabel)
	return err
}

// RetrainAsync starts a retrain in the background unless one is already
// running, reporting whether this call started it. The run is bound to
// ctx (use context.Background() to detach it from any request). Poll
// RetrainRunning or hostprof_retrain_state for progress.
func (b *Backend) RetrainAsync(ctx context.Context) bool {
	return b.eng.RetrainAsync(ctx, b.store.AllSequences, retrainLabel)
}

// RetrainRunning reports whether a retrain is in flight.
func (b *Backend) RetrainRunning() bool { return b.eng.Running() }

// sessionWindow is the paper's T, in seconds: a report is answered
// from the user's last twenty minutes of visits.
const sessionWindow = 20 * 60

// adsPerReport is how many ads each report answer carries (paper
// Section 5.3).
const adsPerReport = 20

// retrainLabel names the backend's full-history retrains in errors and
// on the train.retrain span.
const retrainLabel = "retrain"

// report ingests one extension report and returns the replacement-ad
// list for the user's current profile. Visits go straight into the
// sharded store, the engine's current generation is one atomic load and
// the ad selector is immutable, so concurrent reports from different
// users contend only on the WAL.
func (b *Backend) report(ctx context.Context, userID int, now int64, hosts []string) ([]ads.Ad, error) {
	b.met.reports.Inc()
	// Ingest every non-blocklisted host before surfacing any error, so a
	// refused host N doesn't silently drop hosts N+1..end. Append refuses
	// only an unstorable record (an oversized hostname; WAL trouble
	// degrades the store instead), so hosts are checked here and the
	// storable ones go in as one batch: after an error the store holds
	// every storable host of the report and the 500 names the first one
	// refused.
	_, isp := b.tr.StartSpan(ctx, "store.ingest")
	isp.SetAttr("hosts", strconv.Itoa(len(hosts)))
	var appendErr error
	batch := make([]trace.Visit, 0, len(hosts))
	for _, h := range hosts {
		if b.cfg.Blocklist != nil && b.cfg.Blocklist.Contains(h) {
			b.met.reportDrops.Inc()
			continue
		}
		if err := store.CheckHost(h); err != nil {
			if appendErr == nil {
				appendErr = fmt.Errorf("server: storing report: %w", err)
			}
			continue
		}
		// Hosts within one report share the report timestamp; order is
		// preserved because store sessions keep equal times in arrival
		// order.
		batch = append(batch, trace.Visit{User: userID, Time: now, Host: h})
	}
	if err := b.store.Append(batch...); err != nil {
		appendErr = fmt.Errorf("server: storing report: %w", err)
	} else {
		b.met.reportHosts.Add(int64(len(batch)))
	}
	isp.Error(appendErr)
	isp.End()
	if appendErr != nil {
		return nil, appendErr
	}
	_, ssp := b.tr.StartSpan(ctx, "store.session")
	session := b.store.Session(userID, now, sessionWindow)
	ssp.SetAttr("session_hosts", strconv.Itoa(len(session)))
	ssp.End()
	profile, err := b.eng.Profile(ctx, session)
	if err != nil {
		return nil, err
	}
	_, asp := b.tr.StartSpan(ctx, "ads.select")
	list := b.selector.Select(profile, adsPerReport)
	asp.SetAttr("ads", strconv.Itoa(len(list)))
	asp.End()
	return list, nil
}

// ProfileSessions profiles a batch of sessions against the current
// model; see engine.Engine.ProfileSessions.
func (b *Backend) ProfileSessions(ctx context.Context, sessions [][]string) ([]ontology.Vector, []error, error) {
	return b.eng.ProfileSessions(ctx, sessions)
}

// observeImpression records one displayed ad, mirroring the campaign
// maps into per-source gauges.
func (b *Backend) observeImpression(source string, clicked bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.impressions[source]++
	b.reg.Gauge("hostprof_campaign_impressions", obs.L("source", source)).
		Set(float64(b.impressions[source]))
	if clicked {
		b.clicks[source]++
		b.reg.Gauge("hostprof_campaign_clicks", obs.L("source", source)).
			Set(float64(b.clicks[source]))
	}
}

// CampaignStats is a typed snapshot of the ad-campaign counters, keyed
// by ad source ("eavesdropper" / "original"), so tests and operators
// can read CTR without scraping HTTP.
type CampaignStats struct {
	Impressions map[string]int64   `json:"impressions"`
	Clicks      map[string]int64   `json:"clicks"`
	CTRPercent  map[string]float64 `json:"ctr_percent"`
}

// CampaignStats snapshots the impression/click tallies.
func (b *Backend) CampaignStats() CampaignStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	cs := CampaignStats{
		Impressions: make(map[string]int64, len(b.impressions)),
		Clicks:      make(map[string]int64, len(b.clicks)),
		CTRPercent:  make(map[string]float64, len(b.impressions)),
	}
	for k, v := range b.impressions {
		cs.Impressions[k] = v
		cs.Clicks[k] = b.clicks[k]
		if v > 0 {
			cs.CTRPercent[k] = 100 * float64(b.clicks[k]) / float64(v)
		}
	}
	return cs
}

// Stats is the back-end's aggregate view.
type Stats struct {
	Visits      int                `json:"visits"`
	Users       int                `json:"users"`
	Trained     bool               `json:"trained"`
	VocabSize   int                `json:"vocab_size"`
	Impressions map[string]int64   `json:"impressions"`
	Clicks      map[string]int64   `json:"clicks"`
	CTRPercent  map[string]float64 `json:"ctr_percent"`
}

// CurrentStats snapshots the backend state.
func (b *Backend) CurrentStats() Stats {
	cs := b.CampaignStats()
	p := b.eng.Profiler()
	st := Stats{
		Visits:      b.store.Len(),
		Users:       b.store.UserCount(),
		Trained:     p != nil,
		Impressions: cs.Impressions,
		Clicks:      cs.Clicks,
		CTRPercent:  cs.CTRPercent,
	}
	if p != nil {
		st.VocabSize = p.Model().Vocab().Len()
	}
	return st
}

// --- HTTP layer ---------------------------------------------------------

// ReportRequest is the extension's periodic hostname report.
type ReportRequest struct {
	User  int      `json:"user"`
	Time  int64    `json:"time"`
	Hosts []string `json:"hosts"`
}

// WireAd is one replacement creative in a report response.
type WireAd struct {
	ID      int    `json:"id"`
	Landing string `json:"landing"`
	W       int    `json:"w"`
	H       int    `json:"h"`
}

// ReportResponse carries the replacement-ad list.
type ReportResponse struct {
	Ads []WireAd `json:"ads"`
}

// ProfileBatchRequest asks for category profiles of many sessions in
// one round trip — the offline-analysis companion to /v1/report, which
// profiles implicitly while serving ads.
type ProfileBatchRequest struct {
	Sessions [][]string `json:"sessions"`
}

// ProfileResult is one session's outcome: the nonzero categories by
// taxonomy name, or the profiling error (empty session, nothing
// labelled reachable).
type ProfileResult struct {
	Categories map[string]float64 `json:"categories,omitempty"`
	Error      string             `json:"error,omitempty"`
}

// ProfileBatchResponse carries one ProfileResult per requested session,
// in request order.
type ProfileBatchResponse struct {
	Profiles []ProfileResult `json:"profiles"`
}

// FeedbackRequest records an impression or click.
type FeedbackRequest struct {
	User    int    `json:"user"`
	AdID    int    `json:"ad_id"`
	Source  string `json:"source"` // "eavesdropper" or "original"
	Clicked bool   `json:"clicked"`
}

// Handler returns the backend's HTTP API:
//
//	POST /v1/report     ReportRequest  → ReportResponse
//	POST /v1/profile/batch  ProfileBatchRequest → ProfileBatchResponse
//	POST /v1/feedback   FeedbackRequest → 204
//	POST /v1/retrain    (empty)        → 204 (?async=1 → 202)
//	GET  /v1/model      → serialized model (ETag/If-None-Match version negotiation)
//	PUT  /v1/model      → install a model artifact (204 + version header)
//	GET  /v1/export         → chunked visit export (?users=&from=&limit=)
//	GET  /v1/export/users   → distinct stored user IDs
//	GET  /v1/export/digest  → per-user migration digests (?users=)
//	POST /v1/import     → load migrated visits (reset + append)
//	GET  /v1/stats      → Stats
//	GET  /metrics       → Prometheus text exposition
//	GET  /varz          → JSON metrics snapshot
//	GET  /healthz       → liveness (200 while the process serves)
//	GET  /readyz        → readiness JSON (trained, store-degraded, model version)
//
// Error responses from /v1 endpoints carry a JSON body {"error": "..."}.
// Every /v1 endpoint is instrumented with a request counter
// (hostprof_http_requests_total{endpoint,code}) and a latency histogram
// (hostprof_http_request_seconds{endpoint}); /v1/report additionally
// passes the max-in-flight admission gate.
func (b *Backend) Handler() http.Handler {
	mux := http.NewServeMux()
	// Fault hooks sit inside the admission gate so injected latency
	// holds an in-flight slot, the way a slow store would.
	mux.HandleFunc("POST /v1/report", b.mw.Wrap("report", b.admit(b.faulty("report", b.handleReport))))
	mux.HandleFunc("POST /v1/profile/batch", b.mw.Wrap("profile_batch", b.admit(b.faulty("profile_batch", b.handleProfileBatch))))
	mux.HandleFunc("POST /v1/feedback", b.mw.Wrap("feedback", b.faulty("feedback", b.handleFeedback)))
	mux.HandleFunc("POST /v1/retrain", b.mw.Wrap("retrain", b.faulty("retrain", b.handleRetrain)))
	mux.HandleFunc("GET /v1/stats", b.mw.Wrap("stats", b.handleStats))
	mux.HandleFunc("GET /v1/model", b.mw.Wrap("model_get", b.handleModelGet))
	mux.HandleFunc("HEAD /v1/model", b.handleModelGet)
	mux.HandleFunc("PUT /v1/model", b.mw.Wrap("model_put", b.faulty("model_put", b.handleModelPut)))
	mux.HandleFunc("GET /v1/export", b.mw.Wrap("export", b.handleExport))
	mux.HandleFunc("GET /v1/export/users", b.mw.Wrap("export_users", b.handleExportUsers))
	mux.HandleFunc("GET /v1/export/digest", b.mw.Wrap("export_digest", b.handleExportDigest))
	mux.HandleFunc("POST /v1/import", b.mw.Wrap("import", b.faulty("import", b.handleImport)))
	mux.Handle("GET /metrics", b.reg.MetricsHandler())
	mux.Handle("GET /varz", b.reg.VarzHandler())
	// Liveness and readiness are deliberately split: /healthz answers
	// "is the process up" (always ok while serving — restarting an
	// untrained shard fixes nothing), /readyz answers "route traffic
	// here" and carries the state a gateway needs to route around sick
	// shards.
	mux.Handle("GET /healthz", obs.HealthzHandler(nil))
	mux.Handle("GET /readyz", obs.ReadyzHandler(func() (bool, any) {
		rd := b.Readiness()
		return rd.Ready, rd
	}))
	if b.tr.Enabled() {
		mux.Handle("/debug/traces", b.tr.Handler())
	}
	return mux
}

// admit is the /v1/report overload gate: beyond MaxInflightReports
// concurrent requests, excess load is shed immediately with 429 +
// Retry-After rather than queueing onto a saturated store or profiler.
func (b *Backend) admit(h http.HandlerFunc) http.HandlerFunc {
	if b.cfg.MaxInflightReports <= 0 {
		return h
	}
	limit := int64(b.cfg.MaxInflightReports)
	return func(w http.ResponseWriter, r *http.Request) {
		if b.inflight.Add(1) > limit {
			b.inflight.Add(-1)
			b.met.shed.Inc()
			w.Header().Set("Retry-After", "1")
			httpmw.WriteError(w, http.StatusTooManyRequests, "server overloaded, retry later")
			return
		}
		defer b.inflight.Add(-1)
		h(w, r)
	}
}

// faulty exposes the handler to the test-only fault plane (see
// internal/fault): an armed hook can delay the request, fail it with
// 500, or panic into the middleware's recovery. Unarmed, it is one atomic
// load.
func (b *Backend) faulty(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	point := fault.HTTPPoint(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		if err := fault.Inject(point); err != nil {
			httpmw.WriteError(w, http.StatusInternalServerError, fmt.Sprintf("injected fault: %v", err))
			return
		}
		h(w, r)
	}
}

const maxBodyBytes = 1 << 20

func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpmw.WriteError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body exceeds %d bytes", tooBig.Limit))
			return false
		}
		httpmw.WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad request: %v", err))
		return false
	}
	return true
}

func (b *Backend) handleReport(w http.ResponseWriter, r *http.Request) {
	var req ReportRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	switch {
	case len(req.Hosts) == 0:
		httpmw.WriteError(w, http.StatusBadRequest, "empty host list")
		return
	case len(req.Hosts) > b.cfg.MaxHostsPerReport:
		httpmw.WriteError(w, http.StatusBadRequest,
			fmt.Sprintf("report carries %d hosts, limit %d", len(req.Hosts), b.cfg.MaxHostsPerReport))
		return
	case req.User < 0:
		httpmw.WriteError(w, http.StatusBadRequest, "user must be non-negative")
		return
	case req.Time < 0:
		httpmw.WriteError(w, http.StatusBadRequest, "time must be non-negative")
		return
	}
	list, err := b.report(r.Context(), req.User, req.Time, req.Hosts)
	switch {
	case errors.Is(err, engine.ErrNotTrained):
		httpmw.WriteError(w, http.StatusServiceUnavailable, err.Error())
		return
	case errors.Is(err, core.ErrNoLabels), errors.Is(err, core.ErrEmptySession):
		// Profiling undefined for this session: legitimate, no ads.
		list = nil
	case err != nil:
		httpmw.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp := ReportResponse{Ads: make([]WireAd, 0, len(list))}
	for _, ad := range list {
		resp.Ads = append(resp.Ads, WireAd{
			ID: ad.ID, Landing: ad.LandingHost, W: ad.Size.W, H: ad.Size.H,
		})
	}
	httpmw.WriteJSON(w, http.StatusOK, resp)
}

func (b *Backend) handleProfileBatch(w http.ResponseWriter, r *http.Request) {
	var req ProfileBatchRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	switch {
	case len(req.Sessions) == 0:
		httpmw.WriteError(w, http.StatusBadRequest, "empty session list")
		return
	case len(req.Sessions) > b.cfg.MaxSessionsPerBatch:
		httpmw.WriteError(w, http.StatusBadRequest,
			fmt.Sprintf("batch carries %d sessions, limit %d", len(req.Sessions), b.cfg.MaxSessionsPerBatch))
		return
	}
	for i, s := range req.Sessions {
		if len(s) > b.cfg.MaxHostsPerReport {
			httpmw.WriteError(w, http.StatusBadRequest,
				fmt.Sprintf("session %d carries %d hosts, limit %d", i, len(s), b.cfg.MaxHostsPerReport))
			return
		}
	}
	vecs, errs, err := b.ProfileSessions(r.Context(), req.Sessions)
	if errors.Is(err, engine.ErrNotTrained) {
		httpmw.WriteError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	// The stated length lets the gateway size its read buffer.
	body := b.cats.appendBatch(nil, vecs, errs)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

func (b *Backend) handleFeedback(w http.ResponseWriter, r *http.Request) {
	var req FeedbackRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	// Full validation before touching backend state: a bad request must
	// leave the campaign tallies untouched.
	switch {
	case req.Source != "eavesdropper" && req.Source != "original":
		httpmw.WriteError(w, http.StatusBadRequest, "source must be eavesdropper or original")
		return
	case req.User < 0:
		httpmw.WriteError(w, http.StatusBadRequest, "user must be non-negative")
		return
	case req.AdID < 0:
		httpmw.WriteError(w, http.StatusBadRequest, "ad_id must be non-negative")
		return
	}
	b.observeImpression(req.Source, req.Clicked)
	w.WriteHeader(http.StatusNoContent)
}

func (b *Backend) handleRetrain(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("async") == "1" {
		// Fire-and-poll mode: the run is detached from this request's
		// lifetime; callers watch hostprof_retrain_state (or /v1/stats)
		// for completion. 202 either way — joining an in-flight run is
		// exactly what a second async request means.
		b.RetrainAsync(context.WithoutCancel(r.Context()))
		httpmw.WriteJSON(w, http.StatusAccepted, map[string]string{"status": "retraining"})
		return
	}
	// Synchronous mode: the wait is bound to the request context (a
	// dropped client stops waiting), but the run itself is detached so a
	// disconnect cannot abort training that other callers joined.
	leader, err := b.eng.Retrain(r.Context(), context.WithoutCancel(r.Context()), b.store.AllSequences, retrainLabel)
	if sp := tracer.FromContext(r.Context()); sp != nil {
		// Joiners attached to an in-flight run carry that on their
		// trace: the retrain span lives in the leader's trace.
		sp.SetAttr("retrain_leader", strconv.FormatBool(leader))
	}
	switch {
	case err == nil:
		w.WriteHeader(http.StatusNoContent)
	case errors.Is(err, core.ErrEmptyCorpus):
		httpmw.WriteError(w, http.StatusConflict, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		httpmw.WriteError(w, http.StatusGatewayTimeout, err.Error())
	case errors.Is(err, context.Canceled):
		httpmw.WriteError(w, http.StatusServiceUnavailable, err.Error())
	default:
		httpmw.WriteError(w, http.StatusInternalServerError, err.Error())
	}
}

func (b *Backend) handleStats(w http.ResponseWriter, r *http.Request) {
	httpmw.WriteJSON(w, http.StatusOK, b.CurrentStats())
}
