// Package engine is the paper's one serving loop (Section 5.4): retrain
// the embedding on the observed sequences, then turn a session of
// hostnames into a category profile (Eq. 3-4) against whichever model is
// current. The loop is the same whether hostnames arrive from an on-path
// observer (hostprof.Pipeline) or from the instrumented extension
// (server.Backend); both are adapters over one Engine, which hides the
// model-generation swap, retrain coalescing, snapshot-after-install and
// the train/retrain/profile metric wiring from them.
package engine

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hostprof/internal/core"
	"hostprof/internal/flight"
	"hostprof/internal/obs"
	"hostprof/internal/obs/tracer"
	"hostprof/internal/ontology"
	"hostprof/internal/store"
)

// ErrNotTrained is returned by profiling before the first model is
// installed (by a retrain, an import, or a warm start from the store).
var ErrNotTrained = errors.New("hostprof: model not trained yet")

// Config assembles an Engine. The adapters fill it from the fields of
// the same names in server.Config and hostprof.PipelineConfig, which
// document them; Ontology, Store, Metrics and Logger are required.
type Config struct {
	Ontology *ontology.Ontology
	// Store holds the visits retrains read and the model Install hands
	// over; a model it restored from a snapshot is served immediately.
	Store *store.Store
	Train core.TrainConfig
	// Profile's nil Metrics/Tracer inherit the engine's, so index series
	// and spans land on the same plane.
	Profile        core.ProfilerConfig
	RetrainTimeout time.Duration
	// CacheSize is the session-profile LRU capacity per generation, in
	// entries; zero or negative disables caching.
	CacheSize int
	Metrics   *obs.Registry
	Tracer    *tracer.Tracer
	Logger    *slog.Logger
}

// generation is one model's serving state. Profiler and cache are built
// together and published through one pointer, so a reader can never pair
// one model's profiler with another model's memoised profiles.
type generation struct {
	profiler *core.Profiler
	cache    *profileCache // nil when caching is disabled
}

// Engine owns the current model generation and the retrain coordinator.
// All methods are safe for concurrent use.
type Engine struct {
	cfg Config
	met metrics

	// retrains coalesces concurrent retrain calls into one training run
	// (the paper retrained daily; overlapping triggers must not fit two
	// models over the same corpus).
	retrains flight.Group

	gen atomic.Pointer[generation]
	// installMu orders concurrent Installs (a retrain finishing while a
	// peer pushes a model) so the store always holds the model of the
	// published generation. Readers never take it.
	installMu sync.Mutex
}

// metrics caches the engine's registry handles.
type metrics struct {
	retrainErrors  *obs.Counter
	retrainSeconds *obs.Histogram
	epochSeconds   *obs.Histogram
	epochLoss      *obs.Gauge
	profileSeconds *obs.Histogram
	profileErrors  *obs.Counter
}

// trainBuckets spans sub-second toy corpora to multi-hour production
// retrains.
var trainBuckets = obs.ExpBuckets(0.01, 4, 10)

func newMetrics(reg *obs.Registry) metrics {
	reg.Describe("hostprof_retrain_errors_total", "model retrains that failed or were aborted")
	reg.Describe("hostprof_retrain_seconds", "wall time of full model retrains, failed ones included")
	reg.Describe("hostprof_retrain_state", "0 idle, 1 retrain in flight")
	reg.Describe("hostprof_train_epoch_seconds", "wall time of one training epoch")
	reg.Describe("hostprof_train_epoch_loss", "training loss of the most recent epoch")
	reg.Describe("hostprof_profile_seconds", "per-report session profiling latency")
	reg.Describe("hostprof_profile_errors_total", "session profiles that returned an error (empty or unlabelled sessions included)")
	reg.Describe("hostprof_profile_cache_size", "entries currently held by the session-profile LRU")
	reg.Describe("hostprof_model_trained", "1 when a trained model is being served, else 0")
	return metrics{
		retrainErrors:  reg.Counter("hostprof_retrain_errors_total"),
		retrainSeconds: reg.Histogram("hostprof_retrain_seconds", trainBuckets),
		epochSeconds:   reg.Histogram("hostprof_train_epoch_seconds", trainBuckets),
		epochLoss:      reg.Gauge("hostprof_train_epoch_loss"),
		profileSeconds: reg.Histogram("hostprof_profile_seconds", nil),
		profileErrors:  reg.Counter("hostprof_profile_errors_total"),
	}
}

// New returns an engine over cfg.Store. A model the store restored from
// a snapshot is published immediately (a warm start), so the engine can
// profile without waiting for the first retrain.
func New(cfg Config) *Engine {
	if cfg.Profile.Metrics == nil {
		cfg.Profile.Metrics = cfg.Metrics
	}
	if cfg.Profile.Tracer == nil {
		cfg.Profile.Tracer = cfg.Tracer
	}
	e := &Engine{cfg: cfg, met: newMetrics(cfg.Metrics)}
	if m := cfg.Store.Model(); m != nil {
		e.gen.Store(e.build(m))
	}
	boolGauge := func(f func() bool) func() float64 {
		return func() float64 {
			if f() {
				return 1
			}
			return 0
		}
	}
	cfg.Metrics.GaugeFunc("hostprof_model_trained", boolGauge(func() bool { return e.gen.Load() != nil }))
	cfg.Metrics.GaugeFunc("hostprof_retrain_state", boolGauge(e.retrains.Running))
	cfg.Metrics.GaugeFunc("hostprof_profile_cache_size", func() float64 {
		if g := e.gen.Load(); g != nil {
			return float64(g.cache.len())
		}
		return 0
	})
	return e
}

// build assembles the serving state for one model: its profiler (index,
// optional ANN graph — loaded when the store's snapshot carried the
// model's, built otherwise) and an empty cache.
func (e *Engine) build(model *core.Model) *generation {
	p := core.NewProfiler(model, e.cfg.Ontology, e.cfg.Profile)
	how := p.ANNRestore()
	if how.Rejected != nil {
		e.cfg.Logger.Warn("snapshot's ANN graph rejected, rebuilt",
			slog.String("reason", how.Rejected.Error()))
	}
	if how.Restored || how.Built {
		msg := "ANN graph restored from snapshot"
		if how.Built {
			msg = "ANN graph built"
		}
		e.cfg.Logger.Info(msg,
			slog.Int("rows", how.Rows),
			slog.Int("edges", how.Edges),
			slog.Duration("elapsed", how.Elapsed))
	}
	return &generation{
		profiler: p,
		cache:    newProfileCache(e.cfg.CacheSize, e.cfg.Metrics),
	}
}

// Install makes model the served generation: build the profiler and a
// fresh cache, publish the pair, hand the model to the store (with its
// serialized artifact when the caller already holds the bytes) and
// snapshot, so a crash after a retrain or import recovers warm.
// Computations still running on the old generation insert into its
// orphaned cache and can never surface under the new one.
func (e *Engine) Install(model *core.Model, artifact []byte) {
	g := e.build(model)
	e.installMu.Lock()
	e.gen.Store(g)
	if artifact != nil {
		e.cfg.Store.InstallModel(model, artifact)
	} else {
		e.cfg.Store.SetModel(model)
	}
	e.installMu.Unlock()
	// Best effort (and a no-op for in-memory stores): a snapshot failure
	// must not undo a successful install; it is counted in
	// hostprof_store_snapshot_errors_total.
	_ = e.cfg.Store.Snapshot()
}

// Retrain fits a fresh model on corpus() and installs it. Concurrent
// calls coalesce: while a run is in flight new callers join it and share
// its result. The run is bound to runCtx (plus Config.RetrainTimeout)
// and stops at the next epoch boundary once that ends, leaving the old
// generation in place; each caller waits under its own waitCtx and can
// give up without aborting the run for the others. The corpus is read
// inside the run, so a joiner never fits yesterday's snapshot. label
// names the run in errors and on its train.retrain span.
func (e *Engine) Retrain(waitCtx, runCtx context.Context, corpus func() [][]string, label string) (leader bool, err error) {
	return e.retrains.Do(waitCtx, runCtx, e.run(corpus, label))
}

// RetrainAsync starts a retrain under runCtx unless one is already in
// flight and returns without waiting, reporting whether this call
// started it. The outcome lands in the retrain metrics and logs; poll
// Running or hostprof_retrain_state for progress.
func (e *Engine) RetrainAsync(runCtx context.Context, corpus func() [][]string, label string) bool {
	return e.retrains.Start(runCtx, e.run(corpus, label))
}

// Running reports whether a retrain is in flight.
func (e *Engine) Running() bool { return e.retrains.Running() }

// run returns the single-flight body: exactly one instance runs at a
// time, however many callers are attached to it.
func (e *Engine) run(corpus func() [][]string, label string) func(context.Context) error {
	return func(ctx context.Context) error {
		if e.cfg.RetrainTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, e.cfg.RetrainTimeout)
			defer cancel()
		}
		// The retrain span is a child of whatever request started the
		// run (flight preserves context values), so a stalled profile
		// request traces through to the epoch that held it up.
		ctx, tsp := e.cfg.Tracer.StartSpan(ctx, "train.retrain")
		defer tsp.End()
		seqs := corpus()
		tsp.SetAttr("label", label)
		tsp.SetAttr("sequences", strconv.Itoa(len(seqs)))
		tc := e.cfg.Train
		user := tc.Progress
		tc.Progress = func(ep core.EpochStats) {
			e.met.epochSeconds.Observe(ep.Duration.Seconds())
			e.met.epochLoss.Set(ep.Loss)
			tsp.Event(fmt.Sprintf("epoch %d: loss=%.4f dur=%s", ep.Epoch, ep.Loss, ep.Duration.Round(time.Millisecond)))
			if user != nil {
				user(ep)
			}
		}
		// The duration histogram observes failed retrains too: a retrain
		// that dies after an hour must show up in
		// hostprof_retrain_seconds, not vanish.
		sp := obs.StartSpan(e.met.retrainSeconds)
		model, err := core.TrainContext(ctx, seqs, tc)
		d := sp.End()
		if err != nil {
			e.met.retrainErrors.Inc()
			tsp.Error(err)
			e.cfg.Logger.LogAttrs(ctx, slog.LevelWarn, "retrain failed",
				slog.Int("sequences", len(seqs)),
				slog.Duration("elapsed", d),
				slog.String("error", err.Error()))
			return fmt.Errorf("hostprof: %s: %w", label, err)
		}
		e.cfg.Logger.LogAttrs(ctx, slog.LevelInfo, "retrain complete",
			slog.Int("sequences", len(seqs)),
			slog.Int("vocab", model.Vocab().Len()),
			slog.Duration("elapsed", d))
		e.Install(model, nil)
		return nil
	}
}

// Profiler returns the current generation's profiler, or nil before the
// first model is installed.
func (e *Engine) Profiler() *core.Profiler {
	if g := e.gen.Load(); g != nil {
		return g.profiler
	}
	return nil
}

// sessionKey is the session's cache key under this generation's model,
// or "" (never cached) when caching is off or no host can influence the
// profile.
func (g *generation) sessionKey(session []string) string {
	if g.cache == nil {
		return ""
	}
	return g.profiler.SessionKey(session)
}

// Profile computes one session's category profile on the current
// generation, through its cache, under a "profile" span and the
// hostprof_profile_seconds histogram. Empty and unlabelled sessions
// (core.ErrEmptySession, core.ErrNoLabels) are expected outcomes: they
// are counted and recorded on the span, but do not mark the trace
// errored.
func (e *Engine) Profile(ctx context.Context, session []string) (ontology.Vector, error) {
	g := e.gen.Load()
	if g == nil {
		return nil, ErrNotTrained
	}
	ctx, tsp := e.cfg.Tracer.StartSpan(ctx, "profile")
	sp := obs.StartSpan(e.met.profileSeconds)
	key := g.sessionKey(session)
	vec, err, hit := g.cache.get(key)
	if !hit {
		vec, err = g.profiler.ProfileSessionContext(ctx, session)
		g.cache.put(key, vec, err)
	}
	sp.End()
	if err != nil {
		e.met.profileErrors.Inc()
		tsp.SetAttr("outcome", err.Error())
	}
	tsp.End()
	return vec, err
}

// ProfileSessions profiles a batch of sessions on the current
// generation: cached sessions are answered from the LRU, the rest fan
// out over the profiler's batch workers in one call, and fresh outcomes
// are memoised. Results and errors are positional; the third return is
// global (ErrNotTrained before the first install).
func (e *Engine) ProfileSessions(ctx context.Context, sessions [][]string) ([]ontology.Vector, []error, error) {
	g := e.gen.Load()
	if g == nil {
		return nil, nil, ErrNotTrained
	}
	vecs := make([]ontology.Vector, len(sessions))
	errs := make([]error, len(sessions))
	keys := make([]string, len(sessions))
	var missIdx []int
	var missSessions [][]string
	for i, s := range sessions {
		keys[i] = g.sessionKey(s)
		if vec, err, hit := g.cache.get(keys[i]); hit {
			vecs[i], errs[i] = vec, err
			continue
		}
		missIdx = append(missIdx, i)
		missSessions = append(missSessions, s)
	}
	if len(missIdx) > 0 {
		mv, me := g.profiler.ProfileSessions(ctx, missSessions)
		for j, i := range missIdx {
			vecs[i], errs[i] = mv[j], me[j]
			g.cache.put(keys[i], mv[j], me[j])
		}
	}
	for _, err := range errs {
		if err != nil {
			e.met.profileErrors.Inc()
		}
	}
	return vecs, errs, nil
}
