package hostprof

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"

	"hostprof/internal/engine"
	"hostprof/internal/obs"
	"hostprof/internal/obs/tracer"
	"hostprof/internal/sniffer"
	"hostprof/internal/store"
)

// PipelineConfig assembles a complete network-observer pipeline.
type PipelineConfig struct {
	// Observer configures packet decoding and user attribution.
	Observer ObserverConfig
	// Train configures embedding training; zero values select paper
	// defaults.
	Train TrainConfig
	// Profile configures session profiling; zero N selects the paper's
	// 1000.
	Profile ProfilerConfig
	// SessionWindow is the profiling window T in seconds (paper: 20
	// minutes). Zero selects 1200.
	SessionWindow int64
	// Blocklist, when non-nil, filters tracker hostnames before both
	// training and profiling, as Section 5.4 prescribes.
	Blocklist *Blocklist
	// Ontology supplies the labelled subset H_L.
	Ontology *Ontology
	// Metrics, when non-nil, is the registry every pipeline stage
	// exports into (hostprof_* names; see internal/obs). Nil creates a
	// private registry, retrievable via Pipeline.Metrics, so the
	// pipeline is always instrumented.
	Metrics *obs.Registry
	// Store, when non-nil, is the visit store the pipeline ingests
	// into — open a durable one with OpenStore to survive restarts.
	// Nil creates a private in-memory sharded store.
	Store *store.Store
	// RetrainTimeout bounds each retrain run; past the deadline training
	// is cancelled at the next epoch boundary and the retrain fails with
	// context.DeadlineExceeded. Zero means no deadline.
	RetrainTimeout time.Duration
	// Tracer, when non-nil and enabled, records retrain and profiling
	// spans; a span carried by the caller's context becomes their
	// parent. Nil costs a nil check per operation.
	Tracer *tracer.Tracer
}

// Pipeline is the end-to-end eavesdropper: packets in, profiles and ads
// out. It owns packet decoding, blocklist filtering and ingest, and
// adapts the shared serving engine (internal/engine) for retraining and
// profiling. All exported methods are safe for concurrent use: visits
// land in a sharded store (per-shard locks) and packet decoding
// serializes only on the observer's flow state.
type Pipeline struct {
	cfg PipelineConfig
	reg *obs.Registry
	met pipelineMetrics

	store *store.Store
	eng   *engine.Engine

	// obsMu serializes packet decoding, which mutates the observer's
	// flow-reassembly state, so profiling and retraining never stall
	// packet capture.
	obsMu    sync.Mutex
	observer *Observer
}

// pipelineMetrics caches the pipeline's ingest handles; the retrain,
// train and profile families are the engine's.
type pipelineMetrics struct {
	frames      *obs.Counter
	visits      *obs.Counter
	blocked     *obs.Counter
	storeErrors *obs.Counter
}

func newPipelineMetrics(reg *obs.Registry) pipelineMetrics {
	reg.Describe("hostprof_ingest_frames_total", "captured frames handed to the observer")
	reg.Describe("hostprof_ingest_visits_total", "visits recorded into the trace store")
	reg.Describe("hostprof_ingest_blocklist_drops_total", "extracted visits dropped by the blocklist before ingest")
	reg.Describe("hostprof_ingest_store_errors_total", "visits the store refused (append failed)")
	return pipelineMetrics{
		frames:      reg.Counter("hostprof_ingest_frames_total"),
		visits:      reg.Counter("hostprof_ingest_visits_total"),
		blocked:     reg.Counter("hostprof_ingest_blocklist_drops_total"),
		storeErrors: reg.Counter("hostprof_ingest_store_errors_total"),
	}
}

// NewPipeline validates cfg and returns an empty pipeline.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) {
	if cfg.Ontology == nil {
		return nil, fmt.Errorf("hostprof: pipeline requires an ontology")
	}
	if cfg.SessionWindow <= 0 {
		cfg.SessionWindow = 20 * 60
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if cfg.Observer.Metrics == nil {
		cfg.Observer.Metrics = reg
	}
	st := cfg.Store
	if st == nil {
		var err error
		st, err = store.Open(store.Config{Metrics: reg})
		if err != nil {
			return nil, fmt.Errorf("hostprof: opening visit store: %w", err)
		}
	}
	return &Pipeline{
		cfg:      cfg,
		reg:      reg,
		met:      newPipelineMetrics(reg),
		observer: sniffer.NewObserver(cfg.Observer),
		store:    st,
		// A durable store restored from snapshot carries the trained
		// model: the engine starts warm.
		eng: engine.New(engine.Config{
			Ontology:       cfg.Ontology,
			Store:          st,
			Train:          cfg.Train,
			Profile:        cfg.Profile,
			RetrainTimeout: cfg.RetrainTimeout,
			Metrics:        reg,
			Tracer:         cfg.Tracer,
			Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
		}),
	}, nil
}

// Metrics returns the registry the pipeline exports into — the
// configured one, or the private registry created when none was given.
func (p *Pipeline) Metrics() *obs.Registry { return p.reg }

// Ingest feeds one captured Ethernet frame taken at ts (seconds) to the
// observer; any extracted visit is recorded (unless blocklisted).
// It reports whether a hostname was extracted and stored. Only packet
// decoding holds the observer lock; the visit lands in the sharded
// store, so ingestion never contends with profiling or retraining.
func (p *Pipeline) Ingest(frame []byte, ts int64) bool {
	p.met.frames.Inc()
	p.obsMu.Lock()
	v, ok := p.observer.ProcessPacket(frame, ts)
	p.obsMu.Unlock()
	if !ok {
		return false
	}
	return p.record(v)
}

// IngestVisit records an already-extracted visit (e.g. replayed from a
// stored trace), subject to blocklist filtering. It takes no pipeline-
// wide lock: concurrent callers contend only on the visit's shard.
func (p *Pipeline) IngestVisit(v Visit) bool {
	return p.record(v)
}

// record filters and stores one visit.
func (p *Pipeline) record(v Visit) bool {
	if p.cfg.Blocklist != nil && p.cfg.Blocklist.Contains(v.Host) {
		p.met.blocked.Inc()
		return false
	}
	if err := p.store.Append(v); err != nil {
		p.met.storeErrors.Inc()
		return false
	}
	p.met.visits.Inc()
	return true
}

// Trace returns a point-in-time copy of the accumulated visit trace.
// The copy shares nothing with the store, so callers may window and
// mutate it freely while ingestion continues.
func (p *Pipeline) Trace() *Trace {
	return p.store.SnapshotTrace()
}

// Store returns the pipeline's visit store — the configured one, or the
// private in-memory store created when none was given. Use it for
// durability operations (Flush, Snapshot, Close) and recovery stats.
func (p *Pipeline) Store() *store.Store { return p.store }

// Retrain fits a fresh embedding on every per-user-day sequence observed
// so far and swaps it in, mirroring the paper's daily retraining
// (Section 5.4). Equivalent to RetrainContext(context.Background()).
func (p *Pipeline) Retrain() error {
	return p.RetrainContext(context.Background())
}

// RetrainContext is Retrain with cancellation: cancel ctx (or let its
// deadline pass) and training stops at the next epoch boundary with the
// old model still in place. Concurrent retrain calls coalesce into one
// training run; see engine.Engine.Retrain.
func (p *Pipeline) RetrainContext(ctx context.Context) error {
	_, err := p.eng.Retrain(ctx, ctx, p.store.AllSequences, "retraining")
	return err
}

// RetrainOnDay fits the embedding on a single day's sequences (the
// paper's "previous whole day") instead of the full history.
func (p *Pipeline) RetrainOnDay(day int) error {
	return p.RetrainOnDayContext(context.Background(), day)
}

// RetrainOnDayContext is RetrainOnDay with cancellation, with the same
// coalescing semantics as RetrainContext.
func (p *Pipeline) RetrainOnDayContext(ctx context.Context, day int) error {
	_, err := p.eng.Retrain(ctx, ctx, func() [][]string { return p.store.DailySequences(day) },
		fmt.Sprintf("retraining on day %d", day))
	return err
}

// RetrainRunning reports whether a retrain is in flight.
func (p *Pipeline) RetrainRunning() bool { return p.eng.Running() }

// ErrNotTrained is returned by profiling before the first Retrain.
var ErrNotTrained = engine.ErrNotTrained

// Model returns the current embedding model, or nil before training.
func (p *Pipeline) Model() *Model { return p.store.Model() }

// Ready reports whether the pipeline has a trained model, i.e. whether
// profiling can succeed (a readiness probe).
func (p *Pipeline) Ready() bool { return p.eng.Profiler() != nil }

// ProfileUser profiles the hostnames user requested in the window
// (now-T, now].
func (p *Pipeline) ProfileUser(user int, now int64) (Vector, error) {
	return p.ProfileSession(p.store.Session(user, now, p.cfg.SessionWindow))
}

// ProfileSession profiles an explicit hostname sequence.
func (p *Pipeline) ProfileSession(hosts []string) (Vector, error) {
	return p.eng.Profile(context.Background(), hosts)
}

// ProfileSessions profiles many sessions in one call, fanning them out
// over the profiler's worker budget. Results and errors are positional:
// errs[i] belongs to sessions[i]. Equivalent to
// ProfileSessionsContext(context.Background(), sessions).
func (p *Pipeline) ProfileSessions(sessions [][]string) ([]Vector, []error, error) {
	return p.ProfileSessionsContext(context.Background(), sessions)
}

// ProfileSessionsContext is ProfileSessions under a caller context: a
// span carried by ctx parents the batch span, and cancellation stops
// the fan-out between sessions.
func (p *Pipeline) ProfileSessionsContext(ctx context.Context, sessions [][]string) ([]Vector, []error, error) {
	return p.eng.ProfileSessions(ctx, sessions)
}

// ObserverStats returns packet-level counters. The snapshot is built
// from the observer's atomic counters, so it is safe even while another
// goroutine is inside Ingest; the same guarantee holds for
// Observer.Stats when a sniffer.Observer is used directly.
func (p *Pipeline) ObserverStats() sniffer.ObserverStats {
	return p.observer.Stats()
}
