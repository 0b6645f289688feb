package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hostprof/internal/ads"
	"hostprof/internal/core"
	"hostprof/internal/obs"
	"hostprof/internal/obs/tracer"
	"hostprof/internal/ontology"
	"hostprof/internal/server"
	"hostprof/internal/store"
)

// cmdServe runs the profiling/ad back-end over artefacts produced by
// `hostprof gen` (ontology + blocklist); the ad inventory is built from
// the ontology's labelled hosts, as the paper built its database from
// ads collected on labelled landing pages.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8420", "listen address")
	ontPath := fs.String("ontology", "", "ontology labels JSONL (required)")
	blPath := fs.String("blocklist", "", "optional hosts-format blocklist")
	dim := fs.Int("dim", 64, "embedding dimensionality")
	epochs := fs.Int("epochs", 5, "training epochs per retrain")
	n := fs.Int("n", 40, "profiler neighbourhood size N")
	ann := fs.Bool("ann", false, "answer neighbourhood queries with an HNSW graph (sublinear in vocabulary; built per retrain, restored from the snapshot on restart; falls back to the exact scan when the graph cannot meet recall)")
	annEf := fs.Int("ann-ef", 0, "ANN search breadth ef: larger is more accurate and slower (0 = default 128; only with -ann)")
	annM := fs.Int("ann-m", 0, "ANN graph degree M: neighbours kept per node per layer (0 = default 16; only with -ann)")
	adsSeed := fs.Uint64("ads-seed", 1, "ad inventory seed")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ and sample mutex and block events")
	dataDir := fs.String("data-dir", "", "durable store directory (WAL + snapshots); empty keeps visits in memory only")
	fsync := fs.String("fsync", "interval", "WAL fsync policy: always, interval or never")
	snapEvery := fs.Duration("snapshot-interval", 10*time.Minute, "periodic snapshot cadence with -data-dir (0 disables the timer)")
	retrainTimeout := fs.Duration("retrain-timeout", 0, "abort a retrain past this deadline (0 = unbounded)")
	maxInflight := fs.Int("max-inflight-reports", 1024, "concurrent /v1/report requests before shedding with 429 (0 = unlimited)")
	maxHosts := fs.Int("max-hosts-per-report", 1024, "hostnames accepted per report before rejecting with 400")
	httpTimeout := fs.Duration("http-timeout", time.Minute, "HTTP read/write timeout (idle timeout is 4x this)")
	traceSample := fs.Float64("trace-sample", 1, "request-trace head-sampling rate in [0,1]; errored traces are always kept; 0 disables tracing")
	traceBuffer := fs.Int("trace-buffer", 256, "completed traces retained for /debug/traces")
	slowReq := fs.Duration("slow-request", time.Second, "log one structured warning, with trace ID and stage breakdown, per request slower than this (negative disables)")
	fs.Duration("prof-interval", 0, "ignored; accepted so existing command lines still start")
	sloReport := fs.Duration("slo-report", 250*time.Millisecond, "latency SLO target for /v1/report: 99%% of windowed requests under this, burn rate on hostprof_slo_* (0 disables)")
	sloProfile := fs.Duration("slo-profile", 500*time.Millisecond, "latency SLO target for /v1/profile/batch (0 disables)")
	logf := addLogFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := logf.setup(); err != nil {
		return err
	}
	if *ontPath == "" {
		return fmt.Errorf("-ontology is required")
	}
	fsyncPolicy, err := store.ParseFsync(*fsync)
	if err != nil {
		return err
	}
	trc := tracer.New(tracer.Config{
		Service:      "hostprof-serve",
		SampleRate:   *traceSample,
		BufferTraces: *traceBuffer,
		Metrics:      obs.Default,
	})

	sloTargets := make(map[string]time.Duration)
	if *sloReport > 0 {
		sloTargets["report"] = *sloReport
	}
	if *sloProfile > 0 {
		sloTargets["profile_batch"] = *sloProfile
	}

	tax := ontology.NewTaxonomy()
	of, err := os.Open(*ontPath)
	if err != nil {
		return err
	}
	ont, err := ontology.ReadJSONL(tax, of)
	of.Close()
	if err != nil {
		return err
	}

	var bl *ontology.Blocklist
	if *blPath != "" {
		bf, err := os.Open(*blPath)
		if err != nil {
			return err
		}
		bl = ontology.NewBlocklist()
		if _, err := bl.ParseHostsFile(bf); err != nil {
			bf.Close()
			return err
		}
		bf.Close()
	}

	db := ads.BuildFromOntology(ont, ads.BuildConfig{Seed: *adsSeed})
	backend, err := server.New(server.Config{
		Ontology:  ont,
		AdDB:      db,
		Blocklist: bl,
		Train:     core.TrainConfig{Dim: *dim, Epochs: *epochs},
		Profile: core.ProfilerConfig{
			N: *n, Agg: core.AggIDF, ANN: *ann, ANNEf: *annEf, ANNM: *annM,
		},
		ProfileCache:  server.DefaultProfileCache,
		Metrics:       obs.Default,
		DataDir:       *dataDir,
		Fsync:         fsyncPolicy,
		SnapshotEvery: *snapEvery,

		RetrainTimeout:     *retrainTimeout,
		MaxInflightReports: *maxInflight,
		MaxHostsPerReport:  *maxHosts,
		Tracer:             trc,
		SlowRequest:        *slowReq,
		SLOTargets:         sloTargets,
	})
	if err != nil {
		return err
	}

	slog.Info("backend listening", append([]any{
		slog.String("addr", "http://"+*addr),
		slog.Int("labelled_hosts", ont.Len()),
		slog.Int("ads", db.Len()),
		slog.Float64("trace_sample", *traceSample)}, buildAttrs()...)...)
	slog.Info("endpoints: POST /v1/report /v1/profile/batch /v1/feedback /v1/retrain[?async=1]; GET/PUT /v1/model; GET /v1/stats /metrics /varz /healthz /readyz /debug/traces")
	handler := withPprof(*pprofOn, backend.Handler())

	// Serve until SIGTERM/SIGINT, then drain in-flight requests and shut
	// the store down cleanly: flush the WAL and snapshot, so the next
	// start recovers instantly instead of replaying the whole log.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	// Slow-client protection: a stalled reader or writer cannot pin a
	// connection (and, on /v1/report, an admission slot) forever.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadTimeout:       *httpTimeout,
		ReadHeaderTimeout: *httpTimeout,
		WriteTimeout:      *httpTimeout,
		IdleTimeout:       4 * *httpTimeout,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	select {
	case err := <-serveErr:
		backend.Close()
		return err
	case <-ctx.Done():
		slog.Info("shutting down: draining requests, flushing store")
		shCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			backend.Close()
			return err
		}
		return backend.Close()
	}
}
