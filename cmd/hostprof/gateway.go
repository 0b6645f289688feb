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
	"strings"
	"syscall"
	"time"

	"hostprof/internal/cluster"
	"hostprof/internal/obs"
	"hostprof/internal/obs/tracer"
)

// cmdGateway runs the stateless cluster router in front of N `hostprof
// serve` shards: consistent-hash routing for per-user traffic,
// scatter-gather for batch profiling, and versioned model distribution
// after retrains.
func cmdGateway(args []string) error {
	fs := flag.NewFlagSet("gateway", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8410", "listen address")
	backends := fs.String("backends", "", "comma-separated shard base URLs, e.g. http://127.0.0.1:8421,http://127.0.0.1:8422 (required)")
	vnodes := fs.Int("vnodes", cluster.DefaultVirtualNodes, "virtual nodes per shard on the hash ring")
	shardTimeout := fs.Duration("shard-timeout", 5*time.Second, "per-shard request deadline (reports, batch chunks, probes)")
	retrainTimeout := fs.Duration("retrain-timeout", 10*time.Minute, "deadline for a retrain plus model distribution")
	healthEvery := fs.Duration("health-interval", 2*time.Second, "shard /readyz probe cadence, also how long a /v1/cluster/metrics scrape stays fresh (0 disables the loop; every read then re-scrapes)")
	httpTimeout := fs.Duration("http-timeout", time.Minute, "HTTP read/write timeout (idle timeout is 4x this)")
	traceSample := fs.Float64("trace-sample", 1, "request-trace head-sampling rate in [0,1]; 0 disables tracing")
	traceBuffer := fs.Int("trace-buffer", 256, "completed traces retained for /debug/traces")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ and sample mutex and block events")
	slowReq := fs.Duration("slow-request", time.Second, "log one structured warning, with trace ID and stage breakdown, per gateway request slower than this (0 disables)")
	sloReport := fs.Duration("slo-report", 250*time.Millisecond, "latency SLO target for /v1/report through the gateway: 99%% of windowed requests under this, burn rate on hostprof_gateway_slo_* (0 disables)")
	sloProfile := fs.Duration("slo-profile", 500*time.Millisecond, "latency SLO target for /v1/profile/batch through the gateway (0 disables)")
	logf := addLogFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := logf.setup(); err != nil {
		return err
	}
	if *backends == "" {
		return fmt.Errorf("-backends is required")
	}

	trc := tracer.New(tracer.Config{
		Service:      "hostprof-gateway",
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
	gw, err := cluster.New(cluster.Config{
		Backends:       strings.Split(*backends, ","),
		VirtualNodes:   *vnodes,
		ShardTimeout:   *shardTimeout,
		RetrainTimeout: *retrainTimeout,
		HealthInterval: *healthEvery,
		SLOTargets:     sloTargets,
		SlowRequest:    *slowReq,
		Metrics:        obs.Default,
		Tracer:         trc,
		Logger:         slog.Default(),
	})
	if err != nil {
		return err
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	gw.Start(ctx)
	defer gw.Close()

	st := gw.ClusterStatus()
	slog.Info("gateway listening", append([]any{
		slog.String("addr", "http://"+*addr),
		slog.Int("backends", st.Backends),
		slog.Int("alive", st.AliveShards),
		slog.Int("ready", st.ReadyShards)}, buildAttrs()...)...)
	slog.Info("endpoints: POST /v1/report /v1/profile/batch /v1/feedback /v1/retrain /v1/cluster/resize; GET /v1/stats /v1/cluster /v1/cluster/metrics /v1/cluster/events /metrics /varz /healthz /readyz /debug/traces")

	handler := withPprof(*pprofOn, gw.Handler())
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
		return err
	case <-ctx.Done():
		slog.Info("gateway shutting down: draining requests")
		shCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		return nil
	}
}
