package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"hostprof/internal/cluster"
	"hostprof/internal/core"
	"hostprof/internal/obs"
	"hostprof/internal/obs/tracer"
	"hostprof/internal/server"
	"hostprof/internal/stats"
	"hostprof/internal/store"
)

// The traced run answers "where does the time go" and nothing else: it
// is in-process and serial, so its absolute numbers are not the
// end-to-end run's. It mounts the program's real handlers behind
// span-recording wrappers, drives them with the workload's own request
// stream through server.Extension, and then replays that stream through
// harness-owned instances of each layer (see layers.go).

// inproc is one in-process HTTP endpoint.
type inproc struct {
	URL string
	srv *http.Server
}

// serveInproc serves h on the loopback port listenAddr prefers for
// slot, so the in-process ring places users as the children's does.
func serveInproc(slot int, h http.Handler) (*inproc, error) {
	addr, err := listenAddr(slot)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &inproc{URL: "http://" + l.Addr().String(), srv: &http.Server{Handler: h}}
	go p.srv.Serve(l)
	return p, nil
}

// tracedTopology is the workload's topology rebuilt in-process.
type tracedTopology struct {
	backends []*server.Backend
	shards   []*inproc
	// gateway fronts the shards. Workloads whose own topology has no
	// gateway still get one, used only by the probe streams that
	// measure what the gateway hop costs on this world.
	gateway *cluster.Gateway
	gw      *inproc
	stop    context.CancelFunc
}

func (t *tracedTopology) close() {
	t.stop()
	t.gw.srv.Close()
	t.gateway.Close()
	for i, s := range t.shards {
		s.srv.Close()
		t.backends[i].Close()
	}
}

// backendConfig mirrors `hostprof serve` with serveFlags applied.
func backendConfig(w *World, dataDir string, ann bool, log *slog.Logger) server.Config {
	reg := obs.NewRegistry()
	return server.Config{
		Ontology: w.Ontology, AdDB: w.AdDB, Blocklist: w.Blocklist,
		Train:              core.TrainConfig{Dim: 64, Epochs: 3},
		Profile:            core.ProfilerConfig{N: 40, Agg: core.AggIDF, ANN: ann},
		ProfileCache:       4096,
		Metrics:            reg,
		DataDir:            dataDir,
		Fsync:              store.FsyncInterval,
		SnapshotEvery:      10 * time.Minute,
		MaxInflightReports: 1024,
		MaxHostsPerReport:  1024,
		Tracer:             tracer.New(tracer.Config{Service: "hostprof-serve", SampleRate: 1, BufferTraces: 256, Metrics: reg}),
		SlowRequest:        time.Second,
		SLOTargets:         map[string]time.Duration{"report": 250 * time.Millisecond, "profile_batch": 500 * time.Millisecond},
		Logger:             log,
	}
}

func (b *bench) startTraced(rec *SpanRecorder, shards int, ann bool, log *slog.Logger) (*tracedTopology, error) {
	ctx, stop := context.WithCancel(b.ctx)
	t := &tracedTopology{stop: stop}
	var urls []string
	for i := 0; i < shards; i++ {
		dir, err := b.sup.Dir(fmt.Sprintf("traced-data%d", i))
		if err != nil {
			return nil, err
		}
		be, err := server.New(backendConfig(b.w, dir, ann, log))
		if err != nil {
			return nil, err
		}
		p, err := serveInproc(1+i, rec.wrap("shard", be.Handler()))
		if err != nil {
			return nil, err
		}
		t.backends = append(t.backends, be)
		t.shards = append(t.shards, p)
		urls = append(urls, p.URL)
	}
	reg := obs.NewRegistry()
	gw, err := cluster.New(cluster.Config{
		Backends: urls, Metrics: reg, Logger: log,
		Tracer:      tracer.New(tracer.Config{Service: "hostprof-gateway", SampleRate: 1, BufferTraces: 256, Metrics: reg}),
		SlowRequest: time.Second,
		SLOTargets:  map[string]time.Duration{"report": 250 * time.Millisecond, "profile_batch": 500 * time.Millisecond},
		// The product's 2 s probe loop; its probes are control traffic
		// and pass through the wrappers unspanned.
		HealthInterval: 2 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	gw.Start(ctx)
	t.gateway = gw
	if t.gw, err = serveInproc(0, rec.wrap("gateway", gw.Handler())); err != nil {
		return nil, err
	}
	return t, nil
}

// stream is one serial request stream of the traced run.
type stream struct {
	route string // span label: "report.front", "batch.gw", ...
	url   string
	// exactly one of reports / batches is set
	reports []Report
	batches [][][]string
}

// drive issues the stream serially through server.Extension, one client
// span per request, and returns each request's client-side latency.
func (b *bench) drive(rec *SpanRecorder, s stream) (latUS []float64, failed int, firstErr error) {
	ext := &server.Extension{BaseURL: s.url, HTTPClient: ctlClient}
	call := func(name string, fn func() error) {
		rec.begin(s.route)
		t0 := time.Now()
		var err error
		rec.record(name, func() { err = fn() })
		latUS = append(latUS, float64(time.Since(t0))/1e3)
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	for _, r := range s.reports {
		ext.User = r.User
		call("client.report", func() error {
			_, err := ext.ReportContext(b.ctx, r.Time, r.Hosts)
			return err
		})
	}
	for _, sessions := range s.batches {
		call("client.batch", func() error {
			res, err := ext.ProfileBatch(b.ctx, sessions)
			if err == nil && len(res) != len(sessions) {
				err = fmt.Errorf("%d profiles for %d sessions", len(res), len(sessions))
			}
			return err
		})
	}
	return latUS, failed, firstErr
}

// tracedSizes are the stream lengths of a traced run: the workload's
// own request kind gets the long stream, the other kind a probe.
type tracedSizes struct {
	reports, probeReports int
	batches, probeBatches int
	batchSize             int
}

func (b *bench) tracedSizes(name string) tracedSizes {
	long, probe := b.sizes.TraceLong, b.sizes.TraceProbe
	// A single shard refuses more than 256 sessions per call; only a
	// gateway front takes the 512-session calls.
	ts := tracedSizes{batchSize: b.sizes.CycleSize, probeReports: probe, probeBatches: max(probe/8, 2)}
	if name == "report_cluster" || name == "batch_cold" {
		ts.batchSize = b.sizes.BatchSize
	}
	if name == "report_single" || name == "report_cluster" {
		ts.reports, ts.batches = long, max(probe/8, 2)
	} else {
		ts.reports, ts.batches = probe, max(long/8, 4)
	}
	return ts
}

// tracedRun is the -trace 1 entry point for every workload.
func (b *bench) tracedRun(name string, outDir string) error {
	shards, ann, front := 1, false, "direct"
	switch name {
	case "report_cluster", "batch_cold":
		shards, front = 2, "gw"
	case "daily_cycle":
		ann = true
	}
	logf, err := os.OpenFile(filepath.Join(outDir, name+"-traced.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close()
	log := slog.New(slog.NewTextHandler(logf, &slog.HandlerOptions{Level: slog.LevelWarn}))
	// The store logs through the process default; in a traced run the
	// harness is the process.
	slog.SetDefault(log)

	rec := newSpanRecorder()
	topo, err := b.startTraced(rec, shards, ann, log)
	if err != nil {
		return err
	}
	defer topo.close()

	// Set-up through the same HTTP surface the children expose; the
	// gateway always carries the retrain, so cluster.model_distribute_s
	// is measured on every workload (with one shard it is the cost of
	// pulling the artifact and finding no peer to push it to).
	var urls []string
	for _, s := range topo.shards {
		urls = append(urls, s.URL)
	}
	bodies, err := importBodies(b.w, urls)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i, s := range topo.shards {
		for _, body := range bodies[i] {
			code, raw, err := httpDo(b.ctx, http.MethodPost, s.URL+"/v1/import", body)
			if err != nil || code != http.StatusOK {
				return fmt.Errorf("traced import: HTTP %d %s %v", code, bytes.TrimSpace(raw), err)
			}
		}
	}
	importS := time.Since(t0).Seconds()
	b.run.metric("store.import_visits_per_s", float64(b.w.SeedKept)/importS, "1/s")
	t0 = time.Now()
	code, raw, err := httpDo(b.ctx, http.MethodPost, topo.gw.URL+"/v1/retrain", []byte("{}"))
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("traced retrain: HTTP %d %s %v", code, bytes.TrimSpace(raw), err)
	}
	retrainS := time.Since(t0).Seconds()
	var rr cluster.RetrainResponse
	if err := json.Unmarshal(raw, &rr); err != nil || rr.Partial {
		return fmt.Errorf("traced retrain did not converge: %s", bytes.TrimSpace(raw))
	}
	trainS := Varz(topo.backends[0].Metrics().Snapshot()).Sum("hostprof_http_request_seconds", retrainEndpoint)
	b.run.metric("cluster.model_distribute_s", retrainS-trainS, "s")

	// Request streams. The workload's own front carries both kinds;
	// when that front is a single shard, the probes repeat both kinds
	// through the gateway.
	ts := b.tracedSizes(name)
	sessions := b.w.Sessions((ts.batches + ts.probeBatches) * ts.batchSize)
	if len(sessions) < (ts.batches+ts.probeBatches)*ts.batchSize || len(b.w.Live) < ts.reports+ts.probeReports {
		return fmt.Errorf("live stream too short for the traced streams")
	}
	batchesOf := func(ss []BatchSession) [][][]string {
		var out [][][]string
		for lo := 0; lo+ts.batchSize <= len(ss); lo += ts.batchSize {
			one := make([][]string, ts.batchSize)
			for j, s := range ss[lo : lo+ts.batchSize] {
				one[j] = s.Hosts
			}
			out = append(out, one)
		}
		return out
	}
	frontURL := topo.shards[0].URL
	if front == "gw" {
		frontURL = topo.gw.URL
	}
	streams := []stream{
		{route: "report." + front, url: frontURL, reports: b.w.Live[:ts.reports]},
		{route: "batch." + front, url: frontURL, batches: batchesOf(sessions[:ts.batches*ts.batchSize])},
	}
	if front != "gw" {
		streams = append(streams,
			stream{route: "report.gw", url: topo.gw.URL, reports: b.w.Live[ts.reports : ts.reports+ts.probeReports]},
			stream{route: "batch.gw", url: topo.gw.URL, batches: batchesOf(sessions[ts.batches*ts.batchSize:])},
		)
	}

	// Tracing overhead: the primary stream runs in eight slices with the
	// wrappers alternately recording and switched off, so both halves
	// see the same store growth and the same warm caches.
	primary := 0
	if name == "batch_cold" || name == "daily_cycle" {
		primary = 1
	}
	var sent, failed int
	var tracedLat, untracedLat []float64
	for i, s := range streams {
		slices := []stream{s}
		if i == primary {
			slices = slices[:0]
			const k = 8
			for j := 0; j < k; j++ {
				part := s
				if s.reports != nil {
					part.reports = s.reports[j*len(s.reports)/k : (j+1)*len(s.reports)/k]
				} else {
					part.batches = s.batches[j*len(s.batches)/k : (j+1)*len(s.batches)/k]
				}
				slices = append(slices, part)
			}
		}
		for j, part := range slices {
			on := j%2 == 0
			rec.enabled.Store(on)
			lat, f, err := b.drive(rec, part)
			if err != nil {
				return fmt.Errorf("traced stream %s: %w", s.route, err)
			}
			sent += len(lat)
			failed += f
			if i == primary && on {
				tracedLat = append(tracedLat, lat...)
			} else if i == primary {
				untracedLat = append(untracedLat, lat...)
			}
		}
	}
	tracedMean, untracedMean := stats.Mean(tracedLat), stats.Mean(untracedLat)
	b.run.Attempted += sent
	b.run.Failed += failed
	b.run.metric("loadgen.sent", float64(sent), "count")
	b.run.metric("loadgen.failed", float64(failed), "count")
	b.run.metric("trace.overhead_ratio", tracedMean/untracedMean, "ratio")

	reqs := rec.Requests()
	badRoots, gap, parallel := budgetCheck(reqs)
	b.run.check("span_budget_adds_up", badRoots == 0 && gap == 0,
		"%d traced requests (%d with parallel children): %d without a single client root, worst gap %d ns", len(reqs), parallel, badRoots, gap)
	if err := writeSpans(filepath.Join(outDir, "trace-"+name+".json"), reqs); err != nil {
		return err
	}

	primaryRoute := streams[primary].route
	client := statOf(reqs, "client.", primaryRoute)
	b.run.metric("client.self_us", client.SelfUS, "us")
	b.run.metric("cluster.gateway_self_us", statOf(reqs, "gateway.report", "report.gw").SelfUS, "us")
	b.run.metric("cluster.batch_gateway_self_us", statOf(reqs, "gateway.batch", "batch.gw").SelfUS, "us")
	handler := statOf(reqs, "shard.report", "report."+front)
	b.run.metric("server.handler_us", handler.MeanUS, "us")
	b.run.metric("server.batch_handler_us", statOf(reqs, "shard.batch", "batch."+front).MeanUS, "us")

	var all Varz
	for _, be := range topo.backends {
		all = append(all, be.Metrics().Snapshot()...)
	}
	hits, misses := all.Sum("hostprof_profile_cache_hits_total", nil), all.Sum("hostprof_profile_cache_misses_total", nil)
	b.run.metric("server.profile_cache_hit_ratio", hits/max(hits+misses, 1), "ratio")
	b.run.metric("server.shed_total", all.Sum("hostprof_http_shed_total", nil), "count")
	gv := Varz(topo.gateway.Metrics().Snapshot())
	b.run.metric("cluster.retries_total", gv.Sum("hostprof_gateway_retries_total", nil), "count")
	b.run.metric("cluster.partial_total", gv.Sum("hostprof_gateway_batch_partial_total", nil), "count")

	art, ok, err := topo.backends[0].ModelArtifact()
	if err != nil || !ok {
		return fmt.Errorf("traced model artifact: ok=%v err=%v", ok, err)
	}
	return b.layerReplay(layerInputs{
		artifact: art.Data, handler: topo.backends[0].Handler(), handlerUS: handler.MeanUS,
		reports: b.w.Live[:ts.reports], sessions: sessions[:ts.batches*ts.batchSize], batchSize: ts.batchSize,
		shardURLs: urls,
	})
}
