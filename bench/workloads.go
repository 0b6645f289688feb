package main

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"time"

	"hostprof/internal/server"
	"hostprof/internal/sniffer"
	"hostprof/internal/trace"
)

// Sizes fixes how much work each phase does. Every count is a function
// of -seconds alone — never of how fast the box is — so two commits
// measured with the same -seconds push exactly the same requests
// through the same store sizes.
//
// Closed-loop phases run as a series of equal slices of a fraction of a
// second, and latencies are read in windows of consecutive requests;
// speed metrics report the best slice or window (see bestWindow for
// why).
type Sizes struct {
	Setups int // bring-ups per run; setup_s is their median
	// SIGTERM/restart cycles after every bring-up; recover_s is the
	// lower quartile of them all. A serving shard is back in a tenth of
	// a second, most of it process start, so it gets more tries than
	// the ANN shard, which rebuilds its graphs for over a second.
	Restarts, CycleRestarts int

	Warmup       int     // reports sent before timing starts
	OpenRate     float64 // reports per second in the open loop
	OpenCount    int
	Window       int // reports per latency window of op_p50_ms and op_tail_ms
	ClosedSlices int
	ClosedSlice  int // reports per closed-loop slice

	BatchSlices int // batch_cold: slices of BatchSlice calls of BatchSize sessions
	BatchSlice  int
	BatchSize   int

	SniffPasses int // daily_cycle passes over the rendered capture, one slice each
	CycleSlices int // daily_cycle: slices of CycleSlice calls of CycleSize sessions
	CycleSlice  int
	CycleWindow int // calls per latency window
	CycleSize   int

	RefSample int // answered sessions re-profiled by the reference profiler

	// Traced run: serial requests of the workload's own kind, and of
	// each probe stream.
	TraceLong, TraceProbe int
}

// sizesFor scales the phases to -seconds: the report workloads spend
// 60% of it in the open loop at a fixed rate; the closed-loop counts
// are what this repository's seed commit completes in roughly the rest
// (report_*), in roughly all of it (batch_cold) or in roughly half of
// it (daily_cycle, which also sniffs) on a 2-core box.
func sizesFor(seconds int, quick bool) Sizes {
	if quick {
		return Sizes{
			Setups: 1, Restarts: 1, CycleRestarts: 1, Warmup: 5,
			OpenRate: 100, OpenCount: 40, Window: 20, ClosedSlices: 2, ClosedSlice: 20,
			BatchSlices: 2, BatchSlice: 2, BatchSize: 32,
			SniffPasses: 2, CycleSlices: 2, CycleSlice: 2, CycleWindow: 2, CycleSize: 16, RefSample: 32,
			TraceLong: 40, TraceProbe: 8,
		}
	}
	return Sizes{
		Setups: 3, Restarts: 5, CycleRestarts: 1, Warmup: 100,
		OpenRate: 250, OpenCount: 150 * seconds,
		Window:       100,                               // 0.4 s; its p90 keeps ten samples beyond it
		ClosedSlices: seconds * 3 / 2, ClosedSlice: 300, // about 0.25 s each
		BatchSlices: 2 * seconds, BatchSlice: 8, BatchSize: 512, // about 0.5 s each
		SniffPasses: 3 * seconds,
		CycleSlices: seconds, CycleSlice: 80, CycleWindow: 40, CycleSize: 64, // about 0.5 s each
		RefSample: 256,
		TraceLong: 100 * seconds, TraceProbe: 16 * seconds,
	}
}

// bench carries one workload run.
type bench struct {
	ctx   context.Context
	sup   *Supervisor
	w     *World
	sizes Sizes
	run   *Run

	worldGen time.Duration
}

// setUp brings the topology up Sizes.Setups times, restarts shard 0
// restarts times after each bring-up, tears all but the last topology
// down again, and reports setup_s (the median bring-up; generating the
// world is the harness's work, not the program's, and stays a
// diagnostic), retrain_s (the fastest retrain) and recover_s (the lower
// quartile of the restarts). Spreading the restarts over the bring-ups
// spreads them over several seconds, so one slow stretch of the box
// cannot cover them all, and every restart recovers the same store, the
// seed corpus. The last topology is returned for the measured phases.
func (b *bench) setUp(spec TopologySpec, restarts int) (*Topology, error) {
	var times []SetupTimes
	var recovered []float64
	var topo *Topology
	for i := 0; i < b.sizes.Setups; i++ {
		tag := fmt.Sprintf("setup%d", i)
		t, st, err := bringUp(b.ctx, b.sup, b.w, spec, tag)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		times = append(times, st)
		b.run.check(tag+"_imported", st.Imported == b.w.SeedKept,
			"shards accepted %d visits, seed corpus has %d after the blocklist", st.Imported, b.w.SeedKept)
		took, err := b.restart(t, tag, restarts)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		recovered = append(recovered, took...)
		if i < b.sizes.Setups-1 {
			if err := t.tearDown(); err != nil {
				return nil, err
			}
			continue
		}
		topo = t
	}
	step := func(f func(SetupTimes) time.Duration) []float64 {
		xs := make([]float64, len(times))
		for i, st := range times {
			xs[i] = f(st).Seconds()
		}
		return xs
	}
	imports := median(step(func(st SetupTimes) time.Duration { return st.Import }))
	b.run.metric("setup_s", median(step(func(st SetupTimes) time.Duration { return st.Total })), "s")
	b.run.metric("retrain_s", slices.Min(step(func(st SetupTimes) time.Duration { return st.Retrain })), "s")
	// A restart takes 60 to 100 ms on the same store within one run; the
	// fastest of fifteen is a lucky draw that spreads twice as wide
	// between runs as their lower quartile does.
	b.run.metric("recover_s", percentile(recovered, 25), "s")
	b.run.diag("recover.min_s", slices.Min(recovered), "s")
	b.run.RestartS = recovered
	b.run.RetrainS = step(func(st SetupTimes) time.Duration { return st.Retrain })
	b.run.diag("setup.world_gen_s", b.worldGen.Seconds(), "s")
	b.run.diag("setup.start_s", median(step(func(st SetupTimes) time.Duration { return st.Start })), "s")
	b.run.diag("setup.import_s", imports, "s")
	b.run.diag("store.import_visits_per_s", float64(b.w.SeedKept)/imports, "1/s")
	if topo.Gateway != nil {
		b.run.diag("cluster.model_distribute_s", median(step(func(st SetupTimes) time.Duration { return st.Distribute })), "s")
	}
	return topo, nil
}

// cpuSeconds sums the CPU time of every server process.
func cpuSeconds(t *Topology) (float64, error) {
	var total float64
	for _, p := range t.Procs() {
		c, err := p.CPUSeconds()
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// model fetches the artifact from shard 0, records model_bytes and
// checks every shard serves the same version.
func (b *bench) model(t *Topology) ([]byte, error) {
	artifact, version, err := fetchModel(b.ctx, t.Shards[0])
	if err != nil {
		return nil, err
	}
	b.run.metric("model_bytes", float64(len(artifact)), "bytes")
	for _, p := range t.Shards {
		rd, err := p.Readiness(b.ctx)
		if err != nil {
			return nil, err
		}
		b.run.check("model_version_"+p.Name, rd.ModelVersion == version, "serves %q, artifact is %q", rd.ModelVersion, version)
	}
	return artifact, nil
}

// checkVisits compares /v1/stats (summed over shards by the gateway)
// with what the harness knows was accepted.
func (b *bench) checkVisits(t *Topology, name string, want int) error {
	st, err := t.Front().Stats(b.ctx)
	if err != nil {
		return err
	}
	b.run.check(name, st.Visits == want, "stats report %d visits, imported+accepted is %d", st.Visits, want)
	return nil
}

// restart stops shard 0 with SIGTERM and starts it again on its data
// directory n times, checks after every cycle that nothing acknowledged
// was lost, and returns the recovery times in seconds. SIGTERM is the
// product's graceful path, so each recovery loads the snapshot the
// shutdown wrote.
func (b *bench) restart(t *Topology, tag string, n int) ([]float64, error) {
	before, err := t.Shards[0].Readiness(b.ctx)
	if err != nil {
		return nil, err
	}
	took := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		d, err := t.restartShard(b.ctx, b.sup, 0)
		if err != nil {
			return nil, fmt.Errorf("restart %d: %w", i, err)
		}
		took = append(took, d.Seconds())
		after, err := t.Shards[0].Readiness(b.ctx)
		if err != nil {
			return nil, err
		}
		b.run.check(fmt.Sprintf("%s_recovered_%d", tag, i), after.Visits == before.Visits && after.ModelVersion == before.ModelVersion,
			"%d visits and model %q before SIGTERM, %d and %q after restart", before.Visits, before.ModelVersion, after.Visits, after.ModelVersion)
	}
	return took, nil
}

// rss sums the resident-set high-water marks of the server processes.
func (b *bench) rss(t *Topology) error {
	var total float64
	for _, p := range t.Procs() {
		mb, err := p.PeakRSSMB()
		if err != nil {
			return err
		}
		total += mb
	}
	b.run.metric("rss_peak_mb", total, "MB")
	return nil
}

// scrape records server-side diagnostics from every shard's /varz and
// returns the summed scrape.
func (b *bench) scrape(t *Topology, elapsed float64) (Varz, error) {
	var all Varz
	for _, p := range t.Shards {
		v, err := p.Varz(b.ctx)
		if err != nil {
			return nil, err
		}
		all = append(all, v...)
	}
	hits := all.Sum("hostprof_profile_cache_hits_total", nil)
	misses := all.Sum("hostprof_profile_cache_misses_total", nil)
	if hits+misses > 0 {
		b.run.diag("server.profile_cache_hit_ratio", hits/(hits+misses), "ratio")
	}
	b.run.diag("server.shed_total", all.Sum("hostprof_http_shed_total", nil), "count")
	b.run.diag("store.fsyncs_total", all.Sum("hostprof_store_fsyncs_total", nil), "count")
	b.run.diag("proc.heap_inuse_mb", all.Sum("hostprof_go_heap_inuse_bytes", nil)/(1<<20), "MB")
	if elapsed > 0 {
		b.run.diag("proc.gc_pause_ms_per_s", 1000*all.Sum("hostprof_go_gc_pause_seconds_total", nil)/elapsed, "ms/s")
	}
	if t.Gateway != nil {
		gv, err := t.Gateway.Varz(b.ctx)
		if err != nil {
			return nil, err
		}
		b.run.diag("cluster.retries_total", gv.Sum("hostprof_gateway_retries_total", nil), "count")
		b.run.diag("cluster.partial_total", gv.Sum("hostprof_gateway_batch_partial_total", nil), "count")
	}
	return all, nil
}

// slice is one slice of a measured phase with the server CPU it cost.
type slice struct {
	ph   Phase
	cpuS float64
}

// runSliced sends calls as consecutive slices of size calls each (a
// trailing partial slice is not sent) and returns the slices and their
// concatenation, which is what the run records as the phase.
func (b *bench) runSliced(name string, topo *Topology, client *http.Client, url string, calls []Call, rate float64, size int) ([]slice, Phase, error) {
	conns := loadConns()
	merged := Phase{Name: name, Loop: "closed", Rate: rate, Conns: conns}
	if rate > 0 {
		merged.Loop = "open"
	}
	var out []slice
	for lo := 0; lo+size <= len(calls); lo += size {
		cpu0, err := cpuSeconds(topo)
		if err != nil {
			return nil, merged, err
		}
		ph := runPhase(b.ctx, name, client, url, calls[lo:lo+size], rate, conns)
		cpu1, err := cpuSeconds(topo)
		if err != nil {
			return nil, merged, err
		}
		sl := slice{ph: ph, cpuS: cpu1 - cpu0}
		out = append(out, sl)
		merged.Slices = append(merged.Slices, SliceStat{
			P50MS: percentile(ph.LatMS, 50), TailMS: percentile(ph.LatMS, 95),
			PerSecond: float64(ph.OK) / ph.Elapsed, CPUMS: sliceCPUPerOp(sl),
		})
		merged.Sent += ph.Sent
		merged.OK += ph.OK
		merged.Failed += ph.Failed
		merged.Elapsed += ph.Elapsed
		merged.LatMS = append(merged.LatMS, ph.LatMS...)
		merged.LateMS = append(merged.LateMS, ph.LateMS...)
		if merged.FirstErr == "" {
			merged.FirstErr = ph.FirstErr
		}
	}
	b.run.phase(merged)
	return out, merged, nil
}

// bestSlice returns the lowest (lower is better) or highest value of f
// over the slices.
func bestSlice(parts []slice, lowerIsBetter bool, f func(slice) float64) float64 {
	best := f(parts[0])
	for _, sl := range parts[1:] {
		if lowerIsBetter {
			best = min(best, f(sl))
		} else {
			best = max(best, f(sl))
		}
	}
	return best
}

func sliceCPUPerOp(sl slice) float64 {
	return 1000 * sl.cpuS / float64(max(sl.ph.Sent, 1))
}

// slicePerSecond returns work units completed per second in a slice,
// with units per successful call.
func slicePerSecond(units int) func(slice) float64 {
	return func(sl slice) float64 { return float64(sl.ph.OK*units) / sl.ph.Elapsed }
}

// reportWorkload is report_single and report_cluster: the extension
// loop, first as an open loop of independent users, then as a closed
// loop to find capacity.
func (b *bench) reportWorkload(spec TopologySpec) error {
	sz := b.sizes
	nOpen := sz.OpenCount
	need := sz.Warmup + nOpen + sz.ClosedSlices*sz.ClosedSlice
	if need > len(b.w.Live) {
		return fmt.Errorf("live stream has %d reports, phases need %d", len(b.w.Live), need)
	}
	reports := b.w.Live[:need]
	calls, firstAd, err := reportCalls(b.w, reports)
	if err != nil {
		return err
	}
	topo, err := b.setUp(spec, sz.Restarts)
	if err != nil {
		return err
	}
	if _, err := b.model(topo); err != nil {
		return err
	}
	url := topo.Front().URL + "/v1/report"
	client := newLoadClient(loadConns())
	defer client.CloseIdleConnections()

	warm := runPhase(b.ctx, "warmup", client, url, calls[:sz.Warmup], 0, loadConns())
	b.run.phase(warm)
	t0 := time.Now()
	open := runPhase(b.ctx, "open", client, url, calls[sz.Warmup:sz.Warmup+nOpen], sz.OpenRate, loadConns())
	b.run.phase(open)
	closedSlices, closed, err := b.runSliced("closed", topo, client, url, calls[sz.Warmup+nOpen:], 0, sz.ClosedSlice)
	if err != nil {
		return err
	}
	elapsed := time.Since(t0).Seconds()

	b.run.metric("op_p50_ms", bestWindow(open.LatMS, sz.Window, 50), "ms")
	b.run.metric("op_tail_ms", bestWindow(open.LatMS, sz.Window, 90), "ms")
	b.run.metric("capacity_per_s", bestSlice(closedSlices, false, slicePerSecond(1)), "1/s")
	b.run.metric("cpu_ms_per_op", bestSlice(closedSlices, true, sliceCPUPerOp), "ms")
	b.run.diag("loadgen.report_p50_ms", percentile(open.LatMS, 50), "ms")
	late := percentile(open.LateMS, 99)
	b.run.diag("loadgen.lateness_p99_ms", late, "ms")
	if late > 1 {
		b.run.flag("open-loop generator ran late (p99 %.3f ms > 1 ms): op_p50_ms and op_tail_ms include generator delay", late)
	}
	b.run.diag("loadgen.report_p95_ms", percentile(open.LatMS, 95), "ms")
	b.run.diag("loadgen.report_p99_ms", percentile(open.LatMS, 99), "ms")
	b.run.diag("loadgen.report_p999_ms", percentile(open.LatMS, 99.9), "ms")
	b.run.diag("loadgen.report_max_ms", percentile(open.LatMS, 100), "ms")
	b.run.diag("loadgen.closed_p50_ms", percentile(closed.LatMS, 50), "ms")

	hits, scored := reportTopicHits(b.w, reports, firstAd)
	b.run.check("reports_answered_with_ads", scored > 0, "%d of %d reports carried ads", scored, len(reports))
	b.run.metric("topic_hit_ratio", float64(hits)/float64(max(scored, 1)), "ratio")

	want := b.w.SeedKept
	if warm.Failed+open.Failed+closed.Failed == 0 {
		for _, r := range reports {
			want += r.Kept
		}
		if err := b.checkVisits(topo, "visits_after_traffic", want); err != nil {
			return err
		}
	}
	if _, err := b.scrape(topo, elapsed); err != nil {
		return err
	}
	if err := b.rss(topo); err != nil {
		return err
	}
	// One more restart, on the store the traffic grew: the accepted
	// reports must survive it too.
	took, err := b.restart(topo, "after_traffic", 1)
	if err != nil {
		return err
	}
	b.run.diag("recover.after_traffic_s", took[0], "s")
	return topo.tearDown()
}

// batchCold is the read-only scatter-gather workload: closed-loop
// callers sharing cold /v1/profile/batch calls through the gateway.
func (b *bench) batchCold() error {
	sz := b.sizes
	want := sz.BatchSlices * sz.BatchSlice * sz.BatchSize
	sessions := b.w.Sessions(want)
	if len(sessions) < want {
		return fmt.Errorf("live stream yields %d sessions, need %d", len(sessions), want)
	}
	calls, answers, err := batchCalls(sessions, sz.BatchSize)
	if err != nil {
		return err
	}
	topo, err := b.setUp(TopologySpec{Shards: 2}, sz.Restarts)
	if err != nil {
		return err
	}
	artifact, err := b.model(topo)
	if err != nil {
		return err
	}
	url := topo.Front().URL + "/v1/profile/batch"
	client := newLoadClient(loadConns())
	defer client.CloseIdleConnections()

	parts, ph, err := b.runSliced("batch", topo, client, url, calls, 0, sz.BatchSlice)
	if err != nil {
		return err
	}
	// The tail of an 8-call window is its slowest call.
	b.run.metric("op_p50_ms", bestWindow(ph.LatMS, sz.BatchSlice, 50), "ms")
	b.run.metric("op_tail_ms", bestWindow(ph.LatMS, sz.BatchSlice, 95), "ms")
	b.run.metric("capacity_per_s", bestSlice(parts, false, slicePerSecond(sz.BatchSize)), "1/s")
	b.run.metric("cpu_ms_per_op", bestSlice(parts, true, sliceCPUPerOp), "ms")
	b.run.diag("loadgen.batch_p50_ms", percentile(ph.LatMS, 50), "ms")
	b.run.diag("loadgen.batch_p95_ms", percentile(ph.LatMS, 95), "ms")

	if err := b.checkBatchAnswers(sessions, answers, sz.BatchSize, artifact, false); err != nil {
		return err
	}
	all, err := b.scrape(topo, ph.Elapsed)
	if err != nil {
		return err
	}
	hits := all.Sum("hostprof_profile_cache_hits_total", nil)
	misses := all.Sum("hostprof_profile_cache_misses_total", nil)
	b.run.check("profile_cache_cold", hits < 0.05*(hits+misses), "%.0f hits, %.0f misses: the workload is only valid while the LRU misses", hits, misses)
	if err := b.checkVisits(topo, "visits_unchanged", b.w.SeedKept); err != nil {
		return err
	}
	if err := b.rss(topo); err != nil {
		return err
	}
	return topo.tearDown()
}

// checkBatchAnswers scores batch answers against ground truth and the
// reference profiler.
func (b *bench) checkBatchAnswers(sessions []BatchSession, answers [][]server.ProfileResult, size int, artifact []byte, ann bool) error {
	hits, scored, err := batchTopicHits(b.w, sessions, answers, size)
	if err != nil {
		return err
	}
	b.run.check("sessions_profiled", scored > 0, "%d of %d sessions profiled", scored, len(answers)*size)
	b.run.metric("topic_hit_ratio", float64(hits)/float64(max(scored, 1)), "ratio")
	ref, err := referenceProfiler(b.w, artifact, ann)
	if err != nil {
		return err
	}
	n, mismatch := compareWithReference(b.w, ref, sessions, answers, size, b.sizes.RefSample, ann)
	b.run.check("answers_match_reference", mismatch == "" && n > 0, "%d sessions re-profiled from the fetched artifact %s", n, mismatch)
	return nil
}

// dailyCycle is the operator's morning: sniff yesterday's traffic,
// bulk-load, retrain, restart, and serve batches from the recovered
// ANN model.
func (b *bench) dailyCycle() error {
	sz := b.sizes
	if err := b.sniff(); err != nil {
		return err
	}
	want := sz.CycleSlices * sz.CycleSlice * sz.CycleSize
	sessions := b.w.Sessions(want)
	if len(sessions) < want {
		return fmt.Errorf("live stream yields %d sessions, need %d", len(sessions), want)
	}
	calls, answers, err := batchCalls(sessions, sz.CycleSize)
	if err != nil {
		return err
	}
	// Every bring-up ends with a restart, so the topology that answers
	// the batches is a recovered one.
	topo, err := b.setUp(TopologySpec{Shards: 1, ANN: true}, sz.CycleRestarts)
	if err != nil {
		return err
	}
	artifact, err := b.model(topo)
	if err != nil {
		return err
	}
	url := topo.Front().URL + "/v1/profile/batch"
	client := newLoadClient(loadConns())
	defer client.CloseIdleConnections()
	parts, ph, err := b.runSliced("batch_recovered", topo, client, url, calls, 0, sz.CycleSlice)
	if err != nil {
		return err
	}
	// p90 of a 40-call window keeps four samples beyond it.
	b.run.metric("op_p50_ms", bestWindow(ph.LatMS, sz.CycleWindow, 50), "ms")
	b.run.metric("op_tail_ms", bestWindow(ph.LatMS, sz.CycleWindow, 90), "ms")
	b.run.metric("cpu_ms_per_op", bestSlice(parts, true, sliceCPUPerOp), "ms")
	b.run.diag("loadgen.batch_sessions_per_s", bestSlice(parts, false, slicePerSecond(sz.CycleSize)), "1/s")
	b.run.diag("loadgen.batch_p50_ms", percentile(ph.LatMS, 50), "ms")
	b.run.diag("loadgen.batch_p95_ms", percentile(ph.LatMS, 95), "ms")
	if err := b.checkBatchAnswers(sessions, answers, sz.CycleSize, artifact, true); err != nil {
		return err
	}
	all, err := b.scrape(topo, ph.Elapsed)
	if err != nil {
		return err
	}
	if q := all.Sum("hostprof_index_ann_queries_total", nil); q > 0 {
		b.run.diag("index.ann_fallback_ratio", all.Sum("hostprof_index_ann_fallbacks_total", nil)/q, "ratio")
	}
	if err := b.checkVisits(topo, "visits_unchanged", b.w.SeedKept); err != nil {
		return err
	}
	if err := b.rss(topo); err != nil {
		return err
	}
	return topo.tearDown()
}

// sniff renders the first live day of SniffUsers users to wire frames
// (TLS, QUIC and DNS mixed) and pushes the capture through a fresh
// Observer SniffPasses times. capacity_per_s on this workload is frames
// per second through Observer.ProcessPacket; the recovered visits must
// be exactly the rendered ones.
func (b *bench) sniff() error {
	syn := sniffer.NewSynthesizer(sniffer.WireConfig{Channel: sniffer.ChannelMixed, Seed: subSeed(b.w.Seed, 6)})
	capt, err := syn.SynthesizeTrace(trace.New(append([]trace.Visit(nil), b.w.SniffVisits...)))
	if err != nil {
		return fmt.Errorf("rendering capture: %w", err)
	}
	var seen []trace.Visit
	perPass := make([]float64, 0, b.sizes.SniffPasses)
	for pass := 0; pass < b.sizes.SniffPasses; pass++ {
		t0 := time.Now()
		obsv := sniffer.NewObserver(sniffer.ObserverConfig{})
		seen = seen[:0]
		for i, frame := range capt.Packets {
			if v, ok := obsv.ProcessPacket(frame, capt.Times[i]); ok {
				seen = append(seen, v)
			}
		}
		perPass = append(perPass, float64(capt.Len())/time.Since(t0).Seconds())
	}
	frames := b.sizes.SniffPasses * capt.Len()
	sniffed := Phase{Name: "sniff", Loop: "closed", Conns: 1, Sent: frames, OK: frames}
	for _, x := range perPass {
		sniffed.Slices = append(sniffed.Slices, SliceStat{PerSecond: x})
		sniffed.Elapsed += float64(capt.Len()) / x
	}
	b.run.phase(sniffed)
	b.run.metric("capacity_per_s", slices.Max(perPass), "1/s")
	b.run.diag("sniffer.frames_per_pass", float64(capt.Len()), "count")
	b.run.diag("sniffer.visits_per_packet", float64(len(seen))/float64(capt.Len()), "ratio")

	want := trace.New(append([]trace.Visit(nil), b.w.SniffVisits...)).Visits()
	got := trace.New(append([]trace.Visit(nil), seen...)).Visits()
	ok := len(got) == len(want)
	detail := fmt.Sprintf("%d visits rendered, %d recovered", len(want), len(got))
	if ok {
		count := make(map[trace.Visit]int, len(want))
		for _, v := range want {
			count[v]++
		}
		for _, v := range got {
			count[v]--
		}
		for v, c := range count {
			if c != 0 {
				ok = false
				detail = fmt.Sprintf("visit %+v rendered %+d times more than recovered", v, c)
				break
			}
		}
	}
	b.run.check("observer_recovers_capture", ok, "%s", detail)
	return nil
}
