// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus component throughput ("the algorithm is fully
// parallelizable ... allowing traffic analysis at line rate", Section
// 4.1) and the ablations called out in DESIGN.md.
//
// Quality-bearing benchmarks report their headline quantity as a custom
// metric (purity, affinity, CTR ratio) next to the timing, so a single
// `go test -bench=.` run reproduces both the numbers and the costs.
package hostprof_test

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"hostprof"
	"hostprof/internal/ads"
	"hostprof/internal/core"
	"hostprof/internal/experiment"
	"hostprof/internal/index"
	"hostprof/internal/sniffer"
	"hostprof/internal/stats"
	"hostprof/internal/store"
	"hostprof/internal/synth"
	"hostprof/internal/trace"
	"hostprof/internal/tsne"
)

// benchWorld lazily builds the shared experiment setup; its cost is kept
// out of every benchmark's timer.
var (
	benchOnce  sync.Once
	benchSetup *experiment.Setup
	benchErr   error
)

func setupBench(b *testing.B) *experiment.Setup {
	b.Helper()
	benchOnce.Do(func() {
		benchSetup, benchErr = experiment.NewSetup(experiment.SmallConfig(77))
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSetup
}

// midTraceSessions returns up to limit non-empty 20-minute sessions, one
// per user, taken at the middle of each user's trace.
func midTraceSessions(s *experiment.Setup, limit int) [][]string {
	per := s.Filtered.PerUserVisits()
	var sessions [][]string
	for _, uid := range s.Filtered.Users() {
		visits := per[uid]
		if sess := s.Filtered.Session(uid, visits[len(visits)/2].Time, 1200); len(sess) > 0 {
			sessions = append(sessions, sess)
		}
		if len(sessions) == limit {
			break
		}
	}
	return sessions
}

// --- One benchmark per table/figure -----------------------------------

func BenchmarkFig2UserDiversityHostnames(b *testing.B) {
	s := setupBench(b)
	b.ResetTimer()
	var r experiment.DiversityResult
	for i := 0; i < b.N; i++ {
		r = experiment.Fig2UserDiversityHostnames(s)
	}
	b.ReportMetric(float64(r.CoreSizes[0]), "core80-size")
}

func BenchmarkFig3UserDiversityCategories(b *testing.B) {
	s := setupBench(b)
	b.ResetTimer()
	var r experiment.DiversityResult
	for i := 0; i < b.N; i++ {
		r = experiment.Fig3UserDiversityCategories(s)
	}
	b.ReportMetric(float64(r.CommonToAll), "common-cats")
}

func BenchmarkFig4TSNEEmbeddings(b *testing.B) {
	s := setupBench(b)
	b.ResetTimer()
	var r experiment.Fig4Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiment.Fig4TSNE(s, 0, 30)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Purity2D, "purity2d")
}

func BenchmarkFig5ClusterPurity(b *testing.B) {
	s := setupBench(b)
	b.ResetTimer()
	var r experiment.Fig5Result
	for i := 0; i < b.N; i++ {
		r = experiment.Fig5ClusterPurity(s)
	}
	b.ReportMetric(r.MeanPurity, "purity")
	b.ReportMetric(r.Chance, "chance")
}

// benchCampaign runs the ad-replacement campaign once per iteration and
// returns the last result.
func benchCampaign(b *testing.B, s *experiment.Setup) experiment.CampaignResult {
	b.Helper()
	var r experiment.CampaignResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiment.RunCampaign(s, s.Profiler, experiment.CampaignConfig{Seed: uint64(i) + 7})
		if err != nil {
			b.Fatal(err)
		}
	}
	return r
}

func BenchmarkFig6aWebsiteTopics(b *testing.B) {
	s := setupBench(b)
	b.ResetTimer()
	r := benchCampaign(b, s)
	_, share := dominantShare(r.WebsiteTopics)
	b.ReportMetric(share, "top-share")
}

func BenchmarkFig6bAdNetworkAdTopics(b *testing.B) {
	s := setupBench(b)
	b.ResetTimer()
	r := benchCampaign(b, s)
	_, share := dominantShare(r.AdNetTopics)
	b.ReportMetric(share, "top-share")
}

func BenchmarkFig6cEavesdropperAdTopics(b *testing.B) {
	s := setupBench(b)
	b.ResetTimer()
	r := benchCampaign(b, s)
	_, share := dominantShare(r.EavesTopics)
	b.ReportMetric(share, "top-share")
}

func BenchmarkTableCTR(b *testing.B) {
	s := setupBench(b)
	b.ResetTimer()
	r := benchCampaign(b, s)
	b.ReportMetric(r.EavesCTR.Percent(), "eaves-ctr-pct")
	b.ReportMetric(r.AdNetCTR.Percent(), "adnet-ctr-pct")
	b.ReportMetric(r.TTest.P, "ttest-p")
}

func BenchmarkTableCoverage(b *testing.B) {
	s := setupBench(b)
	b.ResetTimer()
	var c experiment.CoverageStats
	for i := 0; i < b.N; i++ {
		c = experiment.TableCoverage(s)
	}
	b.ReportMetric(100*c.Coverage, "coverage-pct")
	b.ReportMetric(100*c.Contentless, "contentless-pct")
}

func BenchmarkTableTrackerFilter(b *testing.B) {
	s := setupBench(b)
	b.ResetTimer()
	var t experiment.TrackerStats
	for i := 0; i < b.N; i++ {
		t = experiment.TableTrackerFilter(s)
	}
	b.ReportMetric(100*t.Share, "tracker-share-pct")
}

// --- Scale / line-rate claims (Section 4.1) ----------------------------

func BenchmarkTrainThroughput(b *testing.B) {
	s := setupBench(b)
	corpus := s.Filtered.AllSequences()
	var tokens int64
	for _, seq := range corpus {
		tokens += int64(len(seq))
	}
	cfg := core.TrainConfig{Dim: 32, Epochs: 1, MinCount: 2, Workers: 1, Seed: 5, Subsample: -1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Train(corpus, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tokens)*float64(b.N)/b.Elapsed().Seconds(), "tokens/s")
}

func BenchmarkSNIParse(b *testing.B) {
	rng := stats.NewRNG(1)
	rec := sniffer.BuildClientHello("throughput.test.example", rng)
	b.SetBytes(int64(len(rec)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sniffer.ParseSNI(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQUICInitialParse(b *testing.B) {
	rng := stats.NewRNG(2)
	pkt, err := sniffer.BuildQUICInitial("quic.test.example", rng)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(pkt)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sniffer.ParseQUICInitialSNI(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDNSParse(b *testing.B) {
	q, err := sniffer.BuildDNSQuery("dns.test.example", 9)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(q)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sniffer.ParseDNSQueryName(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObserverPacketRate(b *testing.B) {
	// Pre-render a realistic packet mix once, then measure pure
	// observation throughput.
	visits := make([]trace.Visit, 200)
	for i := range visits {
		visits[i] = trace.Visit{User: i % 8, Time: int64(i), Host: "rate.test.example"}
	}
	syn := sniffer.NewSynthesizer(sniffer.WireConfig{Channel: sniffer.ChannelMixed, Seed: 3})
	cap, err := syn.SynthesizeTrace(trace.New(visits))
	if err != nil {
		b.Fatal(err)
	}
	var bytes int64
	for _, p := range cap.Packets {
		bytes += int64(len(p))
	}
	b.SetBytes(bytes / int64(len(cap.Packets)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs := sniffer.NewObserver(sniffer.ObserverConfig{})
		for j, frame := range cap.Packets {
			obs.ProcessPacket(frame, cap.Times[j])
		}
	}
	b.ReportMetric(float64(len(cap.Packets))*float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
}

func BenchmarkProfileSession(b *testing.B) {
	s := setupBench(b)
	per := s.Filtered.PerUserVisits()
	uid := s.Filtered.Users()[0]
	visits := per[uid]
	session := s.Filtered.Session(uid, visits[len(visits)/2].Time, 1200)
	if len(session) == 0 {
		b.Fatal("empty bench session")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Profiler.ProfileSession(session); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdSelection selects ads for the profiles reports actually
// carry: each user's mid-trace session through Eq. 4, a mixture of a few
// dozen label rows.
func BenchmarkAdSelection(b *testing.B) {
	s := setupBench(b)
	var profiles []hostprof.Vector
	for _, session := range midTraceSessions(s, 64) {
		if p, err := s.Profiler.ProfileSession(session); err == nil {
			profiles = append(profiles, p)
		}
	}
	if len(profiles) == 0 {
		b.Fatal("no bench profiles")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.Selector.Select(profiles[i%len(profiles)], 20); len(got) == 0 {
			b.Fatal("no ads")
		}
	}
}

func BenchmarkTSNE(b *testing.B) {
	rng := stats.NewRNG(4)
	points := make([][]float64, 120)
	for i := range points {
		points[i] = make([]float64, 16)
		for d := range points[i] {
			points[i][d] = rng.NormFloat64()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tsne.Embed(points, tsne.Config{Iterations: 30, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md "Design notes") -------------------------------

// ablationCampaign runs the campaign with a profiler variant and reports
// the mean eavesdropper ad affinity (the deterministic quality signal).
func ablationCampaign(b *testing.B, s *experiment.Setup, prof *core.Profiler, cfg experiment.CampaignConfig) {
	b.Helper()
	var r experiment.CampaignResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiment.RunCampaign(s, prof, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.MeanEavesAffinity, "eaves-affinity")
	b.ReportMetric(float64(r.ProfileFailures), "profile-failures")
}

func BenchmarkAblationAggregation(b *testing.B) {
	s := setupBench(b)
	for _, c := range []struct {
		name string
		agg  core.Aggregation
	}{{"mean", core.AggMean}, {"sum", core.AggSum}, {"idf", core.AggIDF}} {
		b.Run(c.name, func(b *testing.B) {
			p := core.NewProfiler(s.Model, s.Ontology, core.ProfilerConfig{N: 40, Agg: c.agg})
			ablationCampaign(b, s, p, experiment.CampaignConfig{Seed: 11})
		})
	}
}

func BenchmarkAblationNeighbours(b *testing.B) {
	s := setupBench(b)
	for _, n := range []int{10, 40, 160} {
		b.Run(map[int]string{10: "N10", 40: "N40", 160: "N160"}[n], func(b *testing.B) {
			p := core.NewProfiler(s.Model, s.Ontology, core.ProfilerConfig{N: n, Agg: core.AggIDF})
			ablationCampaign(b, s, p, experiment.CampaignConfig{Seed: 11})
		})
	}
}

func BenchmarkAblationWindow(b *testing.B) {
	s := setupBench(b)
	for _, c := range []struct {
		name string
		secs int64
	}{{"T5min", 300}, {"T20min", 1200}, {"T60min", 3600}} {
		b.Run(c.name, func(b *testing.B) {
			cfg := s.Config
			cfg.SessionWindow = c.secs
			s2 := *s
			s2.Config = cfg
			ablationCampaign(b, &s2, s.Profiler, experiment.CampaignConfig{Seed: 11})
		})
	}
}

func BenchmarkAblationNoDedup(b *testing.B) {
	s := setupBench(b)
	for _, c := range []struct {
		name string
		skip bool
	}{{"dedup", false}, {"nodedup", true}} {
		b.Run(c.name, func(b *testing.B) {
			p := core.NewProfiler(s.Model, s.Ontology, core.ProfilerConfig{N: 40, Agg: core.AggIDF, SkipDedup: c.skip})
			ablationCampaign(b, s, p, experiment.CampaignConfig{Seed: 11})
		})
	}
}

func BenchmarkAblationNoTrackerFilter(b *testing.B) {
	// Train a model on the unfiltered trace (trackers kept) and compare
	// eavesdropper ad quality.
	s := setupBench(b)
	cfg := s.Config.Train
	model, err := core.Train(s.Raw.AllSequences(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	p := core.NewProfiler(model, s.Ontology, core.ProfilerConfig{N: 40, Agg: core.AggIDF})
	b.ResetTimer()
	ablationCampaign(b, s, p, experiment.CampaignConfig{Seed: 11})
}

// --- helpers ------------------------------------------------------------

func dominantShare(m [][]float64) (int, float64) {
	if len(m) == 0 {
		return -1, 0
	}
	means := make([]float64, len(m[0]))
	for _, row := range m {
		for i, v := range row {
			means[i] += v / float64(len(m))
		}
	}
	best := 0
	for i, v := range means {
		if v > means[best] {
			best = i
		}
	}
	return best, means[best]
}

// Keep the facade exercised from the bench package too.
var _ = hostprof.NewTaxonomy

func BenchmarkTrainParallelScaling(b *testing.B) {
	s := setupBench(b)
	corpus := s.Filtered.AllSequences()
	for _, w := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "workers1", 2: "workers2", 4: "workers4"}[w], func(b *testing.B) {
			cfg := core.TrainConfig{Dim: 32, Epochs: 1, MinCount: 2, Workers: w, Seed: 5, Subsample: -1}
			for i := 0; i < b.N; i++ {
				if _, err := core.Train(corpus, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAdNetworkServe(b *testing.B) {
	s := setupBench(b)
	net := ads.NewAdNetwork(s.AdDB, 9)
	user := s.Population.Users[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Serve(user, i%34, i%14)
	}
}

func BenchmarkSynthesizeWire(b *testing.B) {
	visits := make([]trace.Visit, 50)
	for i := range visits {
		visits[i] = trace.Visit{User: i % 4, Time: int64(i), Host: "wire.test.example"}
	}
	tr := trace.New(visits)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		syn := sniffer.NewSynthesizer(sniffer.WireConfig{Channel: sniffer.ChannelTLS, Seed: uint64(i)})
		if _, err := syn.SynthesizeTrace(tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUniverseGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		u := synth.NewUniverse(synth.UniverseConfig{Sites: 150, Seed: uint64(i)})
		if len(u.Hosts) == 0 {
			b.Fatal("empty universe")
		}
	}
}

// --- Durable store (internal/store) -------------------------------------

// BenchmarkPipelineParallelIngest measures concurrent visit ingestion
// through the public pipeline: with the sharded store, callers contend
// only on their visit's shard, so throughput should scale with
// GOMAXPROCS instead of serializing on one mutex.
func BenchmarkPipelineParallelIngest(b *testing.B) {
	s := setupBench(b)
	p, err := hostprof.NewPipeline(hostprof.PipelineConfig{Ontology: s.Ontology})
	if err != nil {
		b.Fatal(err)
	}
	var next int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Distinct users per goroutine spread appends across shards the
		// way distinct subscriber lines would.
		user := int(atomic.AddInt64(&next, 1))
		t := int64(0)
		for pb.Next() {
			t++
			p.IngestVisit(trace.Visit{User: user, Time: t, Host: "ingest.bench.example"})
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "visits/s")
}

// BenchmarkStoreAppendParallel isolates shard scaling: the same parallel
// append load against 1, 8 and 32 shards. One shard reproduces the old
// single-mutex hot path.
func BenchmarkStoreAppendParallel(b *testing.B) {
	for _, shards := range []int{1, 8, 32} {
		b.Run(map[int]string{1: "shards1", 8: "shards8", 32: "shards32"}[shards], func(b *testing.B) {
			st, err := store.Open(store.Config{Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			var next int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				user := int(atomic.AddInt64(&next, 1))
				t := int64(0)
				for pb.Next() {
					t++
					if err := st.Append(trace.Visit{User: user, Time: t, Host: "shard.bench.example"}); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkStoreWALAppend measures the durable append path (WAL write,
// interval fsync) — the per-visit cost a network observer pays for crash
// safety.
func BenchmarkStoreWALAppend(b *testing.B) {
	st, err := store.Open(store.Config{Dir: b.TempDir(), Fsync: store.FsyncInterval})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Append(trace.Visit{User: i & 63, Time: int64(i), Host: "wal.bench.example"}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "appends/s")
}

// BenchmarkStoreRecovery measures startup WAL replay: the dir is
// populated once and every iteration re-opens it cold (Close never
// snapshots, so each Open replays the full log).
func BenchmarkStoreRecovery(b *testing.B) {
	const visits = 20000
	dir := b.TempDir()
	st, err := store.Open(store.Config{Dir: dir, Fsync: store.FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < visits; i++ {
		if err := st.Append(trace.Visit{User: i & 63, Time: int64(i), Host: "recovery.bench.example"}); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := store.Open(store.Config{Dir: dir, Fsync: store.FsyncNever})
		if err != nil {
			b.Fatal(err)
		}
		if got := st.Recovery().ReplayedRecords; got != visits {
			b.Fatalf("replayed %d records, want %d", got, visits)
		}
		st.Close()
	}
	b.ReportMetric(float64(visits)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// --- Section 7.2 extensions ---------------------------------------------

func BenchmarkExtECHProfiling(b *testing.B) {
	s := setupBench(b)
	for _, c := range []struct {
		name string
		prob float64
	}{{"ech0", 0}, {"ech40", 0.4}, {"ech100", 1}} {
		b.Run(c.name, func(b *testing.B) {
			var r experiment.ExtResult
			for i := 0; i < b.N; i++ {
				var err error
				ch := sniffer.ChannelTLS
				if c.prob >= 1 {
					ch = sniffer.ChannelECH
				}
				r, err = experiment.RunExtension(s, experiment.ExtConfig{
					Wire:       sniffer.WireConfig{Channel: ch, ECHProb: c.prob, Seed: 501},
					ResolveIPs: true,
					Seed:       503,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.MatchRate(), "match-rate")
			b.ReportMetric(r.FallbackShare, "ip-fallback-share")
		})
	}
}

func BenchmarkExtNATHouseholds(b *testing.B) {
	s := setupBench(b)
	for _, n := range []int{1, 3, 6} {
		b.Run(map[int]string{1: "nat1", 3: "nat3", 6: "nat6"}[n], func(b *testing.B) {
			var r experiment.ExtResult
			for i := 0; i < b.N; i++ {
				var err error
				r, err = experiment.RunExtension(s, experiment.ExtConfig{
					Wire: sniffer.WireConfig{Channel: sniffer.ChannelTLS, NATSize: n, Seed: 505},
					Seed: 507,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.MatchRate(), "match-rate")
			b.ReportMetric(float64(r.Profiled), "wire-identities")
		})
	}
}

func BenchmarkAblationDailyRetrain(b *testing.B) {
	s := setupBench(b)
	for _, c := range []struct {
		name  string
		daily bool
	}{{"one-model", false}, {"daily-retrain", true}} {
		b.Run(c.name, func(b *testing.B) {
			var r experiment.CampaignResult
			for i := 0; i < b.N; i++ {
				var err error
				r, err = experiment.RunCampaign(s, s.Profiler,
					experiment.CampaignConfig{Seed: 11, DailyRetrain: c.daily})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.MeanEavesAffinity, "eaves-affinity")
		})
	}
}

// --- Serving index (parallel top-k vs serial scan) ----------------------

// nearestBenchIndex lazily builds a production-sized packed index
// (100K rows x 128 dims, the scale the paper's ISP vantage implies) over
// uniform random rows, and returns it with its rows.
var (
	nnOnce sync.Once
	nnIdx  *index.Index
	nnRows []float32
)

const nnVocab, nnDim = 100_000, 128

func nearestBenchIndex() (*index.Index, []float32) {
	nnOnce.Do(func() {
		rng := stats.NewRNG(512)
		nnRows = make([]float32, nnVocab*nnDim)
		for i := range nnRows {
			nnRows[i] = float32(rng.Float64()*2 - 1)
		}
		nnIdx = index.New(nnRows, nnVocab, nnDim)
	})
	return nnIdx, nnRows
}

// BenchmarkNearestToVector times the packed parallel index at
// vocab=100K, dim=128, k=1000 — the scan behind Profiler neighbourhood
// queries.
func BenchmarkNearestToVector(b *testing.B) {
	ix, rows := nearestBenchIndex() // built outside the timer
	q := stats.Widen(rows[17*nnDim : 18*nnDim])
	const k = 1000
	bytesPerQuery := int64(nnVocab) * nnDim * 4

	b.Run("indexed", func(b *testing.B) {
		var dst []index.Result
		b.SetBytes(bytesPerQuery)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = ix.SearchAppend(dst[:0], q, k, 0, index.NoExclude)
			if len(dst) != k {
				b.Fatalf("got %d results", len(dst))
			}
		}
	})
}

// BenchmarkProfileBatch profiles a block of sessions through the batch
// API over the parallel index.
func BenchmarkProfileBatch(b *testing.B) {
	s := setupBench(b)
	sessions := midTraceSessions(s, 64)
	if len(sessions) == 0 {
		b.Fatal("no bench sessions")
	}
	cfg := core.ProfilerConfig{N: 40, Agg: core.AggIDF}

	b.Run("batch-indexed", func(b *testing.B) {
		prof := core.NewProfiler(s.Model, s.Ontology, cfg)
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, errs := prof.ProfileSessions(ctx, sessions)
			for _, err := range errs {
				if err != nil && err != core.ErrNoLabels {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(len(sessions)), "sessions")
	})
}

// --- Approximate neighbour search (HNSW vs exact scan) ------------------

// annBenchState lazily builds one benchmark scale: a clustered corpus
// (the shape trained embeddings take), its packed exact index, the HNSW
// graph, session-like mixture queries and their exact top-50 ground
// truth. Everything heavy happens once, outside every timer.
type annBenchState struct {
	rows, dim, clusters int

	once    sync.Once
	ix      *index.Index
	ann     *index.ANN
	queries [][]float64
	exact   [][]index.Result
}

var (
	annBench100K = annBenchState{rows: 100_000, dim: 128, clusters: 1500}
	annBench470K = annBenchState{rows: 470_000, dim: 128, clusters: 6000}
)

const annBenchK = 50

func (s *annBenchState) setup(b *testing.B) {
	b.Helper()
	s.once.Do(func() {
		rng := stats.NewRNG(uint64(s.rows))
		centroids := make([]float64, s.clusters*s.dim)
		for i := range centroids {
			centroids[i] = rng.Float64()*2 - 1
		}
		vecs := make([]float64, s.rows*s.dim)
		for r := 0; r < s.rows; r++ {
			if r%5 == 4 { // long-tail hosts
				for i := 0; i < s.dim; i++ {
					vecs[r*s.dim+i] = rng.Float64()*2 - 1
				}
				continue
			}
			c := r % s.clusters
			for i := 0; i < s.dim; i++ {
				vecs[r*s.dim+i] = centroids[c*s.dim+i] + rng.NormFloat64()*0.35
			}
		}
		s.ix = index.New(vecs, s.rows, s.dim)
		s.ann = s.ix.BuildANN(index.ANNConfig{Seed: 99})

		// Eq.(3)-shaped queries: weighted same-topic host mixtures plus
		// one long-tail host, lightly perturbed.
		s.queries = make([][]float64, 32)
		s.exact = make([][]index.Result, len(s.queries))
		for qi := range s.queries {
			q := make([]float64, s.dim)
			anchor := rng.Intn(s.rows)
			for anchor%5 == 4 {
				anchor = rng.Intn(s.rows)
			}
			for h := 0; h < 3+rng.Intn(6); h++ {
				r := (anchor + h*s.clusters) % s.rows
				if r%5 == 4 {
					r = (r + s.clusters) % s.rows
				}
				w := 0.3 + rng.Float64()
				for i := 0; i < s.dim; i++ {
					q[i] += w * vecs[r*s.dim+i]
				}
			}
			tail := rng.Intn(s.rows/5)*5 + 4
			for i := 0; i < s.dim; i++ {
				q[i] += 0.3*vecs[tail*s.dim+i] + (rng.Float64()*2-1)*0.05
			}
			s.queries[qi] = q
			s.exact[qi] = s.ix.SearchAppend(nil, q, annBenchK, 0, index.NoExclude)
		}
	})
}

// BenchmarkNearestToVectorANN is the recall/latency trade-off table of
// the ANN layer: at 100K x 128 and the paper's 470K x 128 hostname
// scale, the exact parallel scan against the HNSW graph over an ef
// sweep, with recall@{1,10,50} per ef reported next to the timings.
func BenchmarkNearestToVectorANN(b *testing.B) {
	for _, s := range []*annBenchState{&annBench100K, &annBench470K} {
		b.Run(strconv.Itoa(s.rows/1000)+"Kx"+strconv.Itoa(s.dim), func(b *testing.B) {
			s.setup(b)
			bytesPerQuery := int64(s.rows) * int64(s.dim) * 4

			b.Run("exact", func(b *testing.B) {
				var dst []index.Result
				b.SetBytes(bytesPerQuery)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dst = s.ix.SearchAppend(dst[:0], s.queries[i%len(s.queries)], annBenchK, 0, index.NoExclude)
					if len(dst) != annBenchK {
						b.Fatalf("got %d results", len(dst))
					}
				}
			})
			for _, ef := range []int{32, 64, 128, 256} {
				b.Run("ann-ef"+strconv.Itoa(ef), func(b *testing.B) {
					// Recall against the exact ground truth, outside the
					// timer; the timed loop then runs the same queries.
					var r1, r10, r50 float64
					fallbacks := 0
					for qi, q := range s.queries {
						res, fell := s.ann.SearchAppend(nil, q, annBenchK, ef, 0, index.NoExclude)
						if fell {
							fallbacks++
						}
						ex := s.exact[qi]
						r1 += index.Recall(ex[:1], res[:min(1, len(res))])
						r10 += index.Recall(ex[:10], res[:min(10, len(res))])
						r50 += index.Recall(ex, res)
					}
					n := float64(len(s.queries))
					var dst []index.Result
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						dst, _ = s.ann.SearchAppend(dst[:0], s.queries[i%len(s.queries)], annBenchK, ef, 0, index.NoExclude)
					}
					b.StopTimer()
					_ = dst
					b.ReportMetric(r1/n, "recall@1")
					b.ReportMetric(r10/n, "recall@10")
					b.ReportMetric(r50/n, "recall@50")
					b.ReportMetric(float64(fallbacks), "fallbacks")
				})
			}
		})
	}
}
