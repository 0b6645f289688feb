package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"hostprof/internal/ads"
	"hostprof/internal/cluster"
	"hostprof/internal/core"
	"hostprof/internal/index"
	"hostprof/internal/obs"
	"hostprof/internal/ontology"
	"hostprof/internal/pcap"
	"hostprof/internal/server"
	"hostprof/internal/sniffer"
	"hostprof/internal/stats"
	"hostprof/internal/store"
	"hostprof/internal/trace"
)

// The layer replay times each package from outside, through its
// exported functions, on harness-owned instances: the report stages in
// the order Backend.report runs them, the batch stages, and the bulk
// operations (load, train, snapshot, recover, index and graph builds,
// packet parsing) that only set-up and daily_cycle pay. Every traced
// run replays every layer, so a per-layer number exists for every
// workload; the workload decides which request stream feeds the report
// and batch stages and therefore what store size and session mix they
// see.

type layerInputs struct {
	artifact  []byte       // model served by the traced topology
	handler   http.Handler // shard 0's real handler, for allocation accounting
	handlerUS float64      // mean shard handler span of a report
	reports   []Report
	sessions  []BatchSession
	batchSize int
	shardURLs []string
}

// stopwatch accumulates the time of one repeated stage.
type stopwatch struct {
	total time.Duration
	n     int
}

func (s *stopwatch) time(fn func()) {
	t0 := time.Now()
	fn()
	s.total += time.Since(t0)
	s.n++
}

func (s *stopwatch) meanUS() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.total) / float64(s.n) / 1e3
}

func timed(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}

// discardWriter is the cheapest ResponseWriter, so that allocation
// accounting around handler calls counts the handler, not a recorder.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

func (b *bench) layerReplay(in layerInputs) error {
	w, run := b.w, b.run
	cfg := core.ProfilerConfig{N: 40, Agg: core.AggIDF}

	// --- core, index: model container and profiler construction ---
	var model *core.Model
	var err error
	run.metric("core.model_load_s", timed(func() { model, err = core.Load(bytes.NewReader(in.artifact)) }), "s")
	if err != nil {
		return fmt.Errorf("layer replay: loading artifact: %w", err)
	}
	var enc bytes.Buffer
	run.metric("core.model_encode_s", timed(func() { err = model.Save(&enc) }), "s")
	if err != nil {
		return err
	}
	var ix *index.Index
	run.metric("index.build_s", timed(func() { ix = model.SimilarityIndex() }), "s")
	var prof *core.Profiler
	run.metric("core.new_profiler_s", timed(func() { prof = core.NewProfiler(model, w.Ontology, cfg) }), "s")
	var labelled []int
	for id, host := range model.Vocab().Hosts() {
		if w.Ontology.Covered(host) {
			labelled = append(labelled, id)
		}
	}
	lab := ix.Subset(labelled)
	run.metric("index.rows", float64(ix.Rows()), "count")
	run.metric("index.labelled_rows", float64(lab.Rows()), "count")

	// --- store: bulk load, corpus read, snapshot ---
	dir, err := b.sup.Dir("replay-store")
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	open := func() (*store.Store, error) {
		return store.Open(store.Config{Dir: dir, Fsync: store.FsyncInterval, Metrics: reg})
	}
	st, err := open()
	if err != nil {
		return err
	}
	defer func() { st.Close() }()
	var appendErr error
	loaded := 0
	loadS := timed(func() {
		for _, v := range w.SeedVisits {
			if w.Blocklist.Contains(v.Host) {
				continue
			}
			if err := st.Append(v); err != nil {
				appendErr = err
				return
			}
			loaded++
		}
	})
	if appendErr != nil {
		return appendErr
	}
	run.metric("store.append_ns", 1e9*loadS/float64(loaded), "ns")
	var corpus [][]string
	run.metric("store.all_sequences_s", timed(func() { corpus = st.AllSequences() }), "s")
	var trained *core.Model
	trainS := timed(func() { trained, err = core.Train(corpus, core.TrainConfig{Dim: 64, Epochs: 3}) })
	if err != nil {
		return err
	}
	tokens := 0
	for _, seq := range corpus {
		tokens += len(seq)
	}
	run.metric("core.train_s", trainS, "s")
	run.metric("core.train_tokens_per_s", float64(3*tokens)/trainS, "1/s")
	st.SetModel(trained)
	run.metric("store.snapshot_s", timed(func() { err = st.Snapshot() }), "s")
	if err != nil {
		return err
	}

	// --- report path, stage by stage ---
	sel, err := ads.NewSelector(w.AdDB, w.Ontology, 20)
	if err != nil {
		return err
	}
	bodies := make([][]byte, len(in.reports))
	for i, r := range in.reports {
		if bodies[i], err = json.Marshal(server.ReportRequest{User: r.User, Time: r.Time, Hosts: r.Hosts}); err != nil {
			return err
		}
	}
	var decode, ingest, session, key, profile, selectAds, encode stopwatch
	walBefore := Varz(reg.Snapshot()).Sum("hostprof_store_wal_bytes_total", nil)
	for _, body := range bodies {
		var req server.ReportRequest
		decode.time(func() {
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			err = dec.Decode(&req)
		})
		if err != nil {
			return err
		}
		ingest.time(func() {
			for _, h := range req.Hosts {
				if w.Blocklist.Contains(h) {
					continue
				}
				if e := st.Append(trace.Visit{User: req.User, Time: req.Time, Host: h}); e != nil {
					err = e
				}
			}
		})
		if err != nil {
			return err
		}
		var hosts []string
		session.time(func() { hosts = st.Session(req.User, req.Time, w.Cfg.SessionWindow) })
		key.time(func() { prof.SessionKey(hosts) })
		var vec ontology.Vector
		profile.time(func() { vec, err = prof.ProfileSessionContext(b.ctx, hosts) })
		if err != nil && !errors.Is(err, core.ErrNoLabels) && !errors.Is(err, core.ErrEmptySession) {
			return err
		}
		var list []ads.Ad
		if err == nil {
			selectAds.time(func() { list = sel.Select(vec, 20) })
		}
		encode.time(func() {
			resp := server.ReportResponse{Ads: make([]server.WireAd, 0, len(list))}
			for _, ad := range list {
				resp.Ads = append(resp.Ads, server.WireAd{ID: ad.ID, Landing: ad.LandingHost, W: ad.Size.W, H: ad.Size.H})
			}
			err = json.NewEncoder(io.Discard).Encode(resp)
		})
		if err != nil {
			return err
		}
	}
	walAfter := Varz(reg.Snapshot()).Sum("hostprof_store_wal_bytes_total", nil)
	run.metric("server.decode_us", decode.meanUS(), "us")
	run.metric("store.ingest_us", ingest.meanUS(), "us")
	run.metric("store.session_us", session.meanUS(), "us")
	run.metric("core.session_key_us", key.meanUS(), "us")
	run.metric("core.profile_us", profile.meanUS(), "us")
	run.metric("ads.select_us", selectAds.meanUS(), "us")
	run.metric("server.encode_us", encode.meanUS(), "us")
	stages := decode.meanUS() + ingest.meanUS() + session.meanUS() + key.meanUS() + profile.meanUS() + selectAds.meanUS() + encode.meanUS()
	run.metric("server.residual_us", in.handlerUS-stages, "us")
	run.metric("store.wal_bytes_per_report", (walAfter-walBefore)/float64(len(in.reports)), "bytes")

	// --- server: allocations around real handler calls ---
	var reqs []*http.Request
	for _, body := range bodies {
		req, err := http.NewRequestWithContext(b.ctx, http.MethodPost, "/v1/report", bytes.NewReader(body))
		if err != nil {
			return err
		}
		reqs = append(reqs, req)
	}
	dw := &discardWriter{h: http.Header{}}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for _, req := range reqs {
		in.handler.ServeHTTP(dw, req)
	}
	runtime.ReadMemStats(&m1)
	run.metric("server.allocs_per_report", float64(m1.Mallocs-m0.Mallocs)/float64(len(reqs)), "count")
	run.metric("server.bytes_per_report", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(len(reqs)), "bytes")

	// --- store: recovery of snapshot plus WAL tail ---
	run.metric("store.fsyncs_total", Varz(reg.Snapshot()).Sum("hostprof_store_fsyncs_total", nil), "count")
	if err := st.Close(); err != nil {
		return err
	}
	recoverS := timed(func() { st, err = open() })
	if err != nil {
		return fmt.Errorf("layer replay: reopening store: %w", err)
	}
	rec := st.Recovery()
	run.metric("store.recover_s", recoverS, "s")
	run.metric("store.recover_records_per_s", float64(rec.SnapshotVisits+rec.ReplayedRecords)/recoverS, "1/s")
	run.check("replay_store_recovered", st.Len() == loaded+keptOf(in.reports) && rec.ModelRestored,
		"%d visits after reopening, %d appended; model restored: %v", st.Len(), loaded+keptOf(in.reports), rec.ModelRestored)

	// --- batch path ---
	var batch, batchEncode stopwatch
	tax := w.Ontology.Taxonomy()
	for lo := 0; lo+in.batchSize <= len(in.sessions); lo += in.batchSize {
		one := make([][]string, in.batchSize)
		for j, s := range in.sessions[lo : lo+in.batchSize] {
			one[j] = s.Hosts
		}
		var vecs []ontology.Vector
		var errs []error
		batch.time(func() { vecs, errs = prof.ProfileSessions(b.ctx, one) })
		batchEncode.time(func() {
			resp := server.ProfileBatchResponse{Profiles: make([]server.ProfileResult, len(one))}
			for i := range one {
				if errs[i] != nil {
					resp.Profiles[i].Error = errs[i].Error()
					continue
				}
				cats := make(map[string]float64)
				for id, v := range vecs[i] {
					if v != 0 {
						cats[tax.Category(id).Name] = v
					}
				}
				resp.Profiles[i].Categories = cats
			}
			err = json.NewEncoder(io.Discard).Encode(resp)
		})
		if err != nil {
			return err
		}
	}
	run.metric("core.batch_us_per_session", batch.meanUS()/float64(in.batchSize), "us")
	run.metric("server.batch_encode_us", batchEncode.meanUS(), "us")

	// --- index: exact scan, graph build, graph search, recall ---
	var queries [][]float64
	for _, s := range in.sessions {
		if q, n := prof.SessionVector(s.Hosts); n > 0 {
			queries = append(queries, q)
		}
		if len(queries) == 256 {
			break
		}
	}
	if len(queries) == 0 {
		return errors.New("layer replay: no session has an in-vocabulary host")
	}
	var exact, annSearch stopwatch
	var dst []index.Result
	for _, q := range queries {
		exact.time(func() { dst = lab.SearchAppend(dst[:0], q, cfg.N, 0, index.NoExclude) })
	}
	run.metric("index.search_us", exact.meanUS(), "us")
	var ann *index.ANN
	run.metric("index.ann_build_s", timed(func() { ann = ix.BuildANN(index.ANNConfig{}) }), "s")
	fallbacks := 0
	var recall float64
	for _, q := range queries {
		var fell bool
		annSearch.time(func() { dst, fell = ann.SearchAppend(dst[:0], q, cfg.N, 0, 0, index.NoExclude) })
		if fell {
			fallbacks++
		}
		recall += index.Recall(ix.Search(q, 10), ann.Search(q, 10))
	}
	run.metric("index.ann_search_us", annSearch.meanUS(), "us")
	run.metric("index.ann_fallback_ratio", float64(fallbacks)/float64(len(queries)), "ratio")
	run.metric("index.ann_recall_at_10", recall/float64(len(queries)), "ratio")

	if err := b.sniffLayers(); err != nil {
		return err
	}
	return b.ringLayers(in)
}

func keptOf(reports []Report) int {
	n := 0
	for _, r := range reports {
		n += r.Kept
	}
	return n
}

// sniffLayers times the observer and each wire parser on a capture of
// the world's own hostnames.
func (b *bench) sniffLayers() error {
	run := b.run
	visits := b.w.SniffVisits
	if len(visits) > 20000 {
		visits = visits[:20000]
	}
	syn := sniffer.NewSynthesizer(sniffer.WireConfig{Channel: sniffer.ChannelMixed, Seed: subSeed(b.w.Seed, 6)})
	capt, err := syn.SynthesizeTrace(trace.New(append([]trace.Visit(nil), visits...)))
	if err != nil {
		return err
	}
	const passes = 3
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	seen := 0
	s := timed(func() {
		for p := 0; p < passes; p++ {
			obsv := sniffer.NewObserver(sniffer.ObserverConfig{})
			for i, frame := range capt.Packets {
				if _, ok := obsv.ProcessPacket(frame, capt.Times[i]); ok {
					seen++
				}
			}
		}
	})
	runtime.ReadMemStats(&m1)
	frames := float64(passes * capt.Len())
	run.metric("sniffer.packet_ns", 1e9*s/frames, "ns")
	run.metric("sniffer.allocs_per_packet", float64(m1.Mallocs-m0.Mallocs)/frames, "count")
	run.metric("sniffer.visits_per_packet", float64(seen)/frames, "ratio")
	run.check("replay_observer_recovers_capture", seen == passes*len(visits), "%d visits rendered per pass, %d recovered over %d passes", len(visits), seen, passes)

	// One payload of each kind per distinct hostname.
	rng := stats.NewRNG(subSeed(b.w.Seed, 7))
	var hellos, initials, queries [][]byte
	distinct := make(map[string]bool)
	for _, v := range visits {
		if distinct[v.Host] || len(distinct) == 2000 {
			continue
		}
		distinct[v.Host] = true
		hellos = append(hellos, sniffer.BuildClientHello(v.Host, rng))
		q, err := sniffer.BuildQUICInitial(v.Host, rng)
		if err != nil {
			return err
		}
		initials = append(initials, q)
		d, err := sniffer.BuildDNSQuery(v.Host, uint16(len(queries)))
		if err != nil {
			return err
		}
		queries = append(queries, d)
	}
	parse := func(name string, payloads [][]byte, fn func([]byte) (string, error)) error {
		var perr error
		s := timed(func() {
			for _, p := range payloads {
				if _, err := fn(p); err != nil {
					perr = err
				}
			}
		})
		run.metric(name, 1e9*s/float64(len(payloads)), "ns")
		return perr
	}
	if err := parse("sniffer.tls_parse_ns", hellos, sniffer.ParseSNI); err != nil {
		return err
	}
	if err := parse("sniffer.quic_parse_ns", initials, sniffer.ParseQUICInitialSNI); err != nil {
		return err
	}
	if err := parse("sniffer.dns_parse_ns", queries, sniffer.ParseDNSQueryName); err != nil {
		return err
	}

	var file bytes.Buffer
	pw := pcap.NewWriter(&file)
	for i, frame := range capt.Packets {
		if err := pw.WriteRecord(uint32(capt.Times[i]), 0, frame); err != nil {
			return err
		}
	}
	read := 0
	var rerr error
	s = timed(func() {
		pr, err := pcap.NewReader(bytes.NewReader(file.Bytes()))
		if err != nil {
			rerr = err
			return
		}
		for {
			if _, err := pr.Next(); err != nil {
				if err != io.EOF {
					rerr = err
				}
				return
			}
			read++
		}
	})
	if rerr != nil {
		return rerr
	}
	run.check("replay_pcap_round_trip", read == capt.Len(), "%d frames written, %d read back", capt.Len(), read)
	run.metric("pcap.read_pkts_per_s", float64(read)/s, "1/s")
	return nil
}

// ringLayers times placement and reports how evenly the ring spreads
// the workload's reports over two shards.
func (b *bench) ringLayers(in layerInputs) error {
	nodes := in.shardURLs
	if len(nodes) < 2 {
		nodes = []string{"http://shard-a", "http://shard-b"}
	}
	ring, err := cluster.NewRing(nodes, 0)
	if err != nil {
		return err
	}
	const rounds = 200
	users := b.w.Cfg.Users
	s := timed(func() {
		for r := 0; r < rounds; r++ {
			for u := 0; u < users; u++ {
				ring.Owner(u)
			}
		}
	})
	b.run.metric("cluster.ring_owner_ns", 1e9*s/float64(rounds*users), "ns")
	perNode := make(map[string]int)
	for _, r := range in.reports {
		node, _ := ring.Owner(r.User)
		perNode[node]++
	}
	most := 0
	for _, n := range perNode {
		most = max(most, n)
	}
	b.run.metric("cluster.shard_skew", float64(most)/(float64(len(in.reports))/float64(len(nodes))), "ratio")
	return nil
}
