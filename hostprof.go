// Package hostprof is a reproduction of "User Profiling by Network
// Observers" (Gonzalez et al., CoNEXT 2021): a library that shows how a
// passive network observer — an ISP, VPN exit, or WiFi provider — can
// build advertising-grade interest profiles of users from nothing but the
// hostnames leaked by encrypted traffic (TLS SNI, QUIC Initials, DNS).
//
// The pipeline has four stages, each usable on its own:
//
//  1. Observe: parse raw packets, extract (user, time, hostname) visits
//     (NewObserver; see also BuildClientHello / ParseSNI and friends for
//     the codec layer).
//  2. Learn: train SKIPGRAM hostname embeddings on request sequences
//     (Train), so hostnames that are co-requested — a site and its API
//     endpoints, sites of the same interest topic — end up close in
//     vector space.
//  3. Profile: turn a user's recent hostname session into a category
//     vector by transferring ontology labels from the embedding
//     neighbourhood (NewProfiler).
//  4. Monetize: select relevant ads for a profile by nearest-neighbour
//     search in category space (NewAdSelector).
//
// Everything is deterministic under explicit seeds, uses only the
// standard library, and ships with a synthetic web/population generator
// (see internal/synth via the cmd/hostprof tool) that reproduces the
// paper's evaluation end to end.
package hostprof

import (
	"context"
	"io"

	"hostprof/internal/ads"
	"hostprof/internal/core"
	"hostprof/internal/index"
	"hostprof/internal/obs"
	"hostprof/internal/ontology"
	"hostprof/internal/sniffer"
	"hostprof/internal/store"
	"hostprof/internal/trace"
)

// Re-exported core types. These aliases are the public names; the
// internal packages are implementation layout.
type (
	// Model holds trained hostname embeddings.
	Model = core.Model
	// TrainConfig tunes SKIPGRAM training; zero values select the
	// gensim-compatible defaults the paper used (d=100, window 5, K=5).
	TrainConfig = core.TrainConfig
	// Vocab maps hostnames to embedding indices.
	Vocab = core.Vocab
	// Neighbour is a nearest-neighbour query result.
	Neighbour = core.Neighbour
	// Profiler converts hostname sessions to category vectors
	// (Equations 3 and 4 of the paper).
	Profiler = core.Profiler
	// ProfilerConfig tunes session profiling (N, aggregation, dedup).
	ProfilerConfig = core.ProfilerConfig
	// Aggregation selects the session-vector fold (mean/sum/idf).
	Aggregation = core.Aggregation
	// EpochStats is the per-epoch training report delivered to
	// TrainConfig.Progress.
	EpochStats = core.EpochStats

	// SimilarityIndex is the packed parallel top-k cosine index every
	// trained Model builds lazily (Model.SimilarityIndex); the profiler
	// answers every Eq. (3) neighbourhood query from it.
	SimilarityIndex = index.Index
	// IndexResult is one SimilarityIndex hit (vocabulary ID + cosine).
	IndexResult = index.Result

	// MetricsRegistry collects operational metrics (counters, gauges,
	// histograms) with Prometheus text and JSON exposition; share one
	// across components via the Metrics config fields.
	MetricsRegistry = obs.Registry

	// Taxonomy is the two-level category hierarchy (34 topics, 328
	// categories, mirroring the paper's Adwords cut).
	Taxonomy = ontology.Taxonomy
	// Vector is a per-host or per-session category weight vector.
	Vector = ontology.Vector
	// Ontology maps hostnames to category vectors (partial coverage).
	Ontology = ontology.Ontology
	// Blocklist filters advertising/tracking hostnames.
	Blocklist = ontology.Blocklist

	// Visit is one observed hostname request.
	Visit = trace.Visit
	// Trace is a time-ordered visit collection with session windowing.
	Trace = trace.Trace

	// VisitStore is the sharded visit store with optional WAL + snapshot
	// durability (see internal/store); wire one into PipelineConfig.Store
	// to survive restarts.
	VisitStore = store.Store
	// StoreConfig assembles a VisitStore (directory, shards, fsync
	// policy, snapshot cadence).
	StoreConfig = store.Config
	// FsyncPolicy selects when WAL writes reach stable storage.
	FsyncPolicy = store.FsyncPolicy
	// StoreRecoveryStats reports what startup recovery found.
	StoreRecoveryStats = store.RecoveryStats

	// Observer extracts visits from raw packets.
	Observer = sniffer.Observer
	// ObserverConfig tunes the observer (user mapping, ports).
	ObserverConfig = sniffer.ObserverConfig

	// Ad is one creative with its landing-page categorization.
	Ad = ads.Ad
	// CreativeSize is an ad slot/creative dimension pair.
	CreativeSize = ads.CreativeSize
	// AdDB is the ad inventory.
	AdDB = ads.DB
	// AdSelector implements the paper's 20-NN Euclidean ad selection.
	AdSelector = ads.Selector
	// CTR accumulates click-through rate.
	CTR = ads.CTR
)

// Aggregation constants.
const (
	AggMean = core.AggMean
	AggSum  = core.AggSum
	AggIDF  = core.AggIDF
)

// WAL fsync policies for StoreConfig.Fsync.
const (
	FsyncInterval = store.FsyncInterval
	FsyncAlways   = store.FsyncAlways
	FsyncNever    = store.FsyncNever
)

// OpenStore builds a visit store, recovering durable state from
// cfg.Dir when set. An empty Dir yields a purely in-memory sharded
// store.
func OpenStore(cfg StoreConfig) (*VisitStore, error) { return store.Open(cfg) }

// ParseFsync parses a WAL fsync policy flag ("always", "interval",
// "never").
func ParseFsync(s string) (FsyncPolicy, error) { return store.ParseFsync(s) }

// Errors surfaced by the profiling pipeline.
var (
	// ErrEmptySession marks a session with no usable hostnames.
	ErrEmptySession = core.ErrEmptySession
	// ErrNoLabels marks a session from which no labelled host is
	// reachable, leaving Equation (4) undefined.
	ErrNoLabels = core.ErrNoLabels
	// ErrEmptyCorpus marks a training corpus with nothing to learn
	// from.
	ErrEmptyCorpus = core.ErrEmptyCorpus
)

// Train learns hostname embeddings from request sequences (one sequence
// per user per interval) by skip-gram with negative sampling.
func Train(corpus [][]string, cfg TrainConfig) (*Model, error) {
	return core.Train(corpus, cfg)
}

// TrainContext is Train with cancellation: cancel ctx (or let its
// deadline expire) and training stops at the next epoch boundary,
// returning the context's error instead of a partial model.
func TrainContext(ctx context.Context, corpus [][]string, cfg TrainConfig) (*Model, error) {
	return core.TrainContext(ctx, corpus, cfg)
}

// LoadModel reads a model serialized with Model.Save.
func LoadModel(r io.Reader) (*Model, error) { return core.Load(r) }

// LoadModelFile reads a model from a file path.
func LoadModelFile(path string) (*Model, error) { return core.LoadFile(path) }

// NewTaxonomy returns the default 34-topic / 328-category taxonomy.
func NewTaxonomy() *Taxonomy { return ontology.NewTaxonomy() }

// NewOntology returns an empty hostname categorization service over tax.
func NewOntology(tax *Taxonomy) *Ontology { return ontology.New(tax) }

// NewBlocklist returns an empty tracker blocklist; populate it with
// Blocklist.ParseHostsFile or Blocklist.Add.
func NewBlocklist() *Blocklist { return ontology.NewBlocklist() }

// NewProfiler builds the session profiler of paper Section 4.1 over a
// trained model and a (partial) ontology.
func NewProfiler(m *Model, ont *Ontology, cfg ProfilerConfig) *Profiler {
	return core.NewProfiler(m, ont, cfg)
}

// NewObserver returns a passive packet observer.
func NewObserver(cfg ObserverConfig) *Observer { return sniffer.NewObserver(cfg) }

// NewMetricsRegistry returns an empty metrics registry (see the
// Observability section of the README for the exported families).
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTrace returns a trace over the given visits.
func NewTrace(visits []Visit) *Trace { return trace.New(visits) }

// ReadTraceJSONL parses a JSONL-encoded trace.
func ReadTraceJSONL(r io.Reader) (*Trace, error) { return trace.ReadJSONL(r) }

// NewAdDB returns an empty ad inventory over tax.
func NewAdDB(tax *Taxonomy) *AdDB { return ads.NewDB(tax) }

// NewAdSelector indexes an inventory for the paper's K-nearest-host ad
// selection (K <= 0 selects the paper's 20). The selector is an
// immutable snapshot of db and ont, safe for concurrent use; Select
// returns no ads for maxAds <= 0 or a profile whose length is not the
// taxonomy size.
func NewAdSelector(db *AdDB, ont *Ontology, k int) (*AdSelector, error) {
	return ads.NewSelector(db, ont, k)
}

// ParseSNI extracts the server name from the beginning of a TLS stream
// (ErrNeedMore-aware; see the sniffer documentation).
func ParseSNI(stream []byte) (string, error) { return sniffer.ParseSNI(stream) }

// ParseQUICInitialSNI decrypts a QUIC v1 client Initial datagram (RFC
// 9001 initial protection) and extracts the ClientHello SNI.
func ParseQUICInitialSNI(datagram []byte) (string, error) {
	return sniffer.ParseQUICInitialSNI(datagram)
}

// ParseDNSQueryName extracts the question name from a DNS query.
func ParseDNSQueryName(datagram []byte) (string, error) {
	return sniffer.ParseDNSQueryName(datagram)
}
