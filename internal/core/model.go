package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hostprof/internal/fault"
	"hostprof/internal/index"
	"hostprof/internal/stats"
)

// TrainConfig holds the SKIPGRAM hyperparameters. The defaults mirror the
// gensim defaults the paper used (Section 5.4): d=100, window 5 (m=2),
// K=5 negative samples.
type TrainConfig struct {
	// Dim is the embedding dimensionality d. Default 100.
	Dim int
	// Window is the half window m: context positions up to m before and
	// after the centre are predicted (window length 2m+1 = 5 in the
	// paper). Per the original word2vec, the effective half window for
	// each centre is drawn uniformly from [1, Window]. Default 2.
	Window int
	// Negative is K, the number of negative samples per context pair,
	// drawn from the empirical unigram distribution P_D raised to
	// UnigramPower. Default 5.
	Negative int
	// UnigramPower is the exponent applied to unigram counts for the
	// noise distribution. Default 0.75.
	UnigramPower float64
	// Subsample is the frequent-host subsampling threshold (gensim's
	// `sample`). 0 selects the default, 1e-3; a negative value disables
	// subsampling.
	Subsample float64
	// MinCount drops hostnames seen fewer times. Default 5.
	MinCount int
	// Epochs is the number of passes over the corpus. Default 5.
	Epochs int
	// LR and MinLR bound the linearly decayed learning rate.
	// Defaults 0.025 and 1e-4.
	LR, MinLR float64
	// Workers is the number of concurrent trainer goroutines. With more
	// than one worker, weight updates follow the standard lock-free
	// Hogwild scheme used by word2vec/gensim: concurrent updates may
	// race benignly, trading bit-level determinism for throughput.
	// Default runtime.GOMAXPROCS(0); a bit-identical model per seed needs
	// Workers: 1. A race-detector build always trains on one worker (see
	// race_on.go).
	Workers int
	// Seed seeds all training randomness.
	Seed uint64
	// Progress, when non-nil, is called once after every completed
	// epoch, from the goroutine running Train, with all workers
	// quiesced. Setting it also enables loss tracking, which costs one
	// log evaluation per trained (centre, context) pair.
	Progress func(EpochStats)
}

// EpochStats describes one completed training epoch, as reported to
// TrainConfig.Progress.
type EpochStats struct {
	// Epoch is the 0-based index of the completed epoch; Epochs is the
	// configured total.
	Epoch, Epochs int
	// Loss is the mean negative-sampling loss (Equation 2) per
	// (centre, context) pair over the epoch.
	Loss float64
	// Pairs is the number of positive pairs trained in the epoch.
	Pairs int64
	// Duration is the epoch's wall-clock time.
	Duration time.Duration
}

// withDefaults returns cfg with zero fields replaced by defaults.
func (c TrainConfig) withDefaults() TrainConfig {
	if c.Dim <= 0 {
		c.Dim = 100
	}
	if c.Window <= 0 {
		c.Window = 2
	}
	if c.Negative <= 0 {
		c.Negative = 5
	}
	if c.UnigramPower == 0 {
		c.UnigramPower = 0.75
	}
	if c.Subsample == 0 {
		c.Subsample = 1e-3
	}
	if c.MinCount <= 0 {
		c.MinCount = 5
	}
	if c.Epochs <= 0 {
		c.Epochs = 5
	}
	if c.LR <= 0 {
		c.LR = 0.025
	}
	if c.MinLR <= 0 {
		c.MinLR = 1e-4
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Model holds the learned hostname representations: the central embeddings
// W (paper's h) and the context embeddings W' (paper's h'). Central
// embeddings are what downstream profiling consumes. Both are float32
// from the first SGD step on, as in gensim's trainer.
type Model struct {
	vocab *Vocab
	dim   int
	in    []float32 // |H| × dim central representations, row-major
	out   []float32 // |H| × dim context representations, row-major

	// fastIdx is the packed, unit-normalized similarity index over the
	// central embeddings; built lazily by SimilarityIndex, once per model.
	fastIdx  *index.Index
	fastOnce sync.Once

	// ann is the HNSW graph over fastIdx, cached like it: every profiler
	// over this model that asks for the same graph shares one build, and
	// a snapshot of the model can carry it. annEncoded is a graph a
	// snapshot carried for this model, unchecked until the first
	// profiler over the model takes it — to load or to drop.
	annMu      sync.Mutex
	ann        *index.ANN
	annEncoded []byte
}

// ErrEmptyCorpus is returned when no trainable sequences remain after
// vocabulary pruning.
var ErrEmptyCorpus = errors.New("core: empty corpus after vocabulary pruning")

// lossEps keeps the tracked loss finite when a sigmoid saturates.
const lossEps = 1e-12

// Train learns hostname embeddings from a corpus of request sequences
// (one sequence per user per collection interval) by minimizing the
// negative-sampling objective of Equation (2) with SGD.
func Train(corpus [][]string, cfg TrainConfig) (*Model, error) {
	return TrainContext(context.Background(), corpus, cfg)
}

// TrainContext is Train with cooperative cancellation: ctx is checked
// at every epoch boundary and, within an epoch, by every worker before
// each sequence, so a production-sized retrain stops well under one
// epoch after cancellation. On cancellation the partially trained model
// is discarded and ctx.Err() is returned (wrapped; test with
// errors.Is).
func TrainContext(ctx context.Context, corpus [][]string, cfg TrainConfig) (*Model, error) {
	return train(ctx, corpus, cfg, sgnsKernels{sgnsDotRows, sgnsUpdateRows})
}

// sgnsKernels is the pair of row kernels a trainer steps through (see
// sgns.go); a parameter so that a test can train through the portable
// pair on an architecture that has assembly.
type sgnsKernels struct {
	dot    func(c, m []float32, off []int, out []float32)
	update func(g, c, m []float32, off []int, neu []float32)
}

// train is TrainContext through the given kernels.
func train(ctx context.Context, corpus [][]string, cfg TrainConfig, kernels sgnsKernels) (*Model, error) {
	cfg = cfg.withDefaults()
	vocab := BuildVocab(corpus, cfg.MinCount)
	if vocab.Len() == 0 {
		return nil, ErrEmptyCorpus
	}

	// Re-encode the corpus as dense IDs, dropping out-of-vocab tokens.
	encoded := make([][]int32, 0, len(corpus))
	var tokens int64
	for _, seq := range corpus {
		ids := make([]int32, 0, len(seq))
		for _, h := range seq {
			if id, ok := vocab.ID(h); ok {
				ids = append(ids, int32(id))
			}
		}
		if len(ids) >= 2 {
			encoded = append(encoded, ids)
			tokens += int64(len(ids))
		}
	}
	if len(encoded) == 0 {
		return nil, ErrEmptyCorpus
	}

	m := &Model{vocab: vocab, dim: cfg.Dim}
	m.in = make([]float32, vocab.Len()*cfg.Dim)
	m.out = make([]float32, vocab.Len()*cfg.Dim)
	init := stats.NewRNG(cfg.Seed)
	for i := range m.in {
		m.in[i] = float32((init.Float64() - 0.5) / float64(cfg.Dim))
	}

	// Noise distribution: counts^power behind one alias table that every
	// worker draws from with its own generator (word2vec's unigram table,
	// exact instead of discretized, O(1) per draw).
	weights := make([]float64, vocab.Len())
	for i := range weights {
		weights[i] = math.Pow(float64(vocab.Count(i)), cfg.UnigramPower)
	}
	noise := stats.NewAlias(weights)

	keep := keepProbabilities(vocab, cfg.Subsample)

	totalWork := tokens * int64(cfg.Epochs)
	var done atomic.Int64

	workers := cfg.Workers
	if workers > len(encoded) {
		workers = len(encoded)
	}
	if raceDetectorEnabled {
		// Hogwild's benign weight races trip the race detector; run
		// single-threaded under -race (see race_on.go).
		workers = 1
	}
	trainers := make([]*trainer, workers)
	for w := range trainers {
		trainers[w] = &trainer{
			m:         m,
			cfg:       cfg,
			kernels:   kernels,
			rng:       stats.NewRNG(cfg.Seed ^ (0x9e37*uint64(w) + 1)),
			noise:     noise,
			noiseRNG:  stats.NewRNG(cfg.Seed + uint64(w)*7919 + 13),
			keep:      keep,
			neu1e:     make([]float32, cfg.Dim),
			trackLoss: cfg.Progress != nil,
		}
	}
	// Epochs are barriered: all workers finish epoch e before any starts
	// e+1, so Progress observes a quiesced model. Per worker, the
	// sequence order and RNG consumption match the pre-barrier scheme.
	cancelled := ctx.Done()
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: training cancelled before epoch %d: %w", epoch, err)
		}
		if err := fault.Inject(fault.TrainEpoch); err != nil {
			return nil, fmt.Errorf("core: epoch %d: %w", epoch, err)
		}
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(tr *trainer, w int) {
				defer wg.Done()
				for s := w; s < len(encoded); s += workers {
					select {
					case <-cancelled:
						return
					default:
					}
					seq := encoded[s]
					progress := float64(done.Add(int64(len(seq)))) / float64(totalWork)
					lr := cfg.LR * (1 - progress)
					if lr < cfg.MinLR {
						lr = cfg.MinLR
					}
					tr.trainSequence(seq, lr)
				}
			}(trainers[w], w)
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: training cancelled in epoch %d: %w", epoch, err)
		}
		if cfg.Progress != nil {
			var lossSum float64
			var pairs int64
			for _, tr := range trainers {
				lossSum += tr.lossSum
				pairs += tr.lossPairs
				tr.lossSum, tr.lossPairs = 0, 0
			}
			loss := 0.0
			if pairs > 0 {
				loss = lossSum / float64(pairs)
			}
			cfg.Progress(EpochStats{
				Epoch:    epoch,
				Epochs:   cfg.Epochs,
				Loss:     loss,
				Pairs:    pairs,
				Duration: time.Since(start),
			})
		}
	}
	return m, nil
}

// keepProbabilities returns, per vocabulary entry, the probability that
// an occurrence survives frequent-host subsampling at threshold sample
// (word2vec's formula); all ones when sample is not positive.
func keepProbabilities(vocab *Vocab, sample float64) []float64 {
	keep := make([]float64, vocab.Len())
	for i := range keep {
		keep[i] = 1
		if sample <= 0 {
			continue
		}
		f := float64(vocab.Count(i)) / float64(vocab.Total())
		if p := (math.Sqrt(f/sample) + 1) * sample / f; p < 1 {
			keep[i] = p
		}
	}
	return keep
}

// trainer holds per-worker training state.
type trainer struct {
	m        *Model
	cfg      TrainConfig
	kernels  sgnsKernels
	rng      *stats.RNG   // subsampling and window shrink
	noise    *stats.Alias // shared by all workers, read-only
	noiseRNG *stats.RNG
	keep     []float64
	kept     []int32   // subsampled sequence, reused across sequences
	neu1e    []float32 // gradient accumulator for the centre vector

	// One pair's target rows, as offsets into m.out, and their dots and
	// steps; sized for 1+Negative on first use.
	rows        []int
	dots, grads []float32

	// Loss accounting, only maintained when trackLoss is set; read by
	// the Train goroutine at epoch barriers.
	trackLoss bool
	lossSum   float64
	lossPairs int64
}

// trainSequence applies one pass of skip-gram negative sampling over a
// single encoded sequence at learning rate lr.
func (t *trainer) trainSequence(seq []int32, lr float64) {
	// Subsample frequent hosts first, as word2vec does, so the window
	// spans the retained subsequence.
	kept := seq
	if t.cfg.Subsample > 0 {
		kept = t.kept[:0]
		for _, id := range seq {
			if t.keep[id] >= 1 || t.rng.Float64() < t.keep[id] {
				kept = append(kept, id)
			}
		}
		t.kept = kept
		if len(kept) < 2 {
			return
		}
	}
	dim := t.m.dim
	neu1e := t.neu1e
	if len(t.grads) <= t.cfg.Negative {
		t.rows = make([]int, 0, t.cfg.Negative+1)
		t.dots, t.grads = make([]float32, t.cfg.Negative+1), make([]float32, t.cfg.Negative+1)
	}
	for c := range kept {
		centre := int(kept[c])
		// Random window shrink: uniform in [1, Window].
		b := 1 + t.rng.Intn(t.cfg.Window)
		lo := c - b
		if lo < 0 {
			lo = 0
		}
		hi := c + b
		if hi >= len(kept) {
			hi = len(kept) - 1
		}
		cvec := t.m.in[centre*dim : centre*dim+dim]
		for j := lo; j <= hi; j++ {
			if j == c {
				continue
			}
			ctx := int(kept[j])
			// One positive pair plus K negatives, all drawn before any
			// row moves: a negative equal to the context is skipped. The
			// rows are distinct unless two negatives coincide, and then a
			// later dot must see the earlier step's row, so that pair
			// steps one row at a time; otherwise every dot reads rows no
			// step of this pair has moved, and one call scores them all
			// and one call moves them all (sgns.go).
			rows := append(t.rows[:0], ctx*dim)
			perCall := 0 // rows per kernel call: all, or one if a row repeats
			for k := 0; k < t.cfg.Negative; k++ {
				target := t.noise.Draw(t.noiseRNG)
				if target == ctx {
					continue
				}
				if slices.Contains(rows, target*dim) {
					perCall = 1
				}
				rows = append(rows, target*dim)
			}
			t.rows = rows
			if perCall == 0 {
				perCall = len(rows)
			}
			clear(neu1e)
			// Equation (2)'s loss for the pair is -log σ(x) - Σ log σ(-x_k):
			// the probabilities are multiplied up in lik and logged once.
			lik := 1.0
			for first := 0; first < len(rows); first += perCall {
				group := rows[first : first+perCall]
				dots, grads := t.dots[:len(group)], t.grads[:len(group)]
				t.kernels.dot(cvec, t.m.out, group, dots)
				for i, x := range dots {
					// One SGD step of Equation (2) per target: score
					// y = σ(c·o), then move the target row along c and add
					// the centre's share of the gradient, g = (label - y)·lr,
					// to neu1e. σ, g and the loss are float64; only the rows
					// are float32.
					label := 0.0
					if first+i == 0 {
						label = 1
					}
					y := stats.Sigmoid(float64(x))
					grads[i] = float32((label - y) * lr)
					if t.trackLoss {
						if first+i > 0 {
							y = 1 - y
						}
						// Each factor is at least lossEps, so flushing below
						// 1e-280 keeps lik normal for any Negative.
						if lik *= y + lossEps; lik < 1e-280 {
							t.lossSum -= math.Log(lik)
							lik = 1
						}
					}
				}
				t.kernels.update(grads, cvec, t.m.out, group, neu1e)
			}
			if t.trackLoss {
				t.lossSum -= math.Log(lik)
				t.lossPairs++
			}
			for i, e := range neu1e {
				cvec[i] += e
			}
		}
	}
}

// Vocab returns the model's vocabulary.
func (m *Model) Vocab() *Vocab { return m.vocab }

// Dim returns the embedding dimensionality d.
func (m *Model) Dim() int { return m.dim }

// Vector returns the central embedding of host. The returned slice aliases
// model storage and must not be modified.
func (m *Model) Vector(host string) ([]float32, bool) {
	id, ok := m.vocab.ID(host)
	if !ok {
		return nil, false
	}
	return m.in[id*m.dim : id*m.dim+m.dim], true
}

// VectorByID returns the central embedding for a vocabulary index. The
// returned slice aliases model storage and must not be modified.
func (m *Model) VectorByID(id int) []float32 {
	return m.in[id*m.dim : id*m.dim+m.dim]
}

// SimilarityIndex returns the packed float32 top-k similarity index over
// the central embeddings, building it on first use. The index is
// immutable — models are frozen after training — so every profiler over
// this model shares one copy.
func (m *Model) SimilarityIndex() *index.Index {
	m.fastOnce.Do(func() {
		m.fastIdx = index.New(m.in, m.vocab.Len(), m.dim)
	})
	return m.fastIdx
}

// SetEncodedANN hands the model a graph encoded by index.ANN.AppendBinary
// for it — the bytes a snapshot carried beside the model. They are held
// only until the first NewProfiler over the model, which loads them if
// it wants exactly that graph and drops them either way.
func (m *Model) SetEncodedANN(data []byte) {
	m.annMu.Lock()
	m.annEncoded = data
	m.annMu.Unlock()
}

// EncodedANN returns the model's HNSW graph in index.ANN.AppendBinary's
// encoding, for a snapshot to carry: encoded from the live graph on
// every call, not kept. Until a profiler has taken them it returns the
// bytes SetEncodedANN was given, so a snapshot in that window carries
// them on; nil when the model has neither.
func (m *Model) EncodedANN() []byte {
	m.annMu.Lock()
	defer m.annMu.Unlock()
	if m.ann == nil {
		return m.annEncoded
	}
	return m.ann.AppendBinary(nil)
}

// ANNRestore reports how NewProfiler came by its HNSW graph, for the
// caller's log.
type ANNRestore struct {
	// Built: this profiler ran BuildANN. Restored: it decoded and
	// validated the graph from a snapshot's bytes instead. Either took
	// Elapsed, and Rows and Edges size what it got. Neither: an earlier
	// profiler over the same model had the graph already, or cfg.ANN is
	// off.
	Built, Restored bool
	Elapsed         time.Duration
	Rows, Edges     int
	// Rejected is why a snapshot's graph was refused — it is some other
	// graph, or damaged — and built afresh instead.
	Rejected error
}

// annGraph returns the model's HNSW graph under cfg: the cached one when
// cfg names it, else the one a snapshot carried when that loads, else a
// fresh build, which replaces the cache. Pending snapshot bytes do not
// survive the call.
func (m *Model) annGraph(cfg index.ANNConfig) (*index.ANN, ANNRestore) {
	ix := m.SimilarityIndex()
	m.annMu.Lock()
	defer m.annMu.Unlock()
	data := m.annEncoded
	m.annEncoded = nil
	if m.ann != nil && m.ann.BuiltWith(cfg) {
		return m.ann, ANNRestore{}
	}
	var how ANNRestore
	m.ann = nil
	if data != nil {
		start := time.Now()
		if m.ann, how.Rejected = ix.LoadANN(data, cfg); how.Rejected == nil {
			how.Restored, how.Elapsed = true, time.Since(start)
		}
	}
	if m.ann == nil {
		m.ann, how.Built = ix.BuildANN(cfg), true
	}
	st := m.ann.Stats()
	how.Rows, how.Edges = st.GraphRows, st.Edges
	if how.Built {
		how.Elapsed = st.BuildTime
	}
	return m.ann, how
}

// Neighbour is one result of a nearest-neighbour query.
type Neighbour struct {
	ID     int
	Host   string
	Cosine float64
}

// MostSimilar returns the k nearest hosts to the given host, excluding the
// host itself. It queries the packed similarity index; cosines are
// float32-rounded accordingly.
func (m *Model) MostSimilar(host string, k int) ([]Neighbour, error) {
	id, ok := m.vocab.ID(host)
	if !ok {
		return nil, fmt.Errorf("core: host %q not in vocabulary", host)
	}
	res := m.SimilarityIndex().SearchAppend(nil, stats.Widen(m.VectorByID(id)), k, 0, int32(id))
	ns := make([]Neighbour, len(res))
	for i, r := range res {
		ns[i] = Neighbour{ID: int(r.ID), Host: m.vocab.Host(int(r.ID)), Cosine: float64(r.Score)}
	}
	return ns, nil
}
