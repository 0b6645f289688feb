package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"hostprof/internal/stats"
)

// refWeights is a model in float64: what refTrainSequence moves, started
// from a trainer's float32 rows widened.
type refWeights struct{ in, out, neu1e []float64 }

func widenWeights(m *Model) *refWeights {
	return &refWeights{in: stats.Widen(m.in), out: stats.Widen(m.out), neu1e: make([]float64, m.dim)}
}

// refTrainSequence is Equation (2)'s SGD in float64 throughout, as the
// trainer ran it before its rows became float32 and, before that, before
// its steps were fused — stats.Dot, then one axpy per update, one
// log per sample — kept as the oracle trainSequence is checked against.
// It trains w, not t.m, and otherwise uses t's state: it draws from the
// same generators in the same order, so from equal state the two see
// identical samples.
func (t *trainer) refTrainSequence(w *refWeights, seq []int32, lr float64) {
	kept := seq
	if t.cfg.Subsample > 0 {
		kept = kept[:0:0]
		for _, id := range seq {
			if t.keep[id] >= 1 || t.rng.Float64() < t.keep[id] {
				kept = append(kept, id)
			}
		}
		if len(kept) < 2 {
			return
		}
	}
	dim := t.m.dim
	for c := range kept {
		centre := int(kept[c])
		b := 1 + t.rng.Intn(t.cfg.Window)
		lo := c - b
		if lo < 0 {
			lo = 0
		}
		hi := c + b
		if hi >= len(kept) {
			hi = len(kept) - 1
		}
		cvec := w.in[centre*dim : centre*dim+dim]
		for j := lo; j <= hi; j++ {
			if j == c {
				continue
			}
			ctx := int(kept[j])
			clear(w.neu1e)
			for k := 0; k <= t.cfg.Negative; k++ {
				var target int
				var label float64
				if k == 0 {
					target, label = ctx, 1
				} else {
					target = t.noise.Draw(t.noiseRNG)
					if target == ctx {
						continue
					}
					label = 0
				}
				ovec := w.out[target*dim : target*dim+dim]
				y := stats.Sigmoid(stats.Dot(cvec, ovec))
				if t.trackLoss {
					if label == 1 {
						t.lossSum -= math.Log(y + lossEps)
						t.lossPairs++
					} else {
						t.lossSum -= math.Log(1 - y + lossEps)
					}
				}
				g := (label - y) * lr
				axpy(g, ovec, w.neu1e)
				axpy(g, cvec, ovec)
			}
			axpy(1, w.neu1e, cvec)
		}
	}
}

// axpy computes y += alpha*x in place; x and y have equal length.
func axpy(alpha float64, x, y []float64) {
	for i, v := range x {
		y[i] += alpha * v
	}
}

// kernelFixture returns a trainer over a random hosts×dim model with the
// library's default window, negatives and subsampling, and one encoded
// sequence to train on. The noise distribution is a Zipf law's
// probabilities raised to 0.75, as a corpus of Zipf-distributed hosts
// would give; the sequence is drawn uniformly, or, with zipf, from that
// Zipf law itself. Equal arguments give equal fixtures.
func kernelFixture(hosts, dim, seqLen int, zipf bool) (*trainer, []int32) {
	rng := stats.NewRNG(uint64(1000 + dim))
	m := &Model{dim: dim, in: make([]float32, hosts*dim), out: make([]float32, hosts*dim)}
	for i := range m.in {
		// Larger than a fresh model's weights, so the sigmoids leave 0.5
		// and a summation-order slip would show.
		m.in[i] = float32(rng.Float64() - 0.5)
		m.out[i] = float32(rng.Float64() - 0.5)
	}
	weights := make([]float64, hosts)
	keep := make([]float64, hosts)
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -0.75)
		keep[i] = 0.5 + 0.5*rng.Float64()
	}
	draw := func() int { return rng.Intn(hosts) }
	if zipf {
		draw = stats.NewZipf(rng, 1, hosts).Draw
	}
	seq := make([]int32, seqLen)
	for i := range seq {
		seq[i] = int32(draw())
	}
	return &trainer{
		m:         m,
		cfg:       TrainConfig{Window: 2, Negative: 5, Subsample: 1e-3},
		rng:       stats.NewRNG(7),
		noise:     stats.NewAlias(weights),
		noiseRNG:  stats.NewRNG(8),
		keep:      keep,
		kernels:   sgnsKernels{sgnsDotRows, sgnsUpdateRows},
		neu1e:     make([]float32, dim),
		trackLoss: true,
	}, seq
}

// pairPaths counts the pairs seqTrainSequence saw by the path
// trainSequence takes for them: two or more distinct target rows, scored
// and moved in one call of each kernel, or a negative drawn twice, one
// row at a time.
type pairPaths struct{ fused, fallback int }

// seqTrainSequence is trainSequence as it ran before a pair's negatives
// were drawn first: each sample draws its target, is scored and moves its
// row before the next negative is drawn, one single-row call of each
// kernel per sample. It is the bit-for-bit oracle of trainSequence,
// which must reach the same weights, loss and generator states.
func (t *trainer) seqTrainSequence(seq []int32, lr float64, paths *pairPaths) {
	kept := seq
	if t.cfg.Subsample > 0 {
		kept = kept[:0:0]
		for _, id := range seq {
			if t.keep[id] >= 1 || t.rng.Float64() < t.keep[id] {
				kept = append(kept, id)
			}
		}
		if len(kept) < 2 {
			return
		}
	}
	dim := t.m.dim
	neu1e := t.neu1e
	var dot, g [1]float32
	for c := range kept {
		centre := int(kept[c])
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
			clear(neu1e)
			lik := 1.0
			targets := []int{ctx}
			for k := 0; k <= t.cfg.Negative; k++ {
				target, label := ctx, 1.0
				if k > 0 {
					target, label = t.noise.Draw(t.noiseRNG), 0
					if target == ctx {
						continue
					}
					targets = append(targets, target)
				}
				row := []int{target * dim}
				t.kernels.dot(cvec, t.m.out, row, dot[:])
				y := stats.Sigmoid(float64(dot[0]))
				g[0] = float32((label - y) * lr)
				t.kernels.update(g[:], cvec, t.m.out, row, neu1e)
				if t.trackLoss {
					if k > 0 {
						y = 1 - y
					}
					if lik *= y + lossEps; lik < 1e-280 {
						t.lossSum -= math.Log(lik)
						lik = 1
					}
				}
			}
			if t.trackLoss {
				t.lossSum -= math.Log(lik)
				t.lossPairs++
			}
			for i, e := range neu1e {
				cvec[i] += e
			}
			slices.Sort(targets)
			switch {
			case len(slices.Compact(targets)) < len(targets):
				paths.fallback++
			case len(targets) > 1:
				paths.fused++
			}
		}
	}
}

// TestTrainSequenceMatchesSequential holds trainSequence to the
// sequential step it replaced, bit for bit: the same weights, loss and
// pair count, and both generators left in the same state. The fixtures
// span the kernels' tails, no negatives to twenty, loss tracking on and
// off, and uniform and Zipf-drawn sequences over a 50-host Zipf noise
// law, so that pairs of both paths run — which the test checks.
func TestTrainSequenceMatchesSequential(t *testing.T) {
	var paths pairPaths
	for _, dim := range []int{1, 3, 4, 7, 8, 23, 64, 100, 130} {
		for _, negative := range []int{0, 1, 5, 20} {
			for _, trackLoss := range []bool{false, true} {
				for _, zipf := range []bool{false, true} {
					what := fmt.Sprintf("dim %d, negative %d, loss %v, zipf %v", dim, negative, trackLoss, zipf)
					got, seq := kernelFixture(50, dim, 200, zipf)
					want, _ := kernelFixture(50, dim, 200, zipf)
					for _, tr := range []*trainer{got, want} {
						tr.cfg.Negative, tr.trackLoss = negative, trackLoss
					}
					for pass := 0; pass < 3; pass++ {
						got.trainSequence(seq, 0.025)
						want.seqTrainSequence(seq, 0.025, &paths)
					}
					for i := range got.m.in {
						if math.Float32bits(got.m.in[i]) != math.Float32bits(want.m.in[i]) ||
							math.Float32bits(got.m.out[i]) != math.Float32bits(want.m.out[i]) {
							t.Fatalf("%s: weight %d differs from the sequential step's: in %x/%x, out %x/%x", what, i,
								math.Float32bits(got.m.in[i]), math.Float32bits(want.m.in[i]),
								math.Float32bits(got.m.out[i]), math.Float32bits(want.m.out[i]))
						}
					}
					if math.Float64bits(got.lossSum) != math.Float64bits(want.lossSum) || got.lossPairs != want.lossPairs {
						t.Fatalf("%s: loss %v over %d pairs, sequential %v over %d", what, got.lossSum, got.lossPairs, want.lossSum, want.lossPairs)
					}
					if got.rng.Uint64() != want.rng.Uint64() || got.noiseRNG.Uint64() != want.noiseRNG.Uint64() {
						t.Fatalf("%s: trainer and sequential step consumed different random streams", what)
					}
				}
			}
		}
	}
	t.Logf("pairs with distinct rows: %d; with a repeated negative: %d", paths.fused, paths.fallback)
	if paths.fused == 0 || paths.fallback == 0 {
		t.Fatalf("a path never ran: %d fused pairs, %d sequential", paths.fused, paths.fallback)
	}
}

// TestTrainSequenceMatchesReference runs the float32 trainer and the
// float64 reference loop from the same float32-representable weights over
// identical draws, and holds them together at float32 tolerance. A weight
// here stays below 1 in magnitude and is moved some 70 times, each move
// rounding it to half an ulp (≤ 6e-8) beside the rounding of the dot and
// of g: weights agree to 5e-6 (measured: ≤ 8.3e-7 at every dim), which is
// still a tenth of what reading the moved o[i] in place of the old one,
// (lr·|c|)² ≈ 8e-5, would cost. The loss is summed in float64 on both
// sides from sigmoids of dots that differ by float32 rounding: 1e-6
// relative (measured: ≤ 7.7e-9), the same pair count. Summation order
// is below this test's sight; TestSGNSKernelsBitEqualPortable holds it.
func TestTrainSequenceMatchesReference(t *testing.T) {
	for _, dim := range []int{1, 3, 4, 7, 64, 100, 130} {
		t.Run(fmt.Sprintf("dim%d", dim), func(t *testing.T) {
			got, seq := kernelFixture(50, dim, 200, false)
			want, _ := kernelFixture(50, dim, 200, false)
			ref := widenWeights(want.m)
			got.trainSequence(seq, 0.025)
			want.refTrainSequence(ref, seq, 0.025)
			var worst float64
			for i := range ref.in {
				worst = max(worst, math.Abs(float64(got.m.in[i])-ref.in[i]), math.Abs(float64(got.m.out[i])-ref.out[i]))
			}
			if !(worst <= 5e-6) {
				t.Fatalf("a weight is %g from the float64 reference's", worst)
			}
			if got.lossPairs != want.lossPairs || got.lossPairs == 0 {
				t.Fatalf("pairs = %d, reference %d", got.lossPairs, want.lossPairs)
			}
			if rel := math.Abs(got.lossSum-want.lossSum) / want.lossSum; !(rel <= 1e-6) {
				t.Fatalf("loss = %v, reference %v (relative error %g)", got.lossSum, want.lossSum, rel)
			}
			if got.rng.Uint64() != want.rng.Uint64() || got.noiseRNG.Uint64() != want.noiseRNG.Uint64() {
				t.Fatal("trainer and reference consumed different random streams")
			}
		})
	}
}

// TestTrainSequenceLossSurvivesManyNegatives drives the per-pair
// likelihood product far past what a float64 holds — 400 saturated
// negatives at 1e-12 each — and still wants the reference's loss, to the
// 1e-9 it always did: the weights (3) and every dot (72) are exact in
// float32, and at this rate a step is far below half an ulp of either.
func TestTrainSequenceLossSurvivesManyNegatives(t *testing.T) {
	build := func() *trainer {
		tr, _ := kernelFixture(50, 8, 2, false)
		tr.cfg.Negative, tr.cfg.Subsample = 400, -1
		for i := range tr.m.in {
			tr.m.in[i], tr.m.out[i] = 3, 3 // σ(72) is 1 to the last bit
		}
		return tr
	}
	got, want := build(), build()
	seq := []int32{0, 1}
	got.trainSequence(seq, 1e-9)
	want.refTrainSequence(widenWeights(want.m), seq, 1e-9)
	if math.IsInf(got.lossSum, 0) || math.IsNaN(got.lossSum) {
		t.Fatalf("loss = %v", got.lossSum)
	}
	if rel := math.Abs(got.lossSum-want.lossSum) / want.lossSum; !(rel <= 1e-9) {
		t.Fatalf("loss = %v, reference %v", got.lossSum, want.lossSum)
	}
}

// TestTrainSeparatesTopicsQualityPin holds the alias-sampled trainer to
// the separation the CDF-sampled one reached on TestTrainSeparatesTopics'
// corpus with one worker: mean within-topic minus mean across-topic
// cosine. Moving the negative-draw stream reshuffles the value per seed
// as much as moving the seed does — the parent spans 0.8648–0.8744 over
// seeds 40–51, with smallConfig's seed 42 (0.874438) its maximum, where
// this trainer gives 0.872538 — so the pin is the mean over those twelve
// seeds, which is what the parent's trainer and this one can be held to.
func TestTrainSeparatesTopicsQualityPin(t *testing.T) {
	const parentMean = 0.869900
	corpus, ta, tb := topicCorpus(stats.NewRNG(7), 10, 400, 12)
	var mean float64
	for seed := uint64(40); seed < 52; seed++ {
		cfg := smallConfig()
		cfg.Seed = seed
		m, err := Train(corpus, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var intra, inter float64
		var nIntra, nInter int
		for i := 0; i < 5; i++ {
			for j := i + 1; j < 5; j++ {
				for _, pair := range [][2]string{{ta[i], ta[j]}, {tb[i], tb[j]}} {
					s, err := m.Similarity(pair[0], pair[1])
					if err != nil {
						t.Fatal(err)
					}
					intra += s
					nIntra++
				}
				s, err := m.Similarity(ta[i], tb[j])
				if err != nil {
					t.Fatal(err)
				}
				inter += s
				nInter++
			}
		}
		gap := intra/float64(nIntra) - inter/float64(nInter)
		t.Logf("seed %d: within-topic minus across-topic similarity %.6f", seed, gap)
		mean += gap / 12
	}
	if mean < parentMean {
		t.Fatalf("mean separation %.6f fell below the parent's %.6f", mean, parentMean)
	}
}

// BenchmarkTrainSequence times one 200-host sequence through the
// reference loop and the product kernels over a 3 749-row model (the
// bench world's vocabulary), loss tracking on as in every served retrain,
// the sequence drawn uniformly or from a Zipf law (kernelFixture).
func BenchmarkTrainSequence(b *testing.B) {
	for _, draw := range []string{"uniform", "zipf"} {
		for _, dim := range []int{64, 100} {
			for _, impl := range []string{"ref", "kernel"} {
				b.Run(fmt.Sprintf("%s/%s/dim%d", impl, draw, dim), func(b *testing.B) {
					tr, seq := kernelFixture(3749, dim, 200, draw == "zipf")
					step := tr.trainSequence
					if impl == "ref" {
						w := widenWeights(tr.m)
						step = func(seq []int32, lr float64) { tr.refTrainSequence(w, seq, lr) }
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						// A vanishing rate keeps the weights, and so the work
						// per iteration, where the fixture put them.
						step(seq, 1e-9)
					}
				})
			}
		}
	}
}
