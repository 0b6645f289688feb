package core

import (
	"math"
	"testing"

	"hostprof/internal/stats"
)

// fixedModel builds a 3-host, 4-dim model with known weights — the
// float32 values nearest the decimals below:
// vocab order (all counts equal, lexicographic): a=0, b=1, c=2.
func fixedModel() *Model {
	m := &Model{vocab: BuildVocab([][]string{{"a", "b", "c"}}, 1), dim: 4}
	m.in = []float32{
		0.10, -0.20, 0.30, 0.05, // u_a
		-0.15, 0.25, 0.10, -0.30, // u_b
		0.20, 0.10, -0.10, 0.15, // u_c
	}
	m.out = []float32{
		0.05, 0.15, -0.20, 0.10, // v_a
		-0.10, 0.05, 0.25, -0.15, // v_b
		0.30, -0.05, 0.10, 0.20, // v_c
	}
	return m
}

// row returns row id of a 4-dim matrix, widened to float64.
func row(w []float32, id int) []float64 { return stats.Widen(w[id*4 : id*4+4]) }

// sgnsLoss computes the negative-sampling loss of Equation (2), in
// float64, for one (centre, context) pair with the given negative target.
func sgnsLoss(m *Model, centre, ctx, neg int) float64 {
	return sgnsLossVecs(row(m.in, centre), row(m.out, ctx), row(m.out, neg))
}

func sgnsLossVecs(u, vp, vn []float64) float64 {
	return -math.Log(stats.Sigmoid(stats.Dot(u, vp))) -
		math.Log(stats.Sigmoid(-stats.Dot(u, vn)))
}

// newFixedTrainer wires a trainer whose negative sampler always draws
// host c (index 2) and whose window shrink is deterministic (Window=1).
func newFixedTrainer(m *Model) *trainer {
	return &trainer{
		m:        m,
		cfg:      TrainConfig{Window: 1, Negative: 1, Subsample: -1},
		rng:      stats.NewRNG(1),
		noise:    stats.NewAlias([]float64{0, 0, 1}),
		noiseRNG: stats.NewRNG(2),
		kernels:  sgnsKernels{sgnsDot, sgnsUpdate},
		neu1e:    make([]float32, 4),
	}
}

func TestTrainStepDecreasesLoss(t *testing.T) {
	m := fixedModel()
	tr := newFixedTrainer(m)
	seq := []int32{0, 1} // a then b
	before := sgnsLoss(m, 0, 1, 2) + sgnsLoss(m, 1, 0, 2)
	for i := 0; i < 20; i++ {
		tr.trainSequence(seq, 0.1)
	}
	after := sgnsLoss(m, 0, 1, 2) + sgnsLoss(m, 1, 0, 2)
	if after >= before {
		t.Fatalf("loss did not decrease: %.4f -> %.4f", before, after)
	}
	// The positive pair's similarity must have grown and the negative
	// pair's shrunk.
	if stats.Dot(row(m.in, 0), row(m.out, 1)) <= 0 {
		t.Fatal("positive score not pushed up")
	}
}

// TestTrainStepMatchesHandComputedUpdate replays a single trainSequence
// call with pencil-and-paper SGD arithmetic derived directly from
// Equation (2): for each (centre, context) pair,
//
//	g_pos = (1 − σ(u·v_ctx))·lr      v_ctx += g_pos·u;  acc += g_pos·v_ctx(old)
//	g_neg = (0 − σ(u·v_neg))·lr      v_neg += g_neg·u;  acc += g_neg·v_neg(old)
//	u += acc
//
// in float64 from the model's float32 starting weights, and verifies every
// weight of the model to 1e-7: the trainer rounds the dot (4 products of
// magnitude ≤ 0.1), g and each of the two updates a weight receives here
// to float32, half an ulp of a weight below 0.5 — 3e-8 — at a time.
func TestTrainStepMatchesHandComputedUpdate(t *testing.T) {
	const lr = 0.1
	m := fixedModel()
	tr := newFixedTrainer(m)

	// Independent copy for manual computation.
	u := [][]float64{row(m.in, 0), row(m.in, 1), row(m.in, 2)}
	v := [][]float64{row(m.out, 0), row(m.out, 1), row(m.out, 2)}
	dot := func(a, b []float64) float64 {
		var s float64
		for i := range a {
			s += a[i] * b[i]
		}
		return s
	}
	step := func(centre, ctx, neg int) {
		acc := make([]float64, 4)
		// Positive pair.
		g := (1 - stats.Sigmoid(dot(u[centre], v[ctx]))) * lr
		for i := 0; i < 4; i++ {
			acc[i] += g * v[ctx][i]
			v[ctx][i] += g * u[centre][i]
		}
		// Negative pair (sampler always yields neg).
		g = (0 - stats.Sigmoid(dot(u[centre], v[neg]))) * lr
		for i := 0; i < 4; i++ {
			acc[i] += g * v[neg][i]
			v[neg][i] += g * u[centre][i]
		}
		for i := 0; i < 4; i++ {
			u[centre][i] += acc[i]
		}
	}
	// trainSequence([a b]) visits centre=a (ctx=b) then centre=b (ctx=a).
	step(0, 1, 2)
	step(1, 0, 2)

	tr.trainSequence([]int32{0, 1}, lr)

	for host := 0; host < 3; host++ {
		for d := 0; d < 4; d++ {
			if got, want := float64(m.in[host*4+d]), u[host][d]; math.Abs(got-want) > 1e-7 {
				t.Fatalf("in[%d][%d] = %v, want %v", host, d, got, want)
			}
			if got, want := float64(m.out[host*4+d]), v[host][d]; math.Abs(got-want) > 1e-7 {
				t.Fatalf("out[%d][%d] = %v, want %v", host, d, got, want)
			}
		}
	}
}

// TestTrainStepSkipsNegativeEqualToContext checks the guard that discards
// a negative draw colliding with the positive context.
func TestTrainStepSkipsNegativeEqualToContext(t *testing.T) {
	m := fixedModel()
	tr := newFixedTrainer(m)
	// Noise distribution concentrated on the context host b (=1).
	tr.noise = stats.NewAlias([]float64{0, 1, 0})
	before := append([]float32(nil), m.out[8:12]...) // v_c untouched
	tr.trainSequence([]int32{0, 1}, 0.1)
	for i, x := range m.out[8:12] {
		if x != before[i] {
			t.Fatal("v_c changed although never sampled")
		}
	}
	// Positive update still applied.
	if stats.Dot(row(m.in, 0), row(m.out, 1)) <= stats.Dot(row(fixedModel().in, 0), row(fixedModel().out, 1)) {
		t.Fatal("positive pair not trained")
	}
}

// TestNumericalGradient verifies the analytic gradient of the SGNS loss
// against central finite differences at the initial weights, on float64
// copies of them: a step of 1e-6 is not one a float32 weight can take.
func TestNumericalGradient(t *testing.T) {
	m := fixedModel()
	const eps = 1e-6
	// Analytic gradient of L(centre=0, ctx=1, neg=2) wrt u_0:
	// ∂L/∂u = -(1-σ(u·v1))·v1 + σ(u·v2)·v2.
	u := row(m.in, 0)
	v1 := row(m.out, 1)
	v2 := row(m.out, 2)
	for d := 0; d < 4; d++ {
		analytic := -(1-stats.Sigmoid(stats.Dot(u, v1)))*v1[d] +
			stats.Sigmoid(stats.Dot(u, v2))*v2[d]
		orig := u[d]
		u[d] = orig + eps
		lp := sgnsLossVecs(u, v1, v2)
		u[d] = orig - eps
		lm := sgnsLossVecs(u, v1, v2)
		u[d] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(analytic-numeric) > 1e-6 {
			t.Fatalf("dim %d: analytic %v vs numeric %v", d, analytic, numeric)
		}
	}
}
