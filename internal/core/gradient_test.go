package core

import (
	"math"
	"testing"

	"hostprof/internal/stats"
)

// fixedModel builds a 3-host, 4-dim model with known weights:
// vocab order (all counts equal, lexicographic): a=0, b=1, c=2.
func fixedModel() *Model {
	m := &Model{vocab: BuildVocab([][]string{{"a", "b", "c"}}, 1), dim: 4}
	m.in = []float64{
		0.10, -0.20, 0.30, 0.05, // u_a
		-0.15, 0.25, 0.10, -0.30, // u_b
		0.20, 0.10, -0.10, 0.15, // u_c
	}
	m.out = []float64{
		0.05, 0.15, -0.20, 0.10, // v_a
		-0.10, 0.05, 0.25, -0.15, // v_b
		0.30, -0.05, 0.10, 0.20, // v_c
	}
	return m
}

// sgnsLoss computes the negative-sampling loss of Equation (2) for one
// (centre, context) pair with the given negative target.
func sgnsLoss(m *Model, centre, ctx, neg int) float64 {
	u := m.in[centre*4 : centre*4+4]
	vp := m.out[ctx*4 : ctx*4+4]
	vn := m.out[neg*4 : neg*4+4]
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
		neu1e:    make([]float64, 4),
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
	if stats.Dot(m.in[0:4], m.out[4:8]) <= 0 {
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
// and verifies every weight of the model to 1e-12.
func TestTrainStepMatchesHandComputedUpdate(t *testing.T) {
	const lr = 0.1
	m := fixedModel()
	tr := newFixedTrainer(m)

	// Independent copy for manual computation.
	u := [][]float64{
		append([]float64(nil), m.in[0:4]...),
		append([]float64(nil), m.in[4:8]...),
		append([]float64(nil), m.in[8:12]...),
	}
	v := [][]float64{
		append([]float64(nil), m.out[0:4]...),
		append([]float64(nil), m.out[4:8]...),
		append([]float64(nil), m.out[8:12]...),
	}
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
			if got, want := m.in[host*4+d], u[host][d]; math.Abs(got-want) > 1e-12 {
				t.Fatalf("in[%d][%d] = %v, want %v", host, d, got, want)
			}
			if got, want := m.out[host*4+d], v[host][d]; math.Abs(got-want) > 1e-12 {
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
	before := append([]float64(nil), m.out[8:12]...) // v_c untouched
	tr.trainSequence([]int32{0, 1}, 0.1)
	for i, x := range m.out[8:12] {
		if x != before[i] {
			t.Fatal("v_c changed although never sampled")
		}
	}
	// Positive update still applied.
	if stats.Dot(m.in[0:4], m.out[4:8]) <= stats.Dot(fixedModel().in[0:4], fixedModel().out[4:8]) {
		t.Fatal("positive pair not trained")
	}
}

// TestNumericalGradient verifies the analytic gradient of the SGNS loss
// against central finite differences at the initial weights.
func TestNumericalGradient(t *testing.T) {
	m := fixedModel()
	const eps = 1e-6
	// Analytic gradient of L(centre=0, ctx=1, neg=2) wrt u_0:
	// ∂L/∂u = -(1-σ(u·v1))·v1 + σ(u·v2)·v2.
	u := m.in[0:4]
	v1 := m.out[4:8]
	v2 := m.out[8:12]
	for d := 0; d < 4; d++ {
		analytic := -(1-stats.Sigmoid(stats.Dot(u, v1)))*v1[d] +
			stats.Sigmoid(stats.Dot(u, v2))*v2[d]
		orig := u[d]
		u[d] = orig + eps
		lp := sgnsLoss(m, 0, 1, 2)
		u[d] = orig - eps
		lm := sgnsLoss(m, 0, 1, 2)
		u[d] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(analytic-numeric) > 1e-6 {
			t.Fatalf("dim %d: analytic %v vs numeric %v", d, analytic, numeric)
		}
	}
}
