// Package tsne implements exact t-distributed Stochastic Neighbor
// Embedding (van der Maaten & Hinton, 2008), the dimensionality-reduction
// algorithm the paper uses to visualize hostname embeddings (Figures 4
// and 5), plus the neighbourhood-purity metric that turns the paper's
// visual cluster argument into a number.
package tsne

import (
	"errors"
	"fmt"
	"math"

	"hostprof/internal/stats"
)

// Config tunes the embedding.
type Config struct {
	// Perplexity is the effective number of neighbours per point.
	// Default 30 (clamped to (n-1)/3 when the dataset is small).
	Perplexity float64
	// Iterations of gradient descent. Default 400.
	Iterations int
	// LearningRate of the gradient step. Default max(10, n/12) — the
	// n/early-exaggeration heuristic of openTSNE/scikit-learn, which
	// prevents over-expansion on small datasets.
	LearningRate float64
	// EarlyExaggeration multiplies P for the first quarter of the
	// iterations. Default 12.
	EarlyExaggeration float64
	// OutDims is the output dimensionality. Default 2.
	OutDims int
	// Seed drives the random initialization.
	Seed uint64
}

func (c Config) withDefaults(n int) Config {
	if c.Perplexity <= 0 {
		c.Perplexity = 30
	}
	if maxP := float64(n-1) / 3; c.Perplexity > maxP && maxP >= 2 {
		c.Perplexity = maxP
	}
	if c.Iterations <= 0 {
		c.Iterations = 400
	}
	if c.EarlyExaggeration <= 0 {
		c.EarlyExaggeration = 12
	}
	if c.LearningRate <= 0 {
		c.LearningRate = float64(n) / c.EarlyExaggeration
		if c.LearningRate < 10 {
			c.LearningRate = 10
		}
	}
	if c.OutDims <= 0 {
		c.OutDims = 2
	}
	return c
}

// ErrTooFewPoints is returned for datasets smaller than 4 points.
var ErrTooFewPoints = errors.New("tsne: need at least 4 points")

// Embed maps the n input vectors to n OutDims-dimensional points.
func Embed(x [][]float64, cfg Config) ([][]float64, error) {
	n := len(x)
	if n < 4 {
		return nil, ErrTooFewPoints
	}
	dim := len(x[0])
	for i, row := range x {
		if len(row) != dim {
			return nil, fmt.Errorf("tsne: row %d has dim %d, want %d", i, len(row), dim)
		}
	}
	cfg = cfg.withDefaults(n)

	// Pairwise squared Euclidean distances.
	d2 := squaredDistances(x)

	// Conditional probabilities via per-point precision search.
	p := condProbabilities(d2, cfg.Perplexity)

	// Symmetrize and normalize: P = (P + Pᵀ) / 2n.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := (p[i][j] + p[j][i]) / (2 * float64(n))
			if v < 1e-12 {
				v = 1e-12
			}
			p[i][j], p[j][i] = v, v
		}
		p[i][i] = 0
	}

	// Gradient descent with momentum and early exaggeration.
	rng := stats.NewRNG(cfg.Seed ^ 0x75e)
	y := make([][]float64, n)
	vel := make([][]float64, n)
	for i := range y {
		y[i] = make([]float64, cfg.OutDims)
		vel[i] = make([]float64, cfg.OutDims)
		for d := range y[i] {
			y[i][d] = 1e-4 * rng.NormFloat64()
		}
	}
	exaggerationEnd := cfg.Iterations / 4
	grad := make([][]float64, n)
	for i := range grad {
		grad[i] = make([]float64, cfg.OutDims)
	}
	q := make([][]float64, n)
	for i := range q {
		q[i] = make([]float64, n)
	}

	for iter := 0; iter < cfg.Iterations; iter++ {
		exag := 1.0
		if iter < exaggerationEnd {
			exag = cfg.EarlyExaggeration
		}
		momentum := 0.5
		if iter >= cfg.Iterations/2 {
			momentum = 0.8
		}

		// Student-t affinities in the embedding.
		var qsum float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				var s float64
				for d := 0; d < cfg.OutDims; d++ {
					diff := y[i][d] - y[j][d]
					s += diff * diff
				}
				v := 1 / (1 + s)
				q[i][j], q[j][i] = v, v
				qsum += 2 * v
			}
		}
		if qsum < 1e-12 {
			qsum = 1e-12
		}

		// Gradient: 4 Σ_j (p_ij·exag − q_ij/qsum) · (1+|y_i−y_j|²)⁻¹ (y_i−y_j).
		for i := 0; i < n; i++ {
			for d := 0; d < cfg.OutDims; d++ {
				grad[i][d] = 0
			}
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				mult := 4 * (exag*p[i][j] - q[i][j]/qsum) * q[i][j]
				for d := 0; d < cfg.OutDims; d++ {
					grad[i][d] += mult * (y[i][d] - y[j][d])
				}
			}
		}
		for i := 0; i < n; i++ {
			for d := 0; d < cfg.OutDims; d++ {
				vel[i][d] = momentum*vel[i][d] - cfg.LearningRate*grad[i][d]
				y[i][d] += vel[i][d]
			}
		}
		centerColumns(y)
	}
	return y, nil
}

// squaredDistances returns the dense pairwise squared-distance matrix.
func squaredDistances(x [][]float64) [][]float64 {
	n := len(x)
	d2 := make([][]float64, n)
	for i := range d2 {
		d2[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var s float64
			for k := range x[i] {
				diff := x[i][k] - x[j][k]
				s += diff * diff
			}
			d2[i][j], d2[j][i] = s, s
		}
	}
	return d2
}

// condProbabilities binary-searches the Gaussian precision of each point
// so its conditional distribution has the target perplexity.
func condProbabilities(d2 [][]float64, perplexity float64) [][]float64 {
	n := len(d2)
	target := math.Log(perplexity)
	p := make([][]float64, n)
	for i := range p {
		p[i] = make([]float64, n)
		beta := 1.0
		betaMin := math.Inf(-1)
		betaMax := math.Inf(1)
		var h float64
		for tries := 0; tries < 50; tries++ {
			h = rowEntropy(d2[i], p[i], i, beta)
			diff := h - target
			if math.Abs(diff) < 1e-5 {
				break
			}
			if diff > 0 {
				betaMin = beta
				if math.IsInf(betaMax, 1) {
					beta *= 2
				} else {
					beta = (beta + betaMax) / 2
				}
			} else {
				betaMax = beta
				if math.IsInf(betaMin, -1) {
					beta /= 2
				} else {
					beta = (beta + betaMin) / 2
				}
			}
		}
	}
	return p
}

// rowEntropy fills row with the conditional distribution at precision
// beta and returns its Shannon entropy (natural log).
func rowEntropy(d2row, row []float64, i int, beta float64) float64 {
	var sum float64
	for j := range row {
		if j == i {
			row[j] = 0
			continue
		}
		v := exp(-d2row[j] * beta)
		row[j] = v
		sum += v
	}
	if sum == 0 {
		return 0
	}
	var h float64
	for j := range row {
		if j == i || row[j] == 0 {
			continue
		}
		row[j] /= sum
		h -= row[j] * math.Log(row[j])
	}
	return h
}

// centerColumns subtracts the column means, keeping the embedding
// centred.
func centerColumns(y [][]float64) {
	if len(y) == 0 {
		return
	}
	dims := len(y[0])
	means := make([]float64, dims)
	for _, row := range y {
		for d, v := range row {
			means[d] += v
		}
	}
	for d := range means {
		means[d] /= float64(len(y))
	}
	for _, row := range y {
		for d := range row {
			row[d] -= means[d]
		}
	}
}

// Divergence computes the t-SNE objective KL(P‖Q) between the
// high-dimensional affinities of x (at the given perplexity) and the
// Student-t affinities of the embedding y. Lower is better; it quantifies
// how faithfully a 2-D map preserves structure and lets callers compare
// embeddings of the same data.
func Divergence(x, y [][]float64, perplexity float64) (float64, error) {
	n := len(x)
	if n < 4 || len(y) != n {
		return 0, ErrTooFewPoints
	}
	if perplexity <= 0 {
		perplexity = 30
	}
	if maxP := float64(n-1) / 3; perplexity > maxP && maxP >= 2 {
		perplexity = maxP
	}
	d2 := squaredDistances(x)
	p := condProbabilities(d2, perplexity)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := (p[i][j] + p[j][i]) / (2 * float64(n))
			if v < 1e-12 {
				v = 1e-12
			}
			p[i][j], p[j][i] = v, v
		}
		p[i][i] = 0
	}
	// Student-t affinities of y.
	var qsum float64
	q := squaredDistances(y)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := 1 / (1 + q[i][j])
			q[i][j], q[j][i] = v, v
			qsum += 2 * v
		}
		q[i][i] = 0
	}
	if qsum < 1e-12 {
		qsum = 1e-12
	}
	var kl float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			qij := q[i][j] / qsum
			if qij < 1e-12 {
				qij = 1e-12
			}
			kl += p[i][j] * math.Log(p[i][j]/qij)
		}
	}
	return kl, nil
}

// NeighbourPurity computes, for each point, the fraction of its k nearest
// neighbours (Euclidean, in the given space) sharing its label, and
// returns the mean over all points. Labels < 0 are excluded from both
// query and neighbour sets. It quantifies Figure 5's visual claim.
func NeighbourPurity(points [][]float64, labels []int, k int) float64 {
	if len(points) != len(labels) || k <= 0 {
		return 0
	}
	var idx []int
	for i, l := range labels {
		if l >= 0 {
			idx = append(idx, i)
		}
	}
	if len(idx) < 2 {
		return 0
	}
	var total float64
	var counted int
	for _, i := range idx {
		type nd struct {
			j int
			d float64
		}
		var ds []nd
		for _, j := range idx {
			if j == i {
				continue
			}
			ds = append(ds, nd{j, stats.Euclidean(points[i], points[j])})
		}
		kk := k
		if kk > len(ds) {
			kk = len(ds)
		}
		// Partial selection sort for the k smallest.
		for a := 0; a < kk; a++ {
			best := a
			for b := a + 1; b < len(ds); b++ {
				if ds[b].d < ds[best].d {
					best = b
				}
			}
			ds[a], ds[best] = ds[best], ds[a]
		}
		same := 0
		for _, nb := range ds[:kk] {
			if labels[nb.j] == labels[i] {
				same++
			}
		}
		total += float64(same) / float64(kk)
		counted++
	}
	return total / float64(counted)
}
