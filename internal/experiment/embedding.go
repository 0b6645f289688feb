package experiment

import (
	"fmt"
	"sort"
	"strings"

	"hostprof/internal/core"
	"hostprof/internal/stats"
	"hostprof/internal/synth"
	"hostprof/internal/tsne"
)

// SecondLevelDomain collapses a hostname to its last two labels, the
// readability device of paper Section 6.2 (mail.google.com → google.com).
func SecondLevelDomain(host string) string {
	parts := strings.Split(host, ".")
	if len(parts) <= 2 {
		return host
	}
	return strings.Join(parts[len(parts)-2:], ".")
}

// EmbeddingPoint is one hostname's 2-D position with its ground truth.
type EmbeddingPoint struct {
	Host string
	// Topic is the dominant ground-truth top-level topic, or -1 for
	// infrastructure hosts with no topical identity.
	Topic int
	X, Y  float64
}

// Fig4Result is the t-SNE map of Figure 4.
type Fig4Result struct {
	Points []EmbeddingPoint
	// Purity2D is the mean fraction of each labelled point's 10
	// nearest 2-D neighbours sharing its topic.
	Purity2D float64
	// KL is the t-SNE objective KL(P||Q) of the final layout — the
	// map's faithfulness to the high-dimensional structure.
	KL float64
}

// Fig4TSNE reproduces Figure 4: train-day embeddings, collapsed to
// second-level domains, reduced to 2-D with t-SNE. day selects the
// training day (the paper used a single day for legibility); iterations
// bound the optimizer.
func Fig4TSNE(s *Setup, day, iterations int) (Fig4Result, error) {
	seqs := s.Filtered.DailySequences(day)
	if len(seqs) == 0 {
		return Fig4Result{}, fmt.Errorf("experiment: no sequences on day %d", day)
	}
	// Collapse to second-level domains, as Section 6.2 does.
	collapsed := make([][]string, len(seqs))
	for i, seq := range seqs {
		out := make([]string, len(seq))
		for j, h := range seq {
			out[j] = SecondLevelDomain(h)
		}
		collapsed[i] = out
	}
	cfg := s.Config.Train
	cfg.MinCount = 2
	// A single synthetic day carries far less traffic than the paper's
	// (their one-day cut still reflected millions of connections), so
	// compensate with extra passes.
	cfg.Epochs *= 4
	model, err := core.Train(collapsed, cfg)
	if err != nil {
		return Fig4Result{}, fmt.Errorf("experiment: fig4 training: %w", err)
	}

	n := model.Vocab().Len()
	vecs := make([][]float64, n)
	topics := make([]int, n)
	hosts := make([]string, n)
	for id := 0; id < n; id++ {
		vecs[id] = stats.Widen(model.VectorByID(id))
		hosts[id] = model.Vocab().Host(id)
		topics[id] = s.topicOf2LD(hosts[id])
	}
	coords, err := tsne.Embed(vecs, tsne.Config{
		Iterations: iterations,
		Seed:       s.Config.Seed + 41,
	})
	if err != nil {
		return Fig4Result{}, fmt.Errorf("experiment: fig4 t-SNE: %w", err)
	}
	res := Fig4Result{Points: make([]EmbeddingPoint, n)}
	for i := range coords {
		res.Points[i] = EmbeddingPoint{
			Host: hosts[i], Topic: topics[i],
			X: coords[i][0], Y: coords[i][1],
		}
	}
	res.Purity2D = tsne.NeighbourPurity(coords, topics, 10)
	if kl, err := tsne.Divergence(vecs, coords, 0); err == nil {
		res.KL = kl
	}
	return res, nil
}

// topicOf2LD maps a second-level domain back to a ground-truth topic by
// checking the site host carrying that 2LD (support hosts collapse onto
// their site's 2LD by construction).
func (s *Setup) topicOf2LD(domain string) int {
	if h, ok := s.Universe.HostByName(domain); ok {
		if site := s.Universe.SiteOfHost(h.ID); site != nil {
			return site.Top
		}
	}
	return -1
}

// Rows renders the figure-4 result.
func (r Fig4Result) Rows() []Row {
	labelled := 0
	for _, p := range r.Points {
		if p.Topic >= 0 {
			labelled++
		}
	}
	return []Row{{
		ID:    "FIG4",
		Name:  "t-SNE map of hostname embeddings",
		Paper: "2-D map of one day's second-level-domain embeddings shows topical clusters",
		Measured: fmt.Sprintf("%d points (%d topic-labelled), 10-NN topic purity %.2f, KL %.2f",
			len(r.Points), labelled, r.Purity2D, r.KL),
		Criterion: "purity well above chance (~1/34 ≈ 0.03)",
		Pass:      r.Purity2D > 0.15 && len(r.Points) > 0,
	}}
}

// Fig5Result quantifies Figure 5's cluster examples: per-topic purity of
// embedding neighbourhoods in the full d-dimensional space.
type Fig5Result struct {
	// PurityByTopic maps topic name → mean 10-NN purity of that topic's
	// site hosts in the trained embedding.
	PurityByTopic map[string]float64
	// MeanPurity averages over topics with enough hosts.
	MeanPurity float64
	// Chance is the expected purity of a random embedding.
	Chance float64
}

// Fig5ClusterPurity reproduces Figure 5's claim numerically: hostnames of
// the same topic cluster in embedding space even when never co-requested.
// Purity is computed in the full embedding (no t-SNE artefacts — the
// paper itself warns about cluster 3 being such an artefact).
func Fig5ClusterPurity(s *Setup) Fig5Result {
	vocab := s.Model.Vocab()
	var vecs [][]float64
	var topics []int
	topicCount := make(map[int]int)
	names := s.Universe.Tax.TopNames()
	for id := 0; id < vocab.Len(); id++ {
		h, ok := s.Universe.HostByName(vocab.Host(id))
		if !ok || h.Kind != synth.KindSite {
			continue
		}
		site := s.Universe.SiteOfHost(h.ID)
		if site == nil {
			continue
		}
		vecs = append(vecs, stats.Widen(s.Model.VectorByID(id)))
		topics = append(topics, site.Top)
		topicCount[site.Top]++
	}
	res := Fig5Result{PurityByTopic: make(map[string]float64)}
	if len(vecs) == 0 {
		return res
	}

	// Per-topic purity: restrict queries to one topic at a time but
	// search over all site hosts.
	perTopic := make(map[int][]float64)
	k := 10
	for i := range vecs {
		p := pointPurity(vecs, topics, i, k)
		perTopic[topics[i]] = append(perTopic[topics[i]], p)
	}
	var sum float64
	var n int
	var expected float64
	total := len(vecs)
	for topic, ps := range perTopic {
		if topicCount[topic] < 5 {
			continue
		}
		var s2 float64
		for _, p := range ps {
			s2 += p
		}
		mean := s2 / float64(len(ps))
		res.PurityByTopic[names[topic]] = mean
		sum += mean
		n++
		expected += float64(topicCount[topic]-1) / float64(total-1)
	}
	if n > 0 {
		res.MeanPurity = sum / float64(n)
		res.Chance = expected / float64(n)
	}
	return res
}

// pointPurity computes the k-NN same-topic fraction for point i by
// cosine similarity in the embedding.
func pointPurity(vecs [][]float64, topics []int, i, k int) float64 {
	type nd struct {
		j   int
		cos float64
	}
	ds := make([]nd, 0, len(vecs)-1)
	for j := range vecs {
		if j == i {
			continue
		}
		ds = append(ds, nd{j, stats.Cosine(vecs[i], vecs[j])})
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a].cos > ds[b].cos })
	if k > len(ds) {
		k = len(ds)
	}
	same := 0
	for _, d := range ds[:k] {
		if topics[d.j] == topics[i] {
			same++
		}
	}
	return float64(same) / float64(k)
}

// Rows renders the figure-5 result.
func (r Fig5Result) Rows() []Row {
	return []Row{{
		ID:    "FIG5",
		Name:  "Topical clusters in embedding space",
		Paper: "porn / sport-streaming / travel sites form clusters even without co-requests",
		Measured: fmt.Sprintf("mean 10-NN same-topic purity %.2f vs chance %.2f over %d topics",
			r.MeanPurity, r.Chance, len(r.PurityByTopic)),
		Criterion: "mean purity at least 3x chance",
		Pass:      r.MeanPurity > 3*r.Chance && r.MeanPurity > 0,
	}}
}
