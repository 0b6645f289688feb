package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"testing"

	"hostprof/internal/stats"
)

// topicCorpus builds a toy corpus with two disjoint topical communities:
// hosts within a topic co-occur, hosts across topics never do. The
// embedding must place same-topic hosts closer than cross-topic ones.
func topicCorpus(rng *stats.RNG, hostsPerTopic, sessions, sessionLen int) (corpus [][]string, topicA, topicB []string) {
	for i := 0; i < hostsPerTopic; i++ {
		topicA = append(topicA, "a"+string(rune('a'+i%26))+string(rune('a'+i/26))+".example")
		topicB = append(topicB, "b"+string(rune('a'+i%26))+string(rune('a'+i/26))+".example")
	}
	for s := 0; s < sessions; s++ {
		var pool []string
		if s%2 == 0 {
			pool = topicA
		} else {
			pool = topicB
		}
		seq := make([]string, sessionLen)
		for j := range seq {
			seq[j] = pool[rng.Intn(len(pool))]
		}
		corpus = append(corpus, seq)
	}
	return corpus, topicA, topicB
}

func smallConfig() TrainConfig {
	return TrainConfig{
		Dim:       16,
		Window:    2,
		Negative:  5,
		Subsample: -1, // disabled: the toy corpus is tiny
		MinCount:  1,
		Epochs:    3,
		Workers:   1,
		Seed:      42,
	}
}

func TestTrainSeparatesTopics(t *testing.T) {
	rng := stats.NewRNG(7)
	corpus, ta, tb := topicCorpus(rng, 10, 400, 12)
	m, err := Train(corpus, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var intra, inter float64
	var nIntra, nInter int
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			s, err := m.Similarity(ta[i], ta[j])
			if err != nil {
				t.Fatal(err)
			}
			intra += s
			nIntra++
			s, _ = m.Similarity(tb[i], tb[j])
			intra += s
			nIntra++
			s, _ = m.Similarity(ta[i], tb[j])
			inter += s
			nInter++
		}
	}
	intra /= float64(nIntra)
	inter /= float64(nInter)
	if intra <= inter+0.2 {
		t.Fatalf("embedding failed to separate topics: intra=%.3f inter=%.3f", intra, inter)
	}
}

// TestTrainDeterministicSingleWorker: one worker is a function of the
// corpus and the configuration — twice gives the same Save bytes — and
// not of the architecture's kernels: the portable pair trains the model
// the assembly trains (the same test on an architecture without assembly
// compares the portable pair with itself).
func TestTrainDeterministicSingleWorker(t *testing.T) {
	rng := stats.NewRNG(9)
	corpus, _, _ := topicCorpus(rng, 6, 50, 8)
	cfg := smallConfig()
	cfg.Dim = 23 // a group of eight, one of four and a tail of three
	m1, err := Train(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(savedBytes(t, m1), savedBytes(t, m2)) {
		t.Fatal("single-worker training is not deterministic")
	}
	portable, err := train(context.Background(), corpus, cfg, sgnsKernels{sgnsDotRowsPortable, sgnsUpdateRowsPortable})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(savedBytes(t, m1), savedBytes(t, portable)) {
		t.Fatal("training through the portable kernels and through this architecture's gave different models")
	}
}

// TestTrainPinnedAcrossCommits pins one worker's trained model and
// per-epoch loss to their bits, so that a change to the trainer's step
// that claims the same model is held to it across commits, and so that
// the portable kernels and pure-Go math.Exp on other architectures (make
// ci runs this under GOARCH=386) are held to what the amd64 assembly
// trains. It runs under -short on purpose.
func TestTrainPinnedAcrossCommits(t *testing.T) {
	corpus, _, _ := topicCorpus(stats.NewRNG(7), 10, 400, 12)
	for _, tc := range []struct {
		dim    int
		sha256 string
		loss   []uint64
	}{
		{23, "2a1be3771f5de222b424fc59374a8e8d736b81b8473fa75591ea544ca4f20e37",
			[]uint64{0x40043ab8826dfe18, 0x40002c8c64bb2db2, 0x400025f3554a16f4}},
		{64, "9942fefc31daca25a6bf6b0a3bcde4658a2c307198751c908d9af30a54c8ba66",
			[]uint64{0x40047ede38d3aca7, 0x40002da54170be43, 0x4000265be967ac2a}},
	} {
		cfg := smallConfig()
		cfg.Dim = tc.dim
		var loss []uint64
		cfg.Progress = func(e EpochStats) { loss = append(loss, math.Float64bits(e.Loss)) }
		m, err := Train(corpus, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(savedBytes(t, m))
		if got := hex.EncodeToString(sum[:]); got != tc.sha256 {
			t.Errorf("dim %d: saved model sha256 %s, pinned %s", tc.dim, got, tc.sha256)
		}
		if !slices.Equal(loss, tc.loss) {
			t.Errorf("dim %d: per-epoch loss bits %x, pinned %x", tc.dim, loss, tc.loss)
		}
	}
}

func savedBytes(t *testing.T, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSubsampleZeroSelectsTheDefault pins what TrainConfig.Subsample
// documents: 0 is the 1e-3 default, only a negative value disables, and
// a positive value is taken as given.
func TestSubsampleZeroSelectsTheDefault(t *testing.T) {
	vocab := BuildVocab([][]string{{"a", "a", "a", "a", "a", "a", "a", "a", "b", "c"}}, 1)
	for _, tc := range []struct{ set, effective float64 }{{0, 1e-3}, {-1, 0}, {1e-5, 1e-5}} {
		keep := keepProbabilities(vocab, TrainConfig{Subsample: tc.set}.withDefaults().Subsample)
		for id, got := range keep {
			want := 1.0
			if s := tc.effective; s > 0 {
				// word2vec's (√(f/s) + 1)·s/f, below 1 for all three hosts.
				f := float64(vocab.Count(id)) / float64(vocab.Total())
				want = (math.Sqrt(f/s) + 1) * s / f
			}
			if got != want {
				t.Errorf("Subsample %v: %s is kept with probability %v, want %v", tc.set, vocab.Host(id), got, want)
			}
		}
	}
}

func TestTrainSeedChangesResult(t *testing.T) {
	rng := stats.NewRNG(9)
	corpus, _, _ := topicCorpus(rng, 6, 50, 8)
	cfg := smallConfig()
	m1, _ := Train(corpus, cfg)
	cfg.Seed = 43
	m2, _ := Train(corpus, cfg)
	if bytes.Equal(savedBytes(t, m1), savedBytes(t, m2)) {
		t.Fatal("different seeds produced identical weights")
	}
}

func TestTrainEmptyCorpus(t *testing.T) {
	if _, err := Train(nil, smallConfig()); err != ErrEmptyCorpus {
		t.Fatalf("err = %v, want ErrEmptyCorpus", err)
	}
	// All sequences shorter than 2 tokens after pruning.
	if _, err := Train([][]string{{"only"}}, smallConfig()); err != ErrEmptyCorpus {
		t.Fatalf("err = %v, want ErrEmptyCorpus", err)
	}
}

func TestTrainMinCountPrunes(t *testing.T) {
	corpus := [][]string{
		{"common1", "common2", "common1", "common2", "rare"},
		{"common1", "common2", "common2", "common1"},
	}
	cfg := smallConfig()
	cfg.MinCount = 2
	m, err := Train(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Vector("rare"); ok {
		t.Fatal("rare host should be pruned")
	}
	if _, ok := m.Vector("common1"); !ok {
		t.Fatal("common host missing")
	}
}

func TestVectorDimensions(t *testing.T) {
	rng := stats.NewRNG(3)
	corpus, ta, _ := topicCorpus(rng, 4, 30, 6)
	m, err := Train(corpus, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	v, ok := m.Vector(ta[0])
	if !ok || len(v) != 16 {
		t.Fatalf("Vector dim = %d, want 16", len(v))
	}
	if m.Dim() != 16 {
		t.Fatalf("Dim() = %d", m.Dim())
	}
}

func TestMostSimilarExcludesSelfAndSorts(t *testing.T) {
	rng := stats.NewRNG(5)
	corpus, ta, _ := topicCorpus(rng, 8, 200, 10)
	m, err := Train(corpus, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	nbs, err := m.MostSimilar(ta[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbs) != 5 {
		t.Fatalf("got %d neighbours", len(nbs))
	}
	for i, nb := range nbs {
		if nb.Host == ta[0] {
			t.Fatal("query host returned as its own neighbour")
		}
		if i > 0 && nbs[i-1].Cosine < nb.Cosine {
			t.Fatal("neighbours not sorted by decreasing cosine")
		}
	}
	if _, err := m.MostSimilar("nonexistent.example", 3); err == nil {
		t.Fatal("expected error for OOV host")
	}
}

func TestMostSimilarPrefersSameTopic(t *testing.T) {
	rng := stats.NewRNG(11)
	corpus, ta, _ := topicCorpus(rng, 10, 400, 12)
	m, err := Train(corpus, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	nbs, err := m.MostSimilar(ta[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for _, nb := range nbs {
		if nb.Host[0] == 'a' {
			same++
		}
	}
	if same < 4 {
		t.Fatalf("only %d/5 nearest neighbours share the topic", same)
	}
}

func TestNearestToVectorEdgeCases(t *testing.T) {
	rng := stats.NewRNG(13)
	corpus, _, _ := topicCorpus(rng, 4, 30, 6)
	m, err := Train(corpus, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := refNearestToVector(m, make([]float64, 16), 3); got != nil {
		t.Fatal("zero query should return nil")
	}
	if got := refNearestToVector(m, []float64{1}, 0); got != nil {
		t.Fatal("k=0 should return nil")
	}
	// k larger than vocab returns everything.
	v := stats.Widen(m.VectorByID(0))
	all := refNearestToVector(m, v, 10000)
	if len(all) != m.Vocab().Len() {
		t.Fatalf("len = %d, want %d", len(all), m.Vocab().Len())
	}
	// Top hit for a host's own vector is the host itself.
	if all[0].ID != 0 {
		t.Fatalf("self not top hit: %+v", all[0])
	}
}

func TestNearestToVectorMatchesBruteForce(t *testing.T) {
	rng := stats.NewRNG(17)
	corpus, _, _ := topicCorpus(rng, 8, 100, 8)
	m, err := Train(corpus, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := stats.Widen(m.VectorByID(3))
	got := refNearestToVector(m, q, 4)
	// Brute force reference.
	type pair struct {
		id  int
		cos float64
	}
	var ref []pair
	for id := 0; id < m.Vocab().Len(); id++ {
		ref = append(ref, pair{id, stats.Cosine(q, stats.Widen(m.VectorByID(id)))})
	}
	for i := 0; i < 4; i++ {
		best := i
		for j := i + 1; j < len(ref); j++ {
			if ref[j].cos > ref[best].cos {
				best = j
			}
		}
		ref[i], ref[best] = ref[best], ref[i]
		if math.Abs(got[i].Cosine-ref[i].cos) > 1e-9 {
			t.Fatalf("rank %d: heap %v vs brute %v", i, got[i].Cosine, ref[i].cos)
		}
	}
}

func TestTrainMultiWorkerStillLearns(t *testing.T) {
	rng := stats.NewRNG(19)
	corpus, ta, tb := topicCorpus(rng, 8, 300, 10)
	cfg := smallConfig()
	cfg.Workers = 4
	m, err := Train(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	intra, _ := m.Similarity(ta[0], ta[1])
	inter, _ := m.Similarity(ta[0], tb[1])
	if intra <= inter {
		t.Fatalf("multi-worker model failed to learn: intra=%.3f inter=%.3f", intra, inter)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := stats.NewRNG(23)
	corpus, ta, _ := topicCorpus(rng, 5, 40, 6)
	m, err := Train(corpus, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Dim() != m.Dim() || m2.Vocab().Len() != m.Vocab().Len() {
		t.Fatal("shape mismatch after round trip")
	}
	v1, _ := m.Vector(ta[0])
	v2, ok := m2.Vector(ta[0])
	if !ok {
		t.Fatal("host lost in round trip")
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("weights differ after round trip")
		}
	}
	if m2.Vocab().Total() != m.Vocab().Total() {
		t.Fatal("total count lost")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestSaveLoadFile(t *testing.T) {
	rng := stats.NewRNG(29)
	corpus, _, _ := topicCorpus(rng, 4, 30, 6)
	m, err := Train(corpus, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/model.bin"
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Vocab().Len() != m.Vocab().Len() {
		t.Fatal("vocab size mismatch")
	}
	if _, err := LoadFile(path + ".missing"); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := TrainConfig{}.withDefaults()
	if cfg.Dim != 100 || cfg.Window != 2 || cfg.Negative != 5 || cfg.Epochs != 5 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	if cfg.UnigramPower != 0.75 || cfg.Subsample != 1e-3 || cfg.MinCount != 5 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
}

func TestSubsamplingReducesFrequentHostUpdates(t *testing.T) {
	// A corpus dominated by one ubiquitous host: with subsampling on,
	// training should still succeed and keep all hosts in vocab.
	var corpus [][]string
	rng := stats.NewRNG(31)
	for s := 0; s < 100; s++ {
		seq := make([]string, 20)
		for i := range seq {
			if rng.Float64() < 0.8 {
				seq[i] = "portal.example"
			} else {
				seq[i] = []string{"x.example", "y.example", "z.example"}[rng.Intn(3)]
			}
		}
		corpus = append(corpus, seq)
	}
	cfg := smallConfig()
	cfg.Subsample = 1e-3
	m, err := Train(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Vector("portal.example"); !ok {
		t.Fatal("frequent host missing from vocab")
	}
}

// Similarity returns the cosine similarity between the embeddings of two
// hosts, or an error if either is out of vocabulary.
func (m *Model) Similarity(a, b string) (float64, error) {
	va, ok := m.Vector(a)
	if !ok {
		return 0, fmt.Errorf("core: host %q not in vocabulary", a)
	}
	vb, ok := m.Vector(b)
	if !ok {
		return 0, fmt.Errorf("core: host %q not in vocabulary", b)
	}
	return stats.Cosine(stats.Widen(va), stats.Widen(vb)), nil
}
