package core

import (
	"math"
	"testing"

	"hostprof/internal/stats"
)

// Train must invoke Progress once per epoch, in order, with a finite
// positive loss and plausible pair counts.
func TestTrainProgressHook(t *testing.T) {
	rng := stats.NewRNG(91)
	corpus, _, _ := topicCorpus(rng, 8, 150, 12)
	cfg := smallConfig()
	cfg.Epochs = 4
	var got []EpochStats
	cfg.Progress = func(e EpochStats) { got = append(got, e) }

	if _, err := Train(corpus, cfg); err != nil {
		t.Fatal(err)
	}
	if len(got) != cfg.Epochs {
		t.Fatalf("progress called %d times, want %d", len(got), cfg.Epochs)
	}
	for i, e := range got {
		if e.Epoch != i || e.Epochs != cfg.Epochs {
			t.Fatalf("epoch %d reported as %+v", i, e)
		}
		if e.Pairs <= 0 {
			t.Fatalf("epoch %d trained no pairs: %+v", i, e)
		}
		if e.Loss <= 0 || math.IsNaN(e.Loss) || math.IsInf(e.Loss, 0) {
			t.Fatalf("epoch %d loss = %v", i, e.Loss)
		}
		if e.Duration < 0 {
			t.Fatalf("epoch %d duration = %v", i, e.Duration)
		}
	}
	// SGD on the toy corpus must make progress: the last epoch's loss
	// should improve on the first's.
	if got[len(got)-1].Loss >= got[0].Loss {
		t.Fatalf("loss did not decrease: first %v, last %v",
			got[0].Loss, got[len(got)-1].Loss)
	}
}

// The progress hook must not change the learned weights: a run with the
// hook set and one without must produce identical embeddings.
func TestTrainProgressHookDoesNotPerturbTraining(t *testing.T) {
	rng := stats.NewRNG(92)
	corpus, ta, _ := topicCorpus(rng, 6, 100, 10)
	base, err := Train(corpus, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.Progress = func(EpochStats) {}
	hooked, err := Train(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	va, _ := base.Vector(ta[0])
	vb, _ := hooked.Vector(ta[0])
	for i := range va {
		if va[i] != vb[i] {
			t.Fatalf("embeddings diverged at dim %d: %v vs %v", i, va[i], vb[i])
		}
	}
}
