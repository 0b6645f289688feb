package engine

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log/slog"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hostprof/internal/core"
	"hostprof/internal/fault"
	"hostprof/internal/obs"
	"hostprof/internal/ontology"
	"hostprof/internal/store"
	"hostprof/internal/synth"
)

var testProfile = core.ProfilerConfig{N: 30, Agg: core.AggIDF}

// fixture is an engine over an in-memory store seeded with a small
// trainable corpus, plus sessions the trained model can profile.
type fixture struct {
	e        *Engine
	st       *store.Store
	reg      *obs.Registry
	ont      *ontology.Ontology
	sessions [][]string
}

func newFixture(t *testing.T, mutate func(*Config)) *fixture {
	t.Helper()
	u := synth.NewUniverse(synth.UniverseConfig{Sites: 100, Trackers: 15, Seed: 3})
	ont := synth.BuildOntology(u, synth.OntologyConfig{Coverage: 0.2, Seed: 5})
	reg := obs.NewRegistry()
	st, err := store.Open(store.Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	pop := synth.NewPopulation(u, synth.PopulationConfig{Users: 8, Days: 2, Seed: 13})
	for _, v := range pop.Browse().Visits() {
		if err := st.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{
		Ontology: ont,
		Store:    st,
		Train:    core.TrainConfig{Dim: 16, Epochs: 4, MinCount: 1, Seed: 11, Subsample: -1},
		Profile:  testProfile,
		Metrics:  reg,
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	site := func(i int) string { return u.Hosts[u.Sites[i].Host].Name }
	return &fixture{
		e: New(cfg), st: st, reg: reg, ont: ont,
		sessions: [][]string{
			{site(0), u.Hosts[u.Sites[0].Support[0]].Name},
			{site(1)},
			{site(2), site(3)},
			{site(4)},
			{"never-seen-host.invalid"},
		},
	}
}

// waitFor polls cond until it holds, failing the test after 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func (fx *fixture) retrain(ctx context.Context) error {
	_, err := fx.e.Retrain(ctx, ctx, fx.st.AllSequences, "test retrain")
	return err
}

// TestRetrainCoalesces: overlapping Retrain calls share one training
// run, exactly one of them leads it, and the model is installed once.
func TestRetrainCoalesces(t *testing.T) {
	t.Cleanup(fault.Reset)
	var starts atomic.Int64
	fx := newFixture(t, func(cfg *Config) {
		cfg.Train.Progress = func(ep core.EpochStats) {
			if ep.Epoch == 0 {
				starts.Add(1)
			}
		}
	})
	fault.Set(fault.TrainEpoch, fault.Latency(50*time.Millisecond))
	if fx.e.Running() {
		t.Fatal("Running before any retrain")
	}
	if _, err := fx.e.Profile(context.Background(), fx.sessions[0]); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("profile before first install = %v, want ErrNotTrained", err)
	}

	var wg sync.WaitGroup
	var leaders atomic.Int64
	errs := make([]error, 3)
	call := func(i int) {
		defer wg.Done()
		leader, err := fx.e.Retrain(context.Background(), context.Background(), fx.st.AllSequences, "test retrain")
		if leader {
			leaders.Add(1)
		}
		errs[i] = err
	}
	wg.Add(1)
	go call(0)
	// Fire the joiners only once the first run is provably inside Train.
	waitFor(t, "the first run to reach an epoch", func() bool { return fault.Hits(fault.TrainEpoch) > 0 })
	if !fx.e.Running() {
		t.Fatal("Running false while training is in flight")
	}
	if fx.e.RetrainAsync(context.Background(), fx.st.AllSequences, "test retrain") {
		t.Fatal("RetrainAsync started a second run beside the one in flight")
	}
	wg.Add(2)
	go call(1)
	go call(2)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("retrain %d: %v", i, err)
		}
	}
	if n := starts.Load(); n != 1 {
		t.Fatalf("training ran %d times for three overlapping calls, want 1", n)
	}
	if n := leaders.Load(); n != 1 {
		t.Fatalf("%d leaders, want 1", n)
	}
	if got := fx.reg.Histogram("hostprof_retrain_seconds", nil).Count(); got != 1 {
		t.Fatalf("hostprof_retrain_seconds_count = %d, want 1", got)
	}
	if fx.e.Profiler() == nil || fx.e.Profiler().Model() != fx.st.Model() {
		t.Fatal("served generation and store model disagree after retrain")
	}
}

// TestFailedRetrainKeepsGeneration: a cancelled or timed-out run returns
// the context error, is counted, and leaves whatever was being served
// (nothing, or the previous generation) in place.
func TestFailedRetrainKeepsGeneration(t *testing.T) {
	t.Cleanup(fault.Reset)
	fx := newFixture(t, func(cfg *Config) { cfg.RetrainTimeout = time.Minute })
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := fx.retrain(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("retrain with cancelled ctx = %v, want context.Canceled", err)
	}
	// The caller stopped waiting at once; let the doomed run finish so
	// the next call starts its own instead of joining it.
	waitFor(t, "the cancelled run to end", func() bool { return !fx.e.Running() })
	if fx.e.Profiler() != nil {
		t.Fatal("cancelled retrain installed a model")
	}
	if err := fx.retrain(context.Background()); err != nil {
		t.Fatal(err)
	}
	served := fx.e.Profiler()

	fx.e.cfg.RetrainTimeout = 30 * time.Millisecond
	fault.Set(fault.TrainEpoch, fault.Latency(200*time.Millisecond))
	if err := fx.retrain(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("retrain past deadline = %v, want context.DeadlineExceeded", err)
	}
	if fx.e.Profiler() != served {
		t.Fatal("timed-out retrain replaced the served generation")
	}
	if got := fx.reg.Counter("hostprof_retrain_errors_total").Value(); got != 2 {
		t.Fatalf("hostprof_retrain_errors_total = %d, want 2", got)
	}
}

// TestProfileErrorsCounted: hostprof_profile_errors_total counts each
// session whose profile is an error — an empty and an unlabelled one,
// alone or in a batch, cached or not — and nothing else.
func TestProfileErrorsCounted(t *testing.T) {
	fx := newFixture(t, nil)
	ctx := context.Background()
	if err := fx.retrain(ctx); err != nil {
		t.Fatal(err)
	}
	empty, unlabelled := []string{}, fx.sessions[len(fx.sessions)-1]
	for i, s := range [][]string{empty, unlabelled, fx.sessions[0], unlabelled} {
		if _, err := fx.e.Profile(ctx, s); (err != nil) != (i != 2) {
			t.Fatalf("session %d: err = %v", i, err)
		}
	}
	_, errs, err := fx.e.ProfileSessions(ctx, [][]string{empty, fx.sessions[1], unlabelled})
	if err != nil || errs[0] == nil || errs[1] != nil || errs[2] == nil {
		t.Fatalf("batch errors %v, %v", errs, err)
	}
	if got := fx.reg.Counter("hostprof_profile_errors_total").Value(); got != 5 {
		t.Fatalf("hostprof_profile_errors_total = %d, want 5", got)
	}
}

// TestWaiterAbandonsRunContinues: a caller whose wait context ends stops
// waiting with its own error; the run, bound to runCtx, still installs.
func TestWaiterAbandonsRunContinues(t *testing.T) {
	t.Cleanup(fault.Reset)
	fx := newFixture(t, nil)
	fault.Set(fault.TrainEpoch, fault.Latency(20*time.Millisecond))
	wait, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := fx.e.Retrain(wait, context.Background(), fx.st.AllSequences, "test retrain"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("abandoned wait = %v, want context.DeadlineExceeded", err)
	}
	waitFor(t, "the run abandoned by its only waiter to install a model", func() bool { return fx.e.Profiler() != nil })
}

// TestInstallHandsArtifactToStore: an install that comes with serialized
// bytes primes the store's artifact cache, so the version is the bytes'
// content address without re-encoding; a warm start serves it.
func TestInstallHandsArtifactToStore(t *testing.T) {
	fx := newFixture(t, nil)
	model, err := core.TrainContext(context.Background(), fx.st.AllSequences(), fx.e.cfg.Train)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fx.e.Install(model, buf.Bytes())
	if got, want := fx.st.ModelVersion(), store.ArtifactVersion(buf.Bytes()); got != want {
		t.Fatalf("store model version = %s, want %s", got, want)
	}
	warm := New(fx.e.cfg)
	if warm.Profiler() == nil || warm.Profiler().Model() != model {
		t.Fatal("engine over a store holding a model did not start warm")
	}
}

func TestProfileCacheLRU(t *testing.T) {
	reg := obs.NewRegistry()
	c := newProfileCache(2, reg)
	c.put("a", nil, core.ErrNoLabels)
	c.put("b", nil, core.ErrNoLabels)
	if _, _, ok := c.get("a"); !ok {
		t.Fatal("a should be cached")
	}
	c.put("c", nil, core.ErrNoLabels) // evicts b (a was just used)
	if _, _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, _, ok := c.get("a"); !ok {
		t.Fatal("a should survive (recently used)")
	}
	if got := reg.Counter("hostprof_profile_cache_evictions_total").Value(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	if nil2 := newProfileCache(0, reg); nil2 != nil {
		t.Fatal("capacity 0 must disable the cache")
	}
}

// outcome is one session's profiling result.
type outcome struct {
	vec ontology.Vector
	err error
}

func (o outcome) equal(vec ontology.Vector, err error) bool {
	return reflect.DeepEqual(o.vec, vec) && (o.err == nil) == (err == nil) && (err == nil || errors.Is(err, o.err))
}

// TestGenerationsNeverMix hammers Profile and ProfileSessions while
// Install (with and without artifact) and Retrain swap the generation
// underneath, through a cache small enough to keep evicting. Every
// answer that provably came from one generation — the pointer read the
// same before and after the call — must equal a fresh profiler's answer
// over that generation's model, bit for bit: a profiler paired with
// another model's cache, or a stale cache entry surviving a swap, fails
// it. Run under -race it also covers the swap itself.
func TestGenerationsNeverMix(t *testing.T) {
	fx := newFixture(t, func(cfg *Config) { cfg.CacheSize = 2 })
	ctx := context.Background()
	train := func(seed uint64) (*core.Model, []byte) {
		tc := fx.e.cfg.Train
		tc.Seed = seed
		m, err := core.TrainContext(ctx, fx.st.AllSequences(), tc)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return m, buf.Bytes()
	}
	modelA, _ := train(101)
	modelB, bytesB := train(202)
	fx.e.Install(modelA, nil)

	// want memoises, per model, what a fresh profiler answers.
	var want sync.Map // *core.Model → []outcome
	wantFor := func(m *core.Model) []outcome {
		if v, ok := want.Load(m); ok {
			return v.([]outcome)
		}
		fresh := core.NewProfiler(m, fx.ont, testProfile)
		outs := make([]outcome, len(fx.sessions))
		for i, s := range fx.sessions {
			outs[i].vec, outs[i].err = fresh.ProfileSession(s)
		}
		v, _ := want.LoadOrStore(m, outs)
		return v.([]outcome)
	}

	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	var checked atomic.Int64
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				before := fx.e.gen.Load()
				var vecs []ontology.Vector
				var errs []error
				idx := []int{i % len(fx.sessions)}
				if i%2 == 0 {
					vec, err := fx.e.Profile(ctx, fx.sessions[idx[0]])
					vecs, errs = []ontology.Vector{vec}, []error{err}
				} else {
					idx = idx[:0]
					for j := range fx.sessions {
						idx = append(idx, j)
					}
					var err error
					if vecs, errs, err = fx.e.ProfileSessions(ctx, fx.sessions); err != nil {
						t.Errorf("batch during swaps: %v", err)
						return
					}
				}
				if fx.e.gen.Load() != before {
					continue // swapped mid-call: the answer's generation is unknown
				}
				outs := wantFor(before.profiler.Model())
				for k, j := range idx {
					if !outs[j].equal(vecs[k], errs[k]) {
						t.Errorf("session %d: got (%v, %v), fresh profiler over the same generation says (%v, %v)",
							j, vecs[k], errs[k], outs[j].vec, outs[j].err)
						return
					}
				}
				checked.Add(1)
			}
		}(r)
	}
	writers.Add(2)
	go func() {
		defer writers.Done()
		for i := 0; i < 20; i++ {
			if i%2 == 0 {
				fx.e.Install(modelB, bytesB)
			} else {
				fx.e.Install(modelA, nil)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	go func() {
		defer writers.Done()
		for i := 0; i < 5; i++ {
			if err := fx.retrain(ctx); err != nil {
				t.Errorf("retrain during swaps: %v", err)
			}
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()

	if checked.Load() == 0 {
		t.Fatal("no answer was attributable to a single generation; the hammer checked nothing")
	}
	if fx.e.Profiler().Model() != fx.st.Model() {
		t.Fatal("served generation and store model disagree after concurrent installs")
	}
	if got := fx.reg.Counter("hostprof_profile_cache_evictions_total").Value(); got == 0 {
		t.Fatal("cache never evicted; the hammer did not exercise the LRU")
	}
}
