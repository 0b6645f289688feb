package hostprof

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hostprof/internal/fault"
)

// emptyRetrainFixture builds a pipeline over the test world with the
// given extra config mutation, and returns the world's visit trace for
// the caller to ingest.
func emptyRetrainFixture(t *testing.T, mutate func(*PipelineConfig)) (*Pipeline, *Trace) {
	t.Helper()
	_, ont, tr, _ := buildWorld(t)
	cfg := PipelineConfig{
		Ontology: ont,
		Train:    TrainConfig{Dim: 16, Epochs: 4, MinCount: 2, Seed: 3, Subsample: -1},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, tr
}

// retrainFixture is emptyRetrainFixture with the trace ingested.
func retrainFixture(t *testing.T, mutate func(*PipelineConfig)) *Pipeline {
	t.Helper()
	p, tr := emptyRetrainFixture(t, mutate)
	for _, v := range tr.Visits() {
		p.IngestVisit(v)
	}
	return p
}

func TestPipelineRetrainContextCancelled(t *testing.T) {
	p := retrainFixture(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	err := p.RetrainContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("retrain with cancelled ctx = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled retrain took %v, want prompt return", elapsed)
	}
	if p.Ready() {
		t.Fatal("cancelled retrain installed a model")
	}
}

func TestPipelineRetrainTimeout(t *testing.T) {
	t.Cleanup(fault.Reset)
	p := retrainFixture(t, func(cfg *PipelineConfig) {
		cfg.RetrainTimeout = 30 * time.Millisecond
	})
	fault.Set(fault.TrainEpoch, fault.Latency(200*time.Millisecond))
	if err := p.Retrain(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("retrain past deadline = %v, want context.DeadlineExceeded", err)
	}
	if p.Ready() {
		t.Fatal("timed-out retrain installed a model")
	}
}

// TestPipelineRetrainCoalesces: overlapping Retrain calls share one
// training run instead of fitting two models over the same corpus.
func TestPipelineRetrainCoalesces(t *testing.T) {
	t.Cleanup(fault.Reset)
	var starts atomic.Int64
	p := retrainFixture(t, func(cfg *PipelineConfig) {
		cfg.Train.Progress = func(e EpochStats) {
			if e.Epoch == 0 {
				starts.Add(1)
			}
		}
	})
	fault.Set(fault.TrainEpoch, fault.Latency(100*time.Millisecond))

	if p.RetrainRunning() {
		t.Fatal("retrain reported in flight before any call")
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(1)
	go func() { defer wg.Done(); errs[0] = p.Retrain() }()
	// Fire the joiner only once the first run is provably inside Train.
	deadline := time.Now().Add(5 * time.Second)
	for fault.Hits(fault.TrainEpoch) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !p.RetrainRunning() {
		t.Fatal("RetrainRunning false while training is in flight")
	}
	wg.Add(1)
	go func() { defer wg.Done(); errs[1] = p.Retrain() }()
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("retrain %d: %v", i, err)
		}
	}
	if n := starts.Load(); n != 1 {
		t.Fatalf("training ran %d times for two overlapping calls, want 1", n)
	}
	if !p.Ready() {
		t.Fatal("pipeline not ready after coalesced retrain")
	}
}

// TestPipelineDurableWarmRestart: a pipeline over a durable store that
// retrains and exits comes back with its visits and its model — the
// engine snapshots after every install, so nobody has to remember
// Store().Snapshot() — and profiles without a retrain.
func TestPipelineDurableWarmRestart(t *testing.T) {
	dir := t.TempDir()
	durable := func(cfg *PipelineConfig) {
		st, err := OpenStore(StoreConfig{Dir: dir, Fsync: FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = st
	}
	p := retrainFixture(t, durable)
	if err := p.Retrain(); err != nil {
		t.Fatal(err)
	}
	session := p.Store().Session(0, 1<<62, 1<<62)
	want, err := p.ProfileSession(session)
	if err != nil {
		t.Fatalf("profiling user 0's history: %v", err)
	}
	if err := p.Store().Close(); err != nil {
		t.Fatal(err)
	}

	p2, _ := emptyRetrainFixture(t, durable)
	defer p2.Store().Close()
	if !p2.Ready() {
		t.Fatal("reopened durable pipeline has its visits but no model")
	}
	got, err := p2.ProfileSession(session)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("profile after warm restart = (%v, %v), want %v", got, err, want)
	}
}
