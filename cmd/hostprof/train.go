package main

import (
	"flag"
	"fmt"
	"os"

	"hostprof/internal/core"
	"hostprof/internal/ontology"
	"hostprof/internal/trace"
)

// cmdTrain trains hostname embeddings from a JSONL trace.
func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	tracePath := fs.String("trace", "", "input trace JSONL (required)")
	modelPath := fs.String("model", "model.bin", "output model path")
	blocklist := fs.String("blocklist", "", "optional hosts-format blocklist to filter first")
	day := fs.Int("day", -1, "train on a single day only (-1 = all days)")
	dim := fs.Int("dim", 100, "embedding dimensionality d")
	window := fs.Int("window", 2, "half window m (window length 2m+1)")
	negative := fs.Int("negative", 5, "negative samples K")
	epochs := fs.Int("epochs", 5, "training epochs")
	minCount := fs.Int("mincount", 5, "minimum hostname frequency")
	sample := fs.Float64("sample", 1e-3, "frequent-host subsampling threshold (<=0 disables)")
	seed := fs.Uint64("seed", 1, "training seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tracePath == "" {
		return fmt.Errorf("-trace is required")
	}

	tf, err := os.Open(*tracePath)
	if err != nil {
		return err
	}
	tr, err := trace.ReadJSONL(tf)
	tf.Close()
	if err != nil {
		return err
	}

	if *blocklist != "" {
		bf, err := os.Open(*blocklist)
		if err != nil {
			return err
		}
		bl := ontology.NewBlocklist()
		if _, err := bl.ParseHostsFile(bf); err != nil {
			bf.Close()
			return err
		}
		bf.Close()
		before := tr.Len()
		tr = tr.FilterHosts(func(h string) bool { return !bl.Contains(h) })
		fmt.Printf("blocklist removed %d of %d visits\n", before-tr.Len(), before)
	}

	var corpus [][]string
	if *day >= 0 {
		corpus = tr.DailySequences(*day)
	} else {
		corpus = tr.AllSequences()
	}
	fmt.Printf("training on %d sequences (%d visits)...\n", len(corpus), tr.Len())

	sub := *sample
	if sub <= 0 {
		sub = -1
	}
	model, err := core.Train(corpus, core.TrainConfig{
		Dim: *dim, Window: *window, Negative: *negative,
		Epochs: *epochs, MinCount: *minCount, Subsample: sub, Seed: *seed,
	})
	if err != nil {
		return err
	}
	if err := model.SaveFile(*modelPath); err != nil {
		return err
	}
	fmt.Printf("model: %d hostnames x %d dims -> %s\n",
		model.Vocab().Len(), model.Dim(), *modelPath)
	return nil
}
