// Command experiments regenerates every table and figure of the paper's
// evaluation (Figures 2-6, the CTR comparison of Section 6.4 and the
// corpus statistics of Sections 4 and 5.4) against the synthetic
// substrate and prints the EXPERIMENTS.md comparison table, plus the raw
// series behind each figure when -verbose is set.
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"sort"

	"hostprof/internal/core"
	"hostprof/internal/experiment"
	"hostprof/internal/obs"
	"hostprof/internal/obs/tracer"
	"hostprof/internal/stats"
)

// The default seed and t-SNE iterations: the recorded run's, and the
// -small table testdata/small_table.md holds.
const (
	defaultSeed      = 1234
	defaultTSNEIters = 250
)

func main() {
	small := flag.Bool("small", false, "use the fast test-sized configuration")
	seed := flag.Uint64("seed", defaultSeed, "experiment seed")
	tsneIters := flag.Int("tsne-iters", defaultTSNEIters, "t-SNE iterations for Figure 4")
	verbose := flag.Bool("verbose", false, "print per-figure series")
	outPath := flag.String("out", "", "also write the markdown table to this file")
	dataDir := flag.String("data-dir", "", "write per-figure CSV series to this directory")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
	flag.Parse()

	lg, err := tracer.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		log.Fatal(err)
	}
	slog.SetDefault(lg)

	cfg := experiment.DefaultConfig(*seed)
	if *small {
		cfg = experiment.SmallConfig(*seed)
	}
	// Record every training run (the initial fit plus each extension
	// retrain) into a metrics registry, summarized at exit in -verbose
	// mode.
	reg := obs.NewRegistry()
	epochSeconds := reg.Histogram("hostprof_train_epoch_seconds", obs.ExpBuckets(0.01, 4, 10))
	epochLoss := reg.Gauge("hostprof_train_epoch_loss")
	trainings := reg.Counter("hostprof_trainings_total")
	cfg.Train.Progress = func(e core.EpochStats) {
		epochSeconds.Observe(e.Duration.Seconds())
		epochLoss.Set(e.Loss)
		if e.Epoch == 0 {
			trainings.Inc()
		}
	}
	slog.Info("building experiment world",
		slog.Int("sites", cfg.Universe.Sites),
		slog.Int("users", cfg.Population.Users),
		slog.Int("days", cfg.Population.Days),
		slog.Int("dim", cfg.Train.Dim))
	s, err := experiment.NewSetup(cfg)
	if err != nil {
		log.Fatal(err)
	}
	slog.Info("running experiments",
		slog.Int("visits", s.Filtered.Len()),
		slog.Int("vocab", s.Model.Vocab().Len()))

	all, err := experiment.RunAll(s, *tsneIters)
	if err != nil {
		log.Fatal(err)
	}

	md := all.MarkdownReport()
	fmt.Println(md)
	if *outPath != "" {
		if err := os.WriteFile(*outPath, []byte(md), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	if *dataDir != "" {
		if err := writeDataDir(s, all, *dataDir); err != nil {
			log.Fatal(err)
		}
		slog.Info("figure data written", slog.String("dir", *dataDir))
	}

	if *verbose {
		printVerbose(s, all)
		fmt.Println("\n== Final metrics ==")
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}

func printVerbose(s *experiment.Setup, all *experiment.AllResults) {
	fmt.Println("\n== Figure 2: CCDF of distinct hostnames per user ==")
	for i, pts := range all.Fig2.OutsideCCDF {
		level := []int{80, 60, 40, 20}[i]
		fmt.Printf("outside Core %d (size %d): %s\n",
			level, all.Fig2.CoreSizes[i], ccdfSummary(pts))
	}

	fmt.Println("\n== Figure 3: category cores ==")
	fmt.Printf("categories common to all users: %d\n", all.Fig3.CommonToAll)
	for i, f := range all.Fig3.ZeroOutsideFrac {
		level := []int{80, 60, 40, 20}[i]
		fmt.Printf("users with no category outside Core %d: %.1f%%\n", level, 100*f)
	}

	fmt.Println("\n== Figure 4: t-SNE coordinates (first 10 points) ==")
	for i, p := range all.Fig4.Points {
		if i >= 10 {
			break
		}
		topic := "-"
		if p.Topic >= 0 {
			topic = s.Universe.Tax.TopName(p.Topic)
		}
		fmt.Printf("%-28s (%7.2f, %7.2f) %s\n", p.Host, p.X, p.Y, topic)
	}
	fmt.Printf("2-D 10-NN topic purity: %.3f\n", all.Fig4.Purity2D)

	fmt.Println("\n== Figure 5: per-topic embedding purity ==")
	type kv struct {
		name string
		p    float64
	}
	var ps []kv
	for name, p := range all.Fig5.PurityByTopic {
		ps = append(ps, kv{name, p})
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].p > ps[j].p || ps[i].p == ps[j].p && ps[i].name < ps[j].name })
	for _, e := range ps {
		fmt.Printf("%-32s %.3f\n", e.name, e.p)
	}
	fmt.Printf("mean %.3f vs chance %.3f\n", all.Fig5.MeanPurity, all.Fig5.Chance)

	fmt.Println("\n== Figure 6: daily dominant-topic shares ==")
	for d := 0; d < all.Campaign.Days; d++ {
		fmt.Printf("day %2d: web %s | adnet %s | eaves %s\n", d,
			topShare(s, all.Campaign.WebsiteTopics[d]),
			topShare(s, all.Campaign.AdNetTopics[d]),
			topShare(s, all.Campaign.EavesTopics[d]))
	}

	fmt.Println("\n== Baselines ==")
	for _, n := range []string{"embedding", "ontology-only", "oracle", "random"} {
		fmt.Printf("%-14s affinity %.3f  failures %d  ctr %.3f%%\n",
			n, all.Baselines.Affinity[n], all.Baselines.Failures[n], all.Baselines.CTRPercent[n])
	}

	fmt.Println("\n== Countermeasures (§7.4) ==")
	for _, n := range all.Counters.Order {
		fmt.Printf("%-14s match %.2f  ip-only %.2f\n",
			n, all.Counters.MatchRate[n], all.Counters.Fallback[n])
	}

	fmt.Println("\n== CTR ==")
	fmt.Printf("eavesdropper %.3f%% over %d impressions\n",
		all.Campaign.EavesCTR.Percent(), all.Campaign.EavesCTR.Impressions)
	fmt.Printf("ad-network   %.3f%% over %d impressions\n",
		all.Campaign.AdNetCTR.Percent(), all.Campaign.AdNetCTR.Impressions)
	fmt.Printf("paired t-test: t=%.3f df=%.0f p=%.4f (n=%d users); Wilcoxon z=%.3f p=%.4f\n",
		all.Campaign.TTest.T, all.Campaign.TTest.DF, all.Campaign.TTest.P, all.Campaign.TTest.N,
		all.Campaign.Wilcoxon.Z, all.Campaign.Wilcoxon.P)
}

// ccdfSummary renders a few anchor points of a CCDF.
func ccdfSummary(pts []stats.CCDFPoint) string {
	if len(pts) == 0 {
		return "empty"
	}
	at := func(frac float64) float64 {
		x := pts[0].X
		for _, p := range pts {
			if p.Frac >= frac {
				x = p.X
			}
		}
		return x
	}
	return fmt.Sprintf("P25>=%.0f P50>=%.0f P75>=%.0f max=%.0f",
		at(0.75), at(0.5), at(0.25), pts[len(pts)-1].X)
}

func topShare(s *experiment.Setup, row []float64) string {
	best, bestV := -1, 0.0
	for i, v := range row {
		if v > bestV {
			best, bestV = i, v
		}
	}
	if best < 0 {
		return "n/a"
	}
	return fmt.Sprintf("%s %.0f%%", s.Universe.Tax.TopName(best), 100*bestV)
}
