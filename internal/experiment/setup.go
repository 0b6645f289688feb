// Package experiment reproduces every figure and table of the paper's
// evaluation (Section 6) on the synthetic substrate: user diversity over
// hostnames (Figure 2) and categories (Figure 3), embedding visualization
// and cluster quality (Figures 4 and 5), topic mixes of visited sites and
// served ads (Figure 6a-c), and the CTR comparison with its paired t-test
// (Section 6.4), plus the corpus statistics quoted in Sections 4 and 5.4.
//
// Each harness returns a typed result plus a Row for EXPERIMENTS.md
// recording the paper's value next to the measured one.
package experiment

import (
	"fmt"

	"hostprof/internal/ads"
	"hostprof/internal/core"
	"hostprof/internal/ontology"
	"hostprof/internal/synth"
	"hostprof/internal/trace"
)

// SetupConfig sizes a full end-to-end experiment run.
type SetupConfig struct {
	Universe   synth.UniverseConfig
	Population synth.PopulationConfig
	Ontology   synth.OntologyConfig
	Train      core.TrainConfig
	// ProfilerN is the N of Section 4.1 (default 1000, capped by vocab).
	ProfilerN int
	// SessionWindow is T in seconds (paper: 20 minutes).
	SessionWindow int64
	// ReportEvery is the extension's reporting period in seconds
	// (paper: 10 minutes).
	ReportEvery int64
	// Seed drives every stage unless overridden per-stage.
	Seed uint64
}

// SmallConfig returns a configuration sized for unit tests and CI: a few
// hundred hosts, a handful of users, fast training.
func SmallConfig(seed uint64) SetupConfig {
	return SetupConfig{
		Universe:   synth.UniverseConfig{Sites: 150, Trackers: 25, Seed: seed},
		Population: synth.PopulationConfig{Users: 30, Days: 6, PopularBias: 0.25, Seed: seed + 1},
		Ontology:   synth.OntologyConfig{Coverage: 0.106, Seed: seed + 2},
		Train: core.TrainConfig{
			Dim: 32, Epochs: 15, MinCount: 2, Seed: seed + 3,
			// Subsampling disabled: on a corpus this small the 1e-3
			// threshold would discard most site-host occurrences.
			Subsample: -1,
		},
		ProfilerN:     40,
		SessionWindow: 20 * 60,
		ReportEvery:   10 * 60,
		Seed:          seed,
	}
}

// DefaultConfig returns the configuration used by cmd/experiments: large
// enough for stable statistics, small enough for a laptop.
func DefaultConfig(seed uint64) SetupConfig {
	return SetupConfig{
		Universe:   synth.UniverseConfig{Sites: 1200, Trackers: 120, Seed: seed},
		Population: synth.PopulationConfig{Users: 150, Days: 14, PopularBias: 0.25, Seed: seed + 1},
		Ontology:   synth.OntologyConfig{Coverage: 0.106, Seed: seed + 2},
		Train: core.TrainConfig{
			Dim: 64, Epochs: 4, MinCount: 3, Seed: seed + 3,
		},
		ProfilerN:     40,
		SessionWindow: 20 * 60,
		ReportEvery:   10 * 60,
		Seed:          seed,
	}
}

// Setup bundles the trained pipeline all experiments share.
type Setup struct {
	Config     SetupConfig
	Universe   *synth.Universe
	Population *synth.Population
	// Raw is the full trace including tracker requests; Filtered has
	// blocklisted hosts removed (the profiling input, Section 5.4).
	Raw, Filtered *trace.Trace
	Ontology      *ontology.Ontology
	Blocklist     *ontology.Blocklist
	Model         *core.Model
	Profiler      *core.Profiler
	AdDB          *ads.DB
	Selector      *ads.Selector
	AdNetwork     *ads.AdNetwork
	Clicks        *ads.ClickModel
}

// NewSetup generates the universe and population, simulates browsing,
// filters trackers, trains the embedding on all per-user-day sequences
// and wires up profiler and ad machinery.
func NewSetup(cfg SetupConfig) (*Setup, error) {
	u := synth.NewUniverse(cfg.Universe)
	pop := synth.NewPopulation(u, cfg.Population)
	raw := pop.Browse()
	if raw.Len() == 0 {
		return nil, fmt.Errorf("experiment: empty browsing trace")
	}
	bl := synth.BuildBlocklist(u, 1, cfg.Seed+11)
	filtered := raw.FilterHosts(func(h string) bool { return !bl.Contains(h) })
	ont := synth.BuildOntology(u, cfg.Ontology)

	model, err := core.Train(filtered.AllSequences(), cfg.Train)
	if err != nil {
		return nil, fmt.Errorf("experiment: training: %w", err)
	}
	prof := core.NewProfiler(model, ont, core.ProfilerConfig{N: cfg.ProfilerN, Agg: core.AggIDF})

	db := ads.BuildFromOntology(ont, ads.BuildConfig{Seed: cfg.Seed + 13})
	sel, err := ads.NewSelector(db, ont, 20)
	if err != nil {
		return nil, fmt.Errorf("experiment: ad selector: %w", err)
	}
	return &Setup{
		Config:     cfg,
		Universe:   u,
		Population: pop,
		Raw:        raw,
		Filtered:   filtered,
		Ontology:   ont,
		Blocklist:  bl,
		Model:      model,
		Profiler:   prof,
		AdDB:       db,
		Selector:   sel,
		AdNetwork:  ads.NewAdNetwork(db, cfg.Seed+17),
		Clicks:     ads.NewClickModel(0, 0, cfg.Seed+19),
	}, nil
}

// Row is one line of EXPERIMENTS.md: the paper's reported value next to
// what this reproduction measures, with a pass/fail on the *shape*
// criterion (absolute numbers are not comparable across substrates).
type Row struct {
	ID        string // experiment id, e.g. "FIG2"
	Name      string
	Paper     string // the paper's claim
	Measured  string // this run's measurement
	Criterion string // what "shape holds" means here
	Pass      bool
}

// String renders the row as a markdown table line.
func (r Row) String() string {
	status := "FAIL"
	if r.Pass {
		status = "ok"
	}
	return fmt.Sprintf("| %s | %s | %s | %s | %s | %s |",
		r.ID, r.Name, r.Paper, r.Measured, r.Criterion, status)
}
