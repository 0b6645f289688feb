package experiment

import (
	"math"
	"strings"
	"sync"
	"testing"

	"hostprof/internal/ads"
	"hostprof/internal/baseline"
	"hostprof/internal/stats"
)

// sharedSetup caches one small end-to-end setup across the package's
// tests (training is the expensive part).
var (
	setupOnce sync.Once
	setupVal  *Setup
	setupErr  error
)

func testSetup(t *testing.T) *Setup {
	t.Helper()
	setupOnce.Do(func() {
		setupVal, setupErr = NewSetup(SmallConfig(1234))
	})
	if setupErr != nil {
		t.Fatal(setupErr)
	}
	return setupVal
}

func TestNewSetupWiring(t *testing.T) {
	s := testSetup(t)
	if s.Raw.Len() == 0 || s.Filtered.Len() == 0 {
		t.Fatal("empty traces")
	}
	if s.Filtered.Len() >= s.Raw.Len() {
		t.Fatal("filtering removed nothing")
	}
	if s.Model.Vocab().Len() == 0 {
		t.Fatal("empty vocabulary")
	}
	// No tracker hostname survives filtering.
	for _, v := range s.Filtered.Visits() {
		if s.Blocklist.Contains(v.Host) {
			t.Fatalf("tracker %q survived filtering", v.Host)
		}
	}
}

func TestFig2Shapes(t *testing.T) {
	s := testSetup(t)
	r := Fig2UserDiversityHostnames(s)
	if len(r.CoreSizes) != 4 {
		t.Fatalf("core sizes %v", r.CoreSizes)
	}
	// Cores must grow as the threshold drops (80 → 20).
	for i := 1; i < 4; i++ {
		if r.CoreSizes[i] < r.CoreSizes[i-1] {
			t.Fatalf("core sizes not monotone: %v", r.CoreSizes)
		}
	}
	if r.P75 < r.P25 {
		t.Fatalf("P75 %.0f < P25 %.0f", r.P75, r.P25)
	}
	// CCDF of outside counts is dominated by the total CCDF.
	if len(r.OutsideCCDF[0]) == 0 || len(r.TotalCCDF) == 0 {
		t.Fatal("missing CCDFs")
	}
	rows := r.Fig2Rows()
	if len(rows) != 1 || !rows[0].Pass {
		t.Fatalf("fig2 row failed: %+v", rows)
	}
}

func TestFig3Shapes(t *testing.T) {
	s := testSetup(t)
	r := Fig3UserDiversityCategories(s)
	// Category space is much smaller than hostname space.
	if r.CoreSizes[3] > s.Universe.Tax.NumCategories() {
		t.Fatalf("core larger than category space: %v", r.CoreSizes)
	}
	// Zero-outside fractions grow with core size (more users fully
	// inside bigger cores).
	for i := 1; i < 4; i++ {
		if r.ZeroOutsideFrac[i] < r.ZeroOutsideFrac[i-1]-1e-9 {
			t.Fatalf("zero-outside not monotone: %v", r.ZeroOutsideFrac)
		}
	}
	rows := r.Fig3Rows()
	if len(rows) != 1 {
		t.Fatal("missing fig3 row")
	}
}

func TestFig3CoresSmallerThanFig2Tail(t *testing.T) {
	// Mapping to categories shrinks the space: the number of distinct
	// categories any user reaches is bounded by 328.
	s := testSetup(t)
	r := Fig3UserDiversityCategories(s)
	if r.P75 > 328 {
		t.Fatalf("P75 = %.0f exceeds category count", r.P75)
	}
}

func TestFig4TSNE(t *testing.T) {
	s := testSetup(t)
	r, err := Fig4TSNE(s, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) < 10 {
		t.Fatalf("only %d points", len(r.Points))
	}
	labelled := 0
	for _, p := range r.Points {
		if p.Topic >= 0 {
			labelled++
		}
		if math.IsNaN(p.X) || math.IsNaN(p.Y) {
			t.Fatal("NaN coordinates")
		}
		if p.Host != SecondLevelDomain(p.Host) {
			t.Fatalf("point %q not collapsed to 2LD", p.Host)
		}
	}
	if labelled == 0 {
		t.Fatal("no topic-labelled points")
	}
}

func TestSecondLevelDomain(t *testing.T) {
	cases := map[string]string{
		"mail.google.example":    "google.example",
		"ds.aksb.akamaihd.net":   "akamaihd.net",
		"example.com":            "example.com",
		"com":                    "com",
		"a.b.c.d.e.site.example": "site.example",
	}
	for in, want := range cases {
		if got := SecondLevelDomain(in); got != want {
			t.Errorf("SecondLevelDomain(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestFig5PurityBeatsChance(t *testing.T) {
	s := testSetup(t)
	r := Fig5ClusterPurity(s)
	if len(r.PurityByTopic) == 0 {
		t.Fatal("no topics measured")
	}
	if r.MeanPurity <= r.Chance {
		t.Fatalf("purity %.3f <= chance %.3f: embedding learned nothing",
			r.MeanPurity, r.Chance)
	}
	rows := r.Rows()
	if !rows[0].Pass {
		t.Fatalf("fig5 row failed: %+v", rows[0])
	}
}

func TestRunCampaign(t *testing.T) {
	s := testSetup(t)
	r, err := RunCampaign(s, s.Profiler, CampaignConfig{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if r.Served == 0 {
		t.Fatal("no impressions served")
	}
	if r.Replaced == 0 {
		t.Fatal("no ads replaced")
	}
	if r.Replaced >= r.Served {
		t.Fatal("every ad replaced — replacement gating broken")
	}
	if r.EavesCTR.Impressions != r.Replaced {
		t.Fatal("eavesdropper impressions != replaced count")
	}
	if r.AdNetCTR.Impressions+r.EavesCTR.Impressions != r.Served {
		t.Fatal("impression accounting broken")
	}
	if len(r.PerUserEaves) != len(r.PerUserAdNet) {
		t.Fatal("per-user pairing broken")
	}
	if len(r.PerUserEaves) < 2 {
		t.Fatal("too few paired users")
	}
	// Topic matrices are per-day distributions.
	for d := range r.WebsiteTopics {
		var sum float64
		for _, v := range r.WebsiteTopics[d] {
			if v < 0 {
				t.Fatal("negative share")
			}
			sum += v
		}
		if sum != 0 && math.Abs(sum-1) > 1e-9 {
			t.Fatalf("day %d website shares sum to %v", d, sum)
		}
	}
}

func TestCampaignCTRComparableToAdNetwork(t *testing.T) {
	// The paper's headline: eavesdropper profiles are as good as the
	// ad-network's. Require the two CTRs within 2x of each other and a
	// random-profile eavesdropper to do no better than the real one.
	s := testSetup(t)
	real, err := RunCampaign(s, s.Profiler, CampaignConfig{Seed: 101})
	if err != nil {
		t.Fatal(err)
	}
	ratio := real.EavesCTR.Rate() / real.AdNetCTR.Rate()
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("CTR ratio %.2f out of band (eaves %.3f%% adnet %.3f%%)",
			ratio, real.EavesCTR.Percent(), real.AdNetCTR.Percent())
	}

	// Click counts are tiny at test scale, so compare the deterministic
	// affinity signal rather than realized clicks.
	rnd, err := RunCampaign(s, baseline.NewRandom(s.Universe.Tax, 7), CampaignConfig{Seed: 101})
	if err != nil {
		t.Fatal(err)
	}
	if rnd.MeanEavesAffinity >= real.MeanEavesAffinity {
		t.Fatalf("random profiles matched learned ones: affinity %.4f >= %.4f",
			rnd.MeanEavesAffinity, real.MeanEavesAffinity)
	}
}

func TestCampaignWithOntologyOnlyBaseline(t *testing.T) {
	s := testSetup(t)
	r, err := RunCampaign(s, baseline.NewOntologyOnly(s.Ontology), CampaignConfig{Seed: 103})
	if err != nil {
		t.Fatal(err)
	}
	// Coverage-limited profiling fails far more often than the
	// embedding profiler.
	full, err := RunCampaign(s, s.Profiler, CampaignConfig{Seed: 103})
	if err != nil {
		t.Fatal(err)
	}
	if r.ProfileFailures <= full.ProfileFailures {
		t.Fatalf("ontology-only failures (%d) should exceed embedding failures (%d)",
			r.ProfileFailures, full.ProfileFailures)
	}
}

func TestTableCoverage(t *testing.T) {
	s := testSetup(t)
	c := TableCoverage(s)
	if c.Hosts == 0 || c.Labelled == 0 {
		t.Fatal("empty coverage stats")
	}
	if math.Abs(c.Coverage-0.106) > 0.05 {
		t.Fatalf("coverage %.3f far from configured 0.106", c.Coverage)
	}
	if !c.Rows()[0].Pass {
		t.Fatalf("coverage row failed: %+v", c.Rows()[0])
	}
}

func TestTableTrackerFilter(t *testing.T) {
	s := testSetup(t)
	tr := TableTrackerFilter(s)
	if tr.TrackerHits == 0 {
		t.Fatal("no tracker hits in raw trace")
	}
	if tr.Share <= 0 || tr.Share >= 1 {
		t.Fatalf("tracker share %v", tr.Share)
	}
	// Filtered trace length must equal raw minus hits.
	if s.Raw.Len()-tr.TrackerHits != s.Filtered.Len() {
		t.Fatal("filter accounting mismatch")
	}
}

func TestRunAllProducesAllRows(t *testing.T) {
	s := testSetup(t)
	all, err := RunAll(s, 40)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, r := range all.Rows {
		ids[r.ID] = true
	}
	for _, want := range []string{"FIG2", "FIG3", "FIG4", "FIG5", "FIG6a", "FIG6b/c", "CTR", "COV", "TRK", "BASE", "CM"} {
		if !ids[want] {
			t.Fatalf("missing row %s (have %v)", want, ids)
		}
	}
	md := all.MarkdownReport()
	if len(md) < 100 {
		t.Fatal("markdown report too short")
	}
}

func TestRunCampaignDailyRetrain(t *testing.T) {
	s := testSetup(t)
	r, err := RunCampaign(s, s.Profiler, CampaignConfig{Seed: 401, DailyRetrain: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Served == 0 || r.Replaced == 0 {
		t.Fatal("daily-retrain campaign served nothing")
	}
	// Without look-ahead the profiles may be somewhat weaker but must
	// remain far better than random selection.
	rnd, err := RunCampaign(s, baseline.NewRandom(s.Universe.Tax, 7), CampaignConfig{Seed: 401})
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanEavesAffinity <= rnd.MeanEavesAffinity {
		t.Fatalf("daily-retrain affinity %.4f not above random %.4f",
			r.MeanEavesAffinity, rnd.MeanEavesAffinity)
	}
}

func TestCampaignConfigDefaults(t *testing.T) {
	c := CampaignConfig{}.withDefaults()
	if c.ReplaceProb != 0.35 || c.SlotsPerPageMax != 2 || c.EavesAdsPerReport != 20 {
		t.Fatalf("defaults %+v", c)
	}
}

func TestNextSizeMatch(t *testing.T) {
	list := []ads.Ad{
		{ID: 0, Size: ads.CreativeSize{W: 728, H: 90}},
		{ID: 1, Size: ads.CreativeSize{W: 300, H: 250}},
		{ID: 2, Size: ads.CreativeSize{W: 300, H: 250}},
	}
	cur := 0
	got, ok := nextSizeMatch(list, &cur, ads.CreativeSize{W: 300, H: 250})
	if !ok || got.ID != 1 {
		t.Fatalf("first match %v %v", got.ID, ok)
	}
	got, ok = nextSizeMatch(list, &cur, ads.CreativeSize{W: 300, H: 250})
	if !ok || got.ID != 2 {
		t.Fatalf("second match %v %v (cursor should advance)", got.ID, ok)
	}
	// Wraps around.
	got, ok = nextSizeMatch(list, &cur, ads.CreativeSize{W: 300, H: 250})
	if !ok || got.ID != 1 {
		t.Fatalf("wrap match %v %v", got.ID, ok)
	}
	if _, ok := nextSizeMatch(list, &cur, ads.CreativeSize{W: 5, H: 5}); ok {
		t.Fatal("impossible size matched")
	}
	if _, ok := nextSizeMatch(nil, &cur, ads.CreativeSize{W: 300, H: 250}); ok {
		t.Fatal("empty list matched")
	}
}

func TestDominantTopicAndL1(t *testing.T) {
	m := [][]float64{{0.2, 0.8}, {0.4, 0.6}}
	top, share := dominantTopic(m)
	if top != 1 || share != 0.7 {
		t.Fatalf("dominant = %d/%v", top, share)
	}
	if top, _ := dominantTopic(nil); top != -1 {
		t.Fatal("empty matrix should give -1")
	}
	a := [][]float64{{1, 0}}
	bm := [][]float64{{0, 1}}
	if got := meanL1(a, bm); got != 2 {
		t.Fatalf("L1 = %v", got)
	}
	if meanL1(a, nil) != 0 {
		t.Fatal("mismatched lengths should give 0")
	}
}

func TestTopTopicStability(t *testing.T) {
	m := [][]float64{{0.5}, {0.5}, {0.5}}
	if got := topTopicStability(m, 0); got != 0 {
		t.Fatalf("constant share stddev = %v", got)
	}
	if topTopicStability(m, -1) != 0 {
		t.Fatal("invalid topic should give 0")
	}
}

func TestRowString(t *testing.T) {
	r := Row{ID: "X", Name: "n", Paper: "p", Measured: "m", Criterion: "c", Pass: true}
	s := r.String()
	if !strings.Contains(s, "| X |") || !strings.Contains(s, "| ok |") {
		t.Fatalf("row = %q", s)
	}
	r.Pass = false
	if !strings.Contains(r.String(), "FAIL") {
		t.Fatal("fail row should say FAIL")
	}
}

func TestCCDFMedian(t *testing.T) {
	pts := stats.CCDF([]float64{1, 2, 3, 4})
	// Frac >= 0.5 holds up to X=3 (frac .5), so median is 3.
	if got := ccdfMedian(pts); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if ccdfMedian(nil) != 0 {
		t.Fatal("empty CCDF median should be 0")
	}
}

func TestConfigsAreRunnable(t *testing.T) {
	small := SmallConfig(1)
	if small.Universe.Sites <= 0 || small.Population.Users <= 0 || small.ProfilerN <= 0 {
		t.Fatalf("bad small config %+v", small)
	}
	def := DefaultConfig(1)
	if def.Universe.Sites <= small.Universe.Sites {
		t.Fatal("default config not larger than small")
	}
	if def.SessionWindow != 1200 || def.ReportEvery != 600 {
		t.Fatalf("paper timing constants wrong: %+v", def)
	}
}

func TestTableBaselines(t *testing.T) {
	s := testSetup(t)
	b, err := TableBaselines(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range baselineNames {
		if _, ok := b.Affinity[n]; !ok {
			t.Fatalf("missing profiler %q", n)
		}
	}
	if b.Affinity["embedding"] <= b.Affinity["random"] {
		t.Fatalf("embedding affinity %.4f <= random %.4f",
			b.Affinity["embedding"], b.Affinity["random"])
	}
	if b.Failures["embedding"] >= b.Failures["ontology-only"] {
		t.Fatalf("embedding failures %d >= ontology-only %d",
			b.Failures["embedding"], b.Failures["ontology-only"])
	}
	if !b.Rows()[0].Pass {
		t.Fatalf("baseline row failed: %+v", b.Rows()[0])
	}
}
