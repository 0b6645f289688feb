package main

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hostprof/internal/experiment"
	"hostprof/internal/stats"
	"hostprof/internal/synth"
)

// fakeResults builds a minimal AllResults for exercising the CSV writers
// without running the (expensive) experiment harness.
func fakeResults() (*experiment.Setup, *experiment.AllResults) {
	s := &experiment.Setup{
		Universe: synth.NewUniverse(synth.UniverseConfig{Sites: 10, Seed: 1}),
	}
	nTops := s.Universe.Tax.NumTops()
	day := make([]float64, nTops)
	day[0], day[3] = 0.75, 0.25
	all := &experiment.AllResults{
		Fig2: experiment.DiversityResult{
			TotalCCDF:   stats.CCDF([]float64{1, 2, 3}),
			OutsideCCDF: [][]stats.CCDFPoint{stats.CCDF([]float64{1}), stats.CCDF([]float64{2}), stats.CCDF([]float64{2}), stats.CCDF([]float64{3})},
		},
		Fig3: experiment.DiversityResult{
			TotalCCDF:   stats.CCDF([]float64{5}),
			OutsideCCDF: [][]stats.CCDFPoint{nil, nil, nil, nil},
		},
		Fig4: experiment.Fig4Result{
			Points: []experiment.EmbeddingPoint{
				{Host: "a.example", Topic: 0, X: 1, Y: 2},
				{Host: "cdn.example", Topic: -1, X: 3, Y: 4},
			},
		},
		Fig5: experiment.Fig5Result{
			PurityByTopic: map[string]float64{"Sports": 0.8},
			Chance:        0.05,
		},
		Campaign: experiment.CampaignResult{
			Days:          1,
			WebsiteTopics: [][]float64{day},
			AdNetTopics:   [][]float64{day},
			EavesTopics:   [][]float64{day},
			PerUserEaves:  []float64{0.01, 0.02},
			PerUserAdNet:  []float64{0.015, 0.01},
		},
	}
	return s, all
}

func TestWriteDataDir(t *testing.T) {
	s, all := fakeResults()
	dir := t.TempDir()
	if err := writeDataDir(s, all, dir); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{
		"fig2_ccdf.csv", "fig3_ccdf.csv", "fig4_points.csv",
		"fig5_purity.csv", "fig6_topics.csv", "ctr_per_user.csv",
	} {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if len(strings.Split(strings.TrimSpace(string(data)), "\n")) < 2 {
			t.Fatalf("%s has no data rows:\n%s", f, data)
		}
	}
	// Spot-check content.
	pts, _ := os.ReadFile(filepath.Join(dir, "fig4_points.csv"))
	if !strings.Contains(string(pts), "a.example") {
		t.Fatalf("fig4 points missing host:\n%s", pts)
	}
	ctr, _ := os.ReadFile(filepath.Join(dir, "ctr_per_user.csv"))
	if !strings.Contains(string(ctr), "0.01,0.015") {
		t.Fatalf("ctr pairs wrong:\n%s", ctr)
	}
}

func TestCCDFSummaryAndTopShare(t *testing.T) {
	if got := ccdfSummary(nil); got != "empty" {
		t.Fatalf("empty summary = %q", got)
	}
	pts := stats.CCDF([]float64{1, 2, 3, 4})
	if got := ccdfSummary(pts); !strings.Contains(got, "max=4") {
		t.Fatalf("summary = %q", got)
	}
	s, _ := fakeResults()
	row := make([]float64, s.Universe.Tax.NumTops())
	row[2] = 0.6
	if got := topShare(s, row); !strings.Contains(got, "60%") {
		t.Fatalf("topShare = %q", got)
	}
	if got := topShare(s, make([]float64, 3)); got != "n/a" {
		t.Fatalf("zero row = %q", got)
	}
}

// TestFig5PurityRowsSorted writes a many-topic purity table repeatedly:
// rows come out sorted by topic with the chance row last, and every
// write is byte-identical whatever order the map ranges in.
func TestFig5PurityRowsSorted(t *testing.T) {
	r := experiment.Fig5Result{PurityByTopic: map[string]float64{}, Chance: 0.05}
	for i := 0; i < 40; i++ {
		r.PurityByTopic[fmt.Sprintf("topic-%02d", (i*17)%40)] = float64(i%7) / 7
	}
	write := func() string {
		var b strings.Builder
		w := csv.NewWriter(&b)
		if err := writeFig5Purity(w, r); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		return b.String()
	}
	first := write()
	lines := strings.Split(strings.TrimSpace(first), "\n")
	if len(lines) != 42 || lines[0] != "topic,purity" || lines[41] != "__chance__,0.05" {
		t.Fatalf("table:\n%s", first)
	}
	for i := 2; i < 41; i++ {
		if lines[i-1] >= lines[i] {
			t.Fatalf("rows %d and %d out of order: %q, %q", i-1, i, lines[i-1], lines[i])
		}
	}
	for i := 0; i < 20; i++ {
		if again := write(); again != first {
			t.Fatalf("write %d differs:\n%s\nfirst:\n%s", i, again, first)
		}
	}
}
