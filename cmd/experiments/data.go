package main

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"hostprof/internal/experiment"
	"hostprof/internal/stats"
)

// writeDataDir dumps every figure's raw series as CSV so the plots can be
// regenerated with any tooling.
func writeDataDir(s *experiment.Setup, all *experiment.AllResults, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	writers := []struct {
		name  string
		write func(w *csv.Writer) error
	}{
		{"fig2_ccdf.csv", func(w *csv.Writer) error { return writeDiversityCCDF(w, all.Fig2) }},
		{"fig3_ccdf.csv", func(w *csv.Writer) error { return writeDiversityCCDF(w, all.Fig3) }},
		{"fig4_points.csv", func(w *csv.Writer) error { return writeFig4Points(w, s, all.Fig4) }},
		{"fig5_purity.csv", func(w *csv.Writer) error { return writeFig5Purity(w, all.Fig5) }},
		{"fig6_topics.csv", func(w *csv.Writer) error { return writeFig6Topics(w, s, all.Campaign) }},
		{"ctr_per_user.csv", func(w *csv.Writer) error { return writeCTRPairs(w, all.Campaign) }},
	}
	for _, spec := range writers {
		f, err := os.Create(filepath.Join(dir, spec.name))
		if err != nil {
			return err
		}
		w := csv.NewWriter(f)
		if err := spec.write(w); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", spec.name, err)
		}
		w.Flush()
		if err := w.Error(); err != nil {
			f.Close()
			return fmt.Errorf("flushing %s: %w", spec.name, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func writeDiversityCCDF(w *csv.Writer, r experiment.DiversityResult) error {
	if err := w.Write([]string{"series", "x", "frac"}); err != nil {
		return err
	}
	emit := func(series string, pts []stats.CCDFPoint) error {
		for _, p := range pts {
			if err := w.Write([]string{
				series,
				strconv.FormatFloat(p.X, 'g', -1, 64),
				strconv.FormatFloat(p.Frac, 'g', -1, 64),
			}); err != nil {
				return err
			}
		}
		return nil
	}
	if err := emit("all", r.TotalCCDF); err != nil {
		return err
	}
	for i, pts := range r.OutsideCCDF {
		level := []string{"outside-core-80", "outside-core-60", "outside-core-40", "outside-core-20"}[i]
		if err := emit(level, pts); err != nil {
			return err
		}
	}
	return nil
}

func writeFig4Points(w *csv.Writer, s *experiment.Setup, r experiment.Fig4Result) error {
	if err := w.Write([]string{"host", "topic", "x", "y"}); err != nil {
		return err
	}
	for _, p := range r.Points {
		topic := ""
		if p.Topic >= 0 {
			topic = s.Universe.Tax.TopName(p.Topic)
		}
		if err := w.Write([]string{
			p.Host, topic,
			strconv.FormatFloat(p.X, 'g', 6, 64),
			strconv.FormatFloat(p.Y, 'g', 6, 64),
		}); err != nil {
			return err
		}
	}
	return nil
}

// writeFig5Purity writes one row per topic, sorted by name, then the
// chance row.
func writeFig5Purity(w *csv.Writer, r experiment.Fig5Result) error {
	if err := w.Write([]string{"topic", "purity"}); err != nil {
		return err
	}
	topics := make([]string, 0, len(r.PurityByTopic))
	for topic := range r.PurityByTopic {
		topics = append(topics, topic)
	}
	sort.Strings(topics)
	for _, topic := range topics {
		if err := w.Write([]string{topic, strconv.FormatFloat(r.PurityByTopic[topic], 'g', 4, 64)}); err != nil {
			return err
		}
	}
	return w.Write([]string{"__chance__", strconv.FormatFloat(r.Chance, 'g', 4, 64)})
}

func writeFig6Topics(w *csv.Writer, s *experiment.Setup, r experiment.CampaignResult) error {
	if err := w.Write([]string{"day", "topic", "web", "adnet", "eaves"}); err != nil {
		return err
	}
	for d := 0; d < r.Days; d++ {
		for ti := range r.WebsiteTopics[d] {
			if r.WebsiteTopics[d][ti] == 0 && r.AdNetTopics[d][ti] == 0 && r.EavesTopics[d][ti] == 0 {
				continue
			}
			if err := w.Write([]string{
				strconv.Itoa(d),
				s.Universe.Tax.TopName(ti),
				strconv.FormatFloat(r.WebsiteTopics[d][ti], 'g', 5, 64),
				strconv.FormatFloat(r.AdNetTopics[d][ti], 'g', 5, 64),
				strconv.FormatFloat(r.EavesTopics[d][ti], 'g', 5, 64),
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeCTRPairs(w *csv.Writer, r experiment.CampaignResult) error {
	if err := w.Write([]string{"user", "eaves_ctr", "adnet_ctr"}); err != nil {
		return err
	}
	for i := range r.PerUserEaves {
		if err := w.Write([]string{
			strconv.Itoa(i),
			strconv.FormatFloat(r.PerUserEaves[i], 'g', 6, 64),
			strconv.FormatFloat(r.PerUserAdNet[i], 'g', 6, 64),
		}); err != nil {
			return err
		}
	}
	return nil
}
