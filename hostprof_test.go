package hostprof

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"hostprof/internal/sniffer"
	"hostprof/internal/stats"
	"hostprof/internal/store"
	"hostprof/internal/synth"
)

// buildWorld returns a labelled universe, a browsing trace and the wire
// capture of that trace (TLS channel).
func buildWorld(t *testing.T) (*synth.Universe, *Ontology, *Trace, *sniffer.Capture) {
	t.Helper()
	u := synth.NewUniverse(synth.UniverseConfig{Sites: 100, Trackers: 15, Seed: 5})
	ont := synth.BuildOntology(u, synth.OntologyConfig{Coverage: 0.15, Seed: 7})
	pop := synth.NewPopulation(u, synth.PopulationConfig{Users: 12, Days: 3, Seed: 9})
	tr := pop.Browse()
	syn := sniffer.NewSynthesizer(sniffer.WireConfig{Channel: sniffer.ChannelMixed, Seed: 11})
	cap, err := syn.SynthesizeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	return u, ont, tr, cap
}

func TestPipelineEndToEnd(t *testing.T) {
	u, ont, tr, cap := buildWorld(t)
	bl := synth.BuildBlocklist(u, 1, 13)
	p, err := NewPipeline(PipelineConfig{
		Ontology:  ont,
		Blocklist: bl,
		Train:     TrainConfig{Dim: 16, Epochs: 4, MinCount: 2, Seed: 3, Subsample: -1},
		Profile:   ProfilerConfig{N: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Profiling before training fails cleanly.
	if _, err := p.ProfileSession([]string{"x.example"}); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("err = %v, want ErrNotTrained", err)
	}

	ingested := 0
	for i, frame := range cap.Packets {
		if p.Ingest(frame, cap.Times[i]) {
			ingested++
		}
	}
	if ingested == 0 {
		t.Fatal("observer extracted nothing")
	}
	// Blocklisted hosts never reach the trace.
	for _, v := range p.Trace().Visits() {
		if bl.Contains(v.Host) {
			t.Fatalf("tracker %q in pipeline trace", v.Host)
		}
	}
	// The ingest counters account for every frame and every visit a
	// fresh observer extracts from the same capture; the one visit the
	// store refuses is an oversized hostname.
	if p.IngestVisit(Visit{User: 0, Time: 1, Host: strings.Repeat("a", store.MaxHostBytes+1)}) {
		t.Fatal("oversized hostname stored")
	}
	extracted := NewObserver(ObserverConfig{}).ObserveAll(cap.Packets, cap.Times).Visits()
	blocked := 0
	for _, v := range extracted {
		if bl.Contains(v.Host) {
			blocked++
		}
	}
	reg := p.Metrics()
	for name, want := range map[string]int{
		"hostprof_ingest_frames_total":          len(cap.Packets),
		"hostprof_ingest_visits_total":          ingested,
		"hostprof_ingest_blocklist_drops_total": blocked,
		"hostprof_ingest_store_errors_total":    1,
	} {
		if got := reg.Counter(name).Value(); got != int64(want) {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if blocked == 0 || ingested+blocked != len(extracted) {
		t.Fatalf("%d stored + %d blocked of %d extracted visits", ingested, blocked, len(extracted))
	}
	// The pipeline's trace is the observer's reconstruction of real
	// browsing: spot-check one user's hostname sequence matches (modulo
	// tracker filtering).
	if p.Trace().Len() == 0 {
		t.Fatal("empty pipeline trace")
	}

	if err := p.Retrain(); err != nil {
		t.Fatal(err)
	}
	if p.Model() == nil {
		t.Fatal("model missing after retrain")
	}

	// Profile an active user at their last visit time.
	visits := tr.Visits()
	last := visits[len(visits)-1]
	prof, err := p.ProfileUser(last.User, last.Time)
	if err != nil {
		t.Fatalf("ProfileUser: %v", err)
	}
	if !prof.Valid() || len(prof) != ont.Taxonomy().NumCategories() {
		t.Fatal("invalid profile")
	}
}

func TestPipelineRequiresOntology(t *testing.T) {
	if _, err := NewPipeline(PipelineConfig{}); err == nil {
		t.Fatal("expected error without ontology")
	}
}

func TestPipelineRetrainOnDay(t *testing.T) {
	_, ont, tr, _ := buildWorld(t)
	p, err := NewPipeline(PipelineConfig{
		Ontology: ont,
		Train:    TrainConfig{Dim: 8, Epochs: 2, MinCount: 2, Seed: 3, Subsample: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range tr.Visits() {
		p.IngestVisit(v)
	}
	if err := p.RetrainOnDay(0); err != nil {
		t.Fatal(err)
	}
	if p.Model().Vocab().Len() == 0 {
		t.Fatal("empty vocab after day-0 training")
	}
	if err := p.RetrainOnDay(99); !errors.Is(err, ErrEmptyCorpus) {
		t.Fatalf("err = %v, want ErrEmptyCorpus", err)
	}
}

func TestFacadeConstructors(t *testing.T) {
	tax := NewTaxonomy()
	if tax.NumCategories() != 328 || tax.NumTops() != 34 {
		t.Fatal("taxonomy shape wrong")
	}
	ont := NewOntology(tax)
	v := tax.NewVector()
	v[0] = 1
	ont.Add("h.example", v)
	if !ont.Covered("h.example") {
		t.Fatal("ontology add/lookup broken")
	}
	bl := NewBlocklist()
	bl.Add("t.example")
	if !bl.Contains("t.example") {
		t.Fatal("blocklist broken")
	}
	db := NewAdDB(tax)
	db.Add("h.example", v, CreativeSize{W: 300, H: 250})
	sel, err := NewAdSelector(db, ont, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := sel.Select(v, 5)
	if len(got) != 1 || got[0].LandingHost != "h.example" {
		t.Fatalf("selected %v", got)
	}
}

func TestFacadeTrainAndPersist(t *testing.T) {
	corpus := [][]string{
		{"a.example", "b.example", "a.example", "b.example"},
		{"c.example", "d.example", "c.example", "d.example"},
	}
	m, err := Train(corpus, TrainConfig{Dim: 8, Epochs: 2, MinCount: 1, Seed: 1, Subsample: -1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Vocab().Len() != m.Vocab().Len() {
		t.Fatal("round trip lost vocab")
	}
}

func TestFacadeParsers(t *testing.T) {
	rng := stats.NewRNG(1)
	rec := sniffer.BuildClientHello("facade.example", rng)
	if got, err := ParseSNI(rec); err != nil || got != "facade.example" {
		t.Fatalf("ParseSNI: %q %v", got, err)
	}
	q, err := sniffer.BuildDNSQuery("dns.example", 5)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ParseDNSQueryName(q); err != nil || got != "dns.example" {
		t.Fatalf("ParseDNSQueryName: %q %v", got, err)
	}
	ini, err := sniffer.BuildQUICInitial("quic.example", rng)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ParseQUICInitialSNI(ini); err != nil || got != "quic.example" {
		t.Fatalf("ParseQUICInitialSNI: %q %v", got, err)
	}
}
