package ads

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"hostprof/internal/ontology"
	"hostprof/internal/stats"
	"hostprof/internal/synth"
)

// adsFixture builds a small labelled universe plus inventory.
type adsFixture struct {
	u   *synth.Universe
	ont *ontology.Ontology
	db  *DB
}

func newAdsFixture(t *testing.T) *adsFixture {
	t.Helper()
	u := synth.NewUniverse(synth.UniverseConfig{Sites: 150, Seed: 61})
	ont := synth.BuildOntology(u, synth.OntologyConfig{Coverage: 0.2, Seed: 63})
	db := BuildFromOntology(ont, BuildConfig{Seed: 65})
	if db.Len() == 0 {
		t.Fatal("empty inventory")
	}
	return &adsFixture{u: u, ont: ont, db: db}
}

func TestBuildFromOntology(t *testing.T) {
	fx := newAdsFixture(t)
	for _, ad := range fx.db.Ads() {
		if !fx.ont.Covered(ad.LandingHost) {
			t.Fatalf("ad %d lands on unlabelled host %q", ad.ID, ad.LandingHost)
		}
		if len(ad.TopLevel) != fx.u.Tax.NumTops() {
			t.Fatal("top-level vector wrong size")
		}
		if ad.Size.W == 0 || ad.Size.H == 0 {
			t.Fatal("ad without size")
		}
	}
	// byHost index is consistent.
	for _, host := range fx.ont.Hosts() {
		for _, id := range fx.db.ByHost(host) {
			if fx.db.Ad(id).LandingHost != host {
				t.Fatal("byHost index broken")
			}
		}
	}
}

func TestSelectorPicksTopicallyNearAds(t *testing.T) {
	fx := newAdsFixture(t)
	sel, err := NewSelector(fx.db, fx.ont, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Profile = exact category vector of one labelled host: its own
	// ads must rank first (distance 0).
	host := fx.ont.Hosts()[0]
	v, _ := fx.ont.Lookup(host)
	got := sel.Select(v, 5)
	if len(got) == 0 {
		t.Fatal("no ads selected")
	}
	if got[0].LandingHost != host {
		t.Fatalf("nearest ad lands on %q, want %q", got[0].LandingHost, host)
	}
}

func TestSelectorRespectsMaxAds(t *testing.T) {
	fx := newAdsFixture(t)
	sel, err := NewSelector(fx.db, fx.ont, 20)
	if err != nil {
		t.Fatal(err)
	}
	profile := fx.u.Tax.NewVector()
	got := sel.Select(profile, 7)
	if len(got) > 7 {
		t.Fatalf("selected %d ads, max 7", len(got))
	}
}

func TestSelectorDefaultK(t *testing.T) {
	fx := newAdsFixture(t)
	sel, err := NewSelector(fx.db, fx.ont, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sel.k != 20 {
		t.Fatalf("default K = %d, want 20 (paper Section 5.4)", sel.k)
	}
}

func TestSelectorErrorsWithoutInventory(t *testing.T) {
	tax := ontology.NewTaxonomy()
	ont := ontology.New(tax)
	db := NewDB(tax)
	if _, err := NewSelector(db, ont, 20); err == nil {
		t.Fatal("expected error for empty inventory")
	}
}

func TestSelectorDeterministicOrder(t *testing.T) {
	fx := newAdsFixture(t)
	sel, _ := NewSelector(fx.db, fx.ont, 20)
	p := fx.u.Tax.NewVector()
	p[3] = 0.5
	a := sel.Select(p, 10)
	b := sel.Select(p, 10)
	if len(a) != len(b) {
		t.Fatal("nondeterministic selection size")
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatal("nondeterministic selection order")
		}
	}
}

func TestSizeMatch(t *testing.T) {
	if !SizeMatch(CreativeSize{300, 250}, CreativeSize{300, 250}) {
		t.Fatal("identical sizes must match")
	}
	if !SizeMatch(CreativeSize{300, 250}, CreativeSize{320, 230}) {
		t.Fatal("within 20% must match")
	}
	if SizeMatch(CreativeSize{300, 250}, CreativeSize{728, 90}) {
		t.Fatal("leaderboard should not match a rectangle")
	}
}

func TestClickModelAffinityMonotone(t *testing.T) {
	m := NewClickModel(0, 0, 71)
	nTops := 34
	interested := synth.User{Interests: make([]float64, nTops)}
	interested.Interests[3] = 1
	indifferent := synth.User{Interests: make([]float64, nTops)}
	indifferent.Interests[7] = 1

	ad := Ad{TopLevel: make([]float64, nTops)}
	ad.TopLevel[3] = 1

	pHigh := m.Prob(interested, ad)
	pLow := m.Prob(indifferent, ad)
	if pHigh <= pLow {
		t.Fatalf("affinity did not raise click probability: %v vs %v", pHigh, pLow)
	}
	if pLow != m.Base {
		t.Fatalf("zero-affinity probability %v != base %v", pLow, m.Base)
	}
}

func TestClickModelCTRRegime(t *testing.T) {
	// Random users on random ads should land in the paper's observed
	// CTR band (0.07%..0.84%, Section 6.4 discussion).
	fx := newAdsFixture(t)
	pop := synth.NewPopulation(fx.u, synth.PopulationConfig{Users: 20, Seed: 73})
	m := NewClickModel(0, 0, 75)
	var ctr CTR
	for i := 0; i < 40000; i++ {
		u := pop.Users[i%len(pop.Users)]
		ad := fx.db.Ad(i % fx.db.Len())
		ctr.Observe(m.Click(u, ad))
	}
	pct := ctr.Percent()
	if pct < 0.01 || pct > 1.5 {
		t.Fatalf("baseline CTR = %.3f%%, out of plausible band", pct)
	}
}

func TestCTRAccumulator(t *testing.T) {
	var c CTR
	if c.Rate() != 0 {
		t.Fatal("empty CTR should be 0")
	}
	c.Observe(true)
	c.Observe(false)
	c.Observe(false)
	c.Observe(false)
	if math.Abs(c.Rate()-0.25) > 1e-12 {
		t.Fatalf("rate = %v", c.Rate())
	}
	if math.Abs(c.Percent()-25) > 1e-9 {
		t.Fatalf("percent = %v", c.Percent())
	}
}

func TestAdNetworkServesAllMixModes(t *testing.T) {
	fx := newAdsFixture(t)
	net := NewAdNetwork(fx.db, 77)
	pop := synth.NewPopulation(fx.u, synth.PopulationConfig{Users: 5, Seed: 79})
	for i := 0; i < 500; i++ {
		ad := net.Serve(pop.Users[i%5], i%fx.u.Tax.NumTops(), i%30)
		if ad.LandingHost == "" {
			t.Fatal("empty ad served")
		}
	}
}

func TestAdNetworkTargetingBeatsRandom(t *testing.T) {
	// A purely targeted network should achieve higher expected affinity
	// than random selection.
	fx := newAdsFixture(t)
	net := NewAdNetwork(fx.db, 81)
	net.Targeted, net.Contextual = 1, 0
	pop := synth.NewPopulation(fx.u, synth.PopulationConfig{Users: 10, Seed: 83})

	var targeted, random float64
	const n = 3000
	for i := 0; i < n; i++ {
		u := pop.Users[i%len(pop.Users)]
		ad := net.Serve(u, 0, 0)
		targeted += u.AffinityTo(ad.TopLevel)
		rad := fx.db.Ad(i % fx.db.Len())
		random += u.AffinityTo(rad.TopLevel)
	}
	if targeted <= random {
		t.Fatalf("targeted affinity %.4f <= random %.4f", targeted/n, random/n)
	}
}

func TestAdNetworkCampaignsRotateDaily(t *testing.T) {
	fx := newAdsFixture(t)
	net := NewAdNetwork(fx.db, 85)
	net.Targeted, net.Contextual = 0, 0 // campaigns only
	u := synth.User{Interests: make([]float64, fx.u.Tax.NumTops())}
	day0 := make(map[int]bool)
	day9 := make(map[int]bool)
	for i := 0; i < 200; i++ {
		day0[net.Serve(u, 0, 0).ID] = true
		day9[net.Serve(u, 0, 9).ID] = true
	}
	if len(day0) > 5 || len(day9) > 5 {
		t.Fatalf("campaign pools too large: %d, %d", len(day0), len(day9))
	}
	same := 0
	for id := range day0 {
		if day9[id] {
			same++
		}
	}
	if same == len(day0) && same == len(day9) {
		t.Fatal("campaigns identical across days")
	}
}

// --- Selector kernel: reference, equivalence, contracts -----------------

// referenceSelector is the dense implementation the CSR kernel replaced —
// a stats.Euclidean against every label row and a full sort by
// (distance, host name) — kept as the oracle Select must match exactly.
type referenceSelector struct {
	db    *DB
	hosts []string
	vecs  []ontology.Vector
	k     int
}

func newReferenceSelector(db *DB, ont *ontology.Ontology, k int) *referenceSelector {
	ref := &referenceSelector{db: db, k: k}
	for _, host := range ont.Hosts() {
		if len(db.ByHost(host)) == 0 {
			continue
		}
		v, _ := ont.Lookup(host)
		ref.hosts = append(ref.hosts, host)
		ref.vecs = append(ref.vecs, v)
	}
	return ref
}

func (ref *referenceSelector) selectReference(profile ontology.Vector, maxAds int) []Ad {
	type hd struct {
		idx  int
		dist float64
	}
	ds := make([]hd, len(ref.hosts))
	for i, v := range ref.vecs {
		ds[i] = hd{idx: i, dist: stats.Euclidean(profile, v)}
	}
	sort.Slice(ds, func(a, b int) bool {
		if ds[a].dist != ds[b].dist {
			return ds[a].dist < ds[b].dist
		}
		return ref.hosts[ds[a].idx] < ref.hosts[ds[b].idx]
	})
	k := ref.k
	if k > len(ds) {
		k = len(ds)
	}
	var out []Ad
	for _, d := range ds[:k] {
		for _, id := range ref.db.ByHost(ref.hosts[d.idx]) {
			if len(out) >= maxAds {
				return out
			}
			out = append(out, ref.db.Ad(id))
		}
	}
	return out
}

// selectorWorld is a labelled universe with inventory, the selector
// under test and its oracle.
type selectorWorld struct {
	tax *ontology.Taxonomy
	sel *Selector
	ref *referenceSelector
}

// benchWorld builds the world at the size bench/ runs (3000 sites, 200
// trackers, 10.6% coverage: ≈1.1K label rows with inventory). noise < 0
// disables label jitter, so hosts of one site share identical rows.
func benchWorld(tb testing.TB, seed uint64, noise float64) *selectorWorld {
	tb.Helper()
	u := synth.NewUniverse(synth.UniverseConfig{Sites: 3000, Trackers: 200, Seed: seed})
	ont := synth.BuildOntology(u, synth.OntologyConfig{Coverage: 0.106, Noise: noise, Seed: seed + 1})
	return newSelectorWorld(tb, ont, 20)
}

func newSelectorWorld(tb testing.TB, ont *ontology.Ontology, k int) *selectorWorld {
	tb.Helper()
	db := BuildFromOntology(ont, BuildConfig{Seed: 1})
	sel, err := NewSelector(db, ont, k)
	if err != nil {
		tb.Fatal(err)
	}
	return &selectorWorld{tax: ont.Taxonomy(), sel: sel, ref: newReferenceSelector(db, ont, sel.k)}
}

// eq4Profile draws a profile shaped like Eq. 4's output: the weighted
// average of the label rows of a few session hosts (α = 1) and of up to
// 30 neighbours (α = a positive cosine), clamped.
func (w *selectorWorld) eq4Profile(rng *stats.RNG) ontology.Vector {
	out := w.tax.NewVector()
	var denom float64
	add := func(alpha float64) {
		for i, v := range w.ref.vecs[rng.Intn(len(w.ref.vecs))] {
			out[i] += alpha * v
		}
		denom += alpha
	}
	for i := rng.Intn(4); i > 0; i-- {
		add(1)
	}
	for i := 1 + rng.Intn(30); i > 0; i-- {
		add(1 - rng.Float64())
	}
	stats.Scale(1/denom, out)
	out.Clamp()
	return out
}

func adIDs(list []Ad) []int {
	ids := make([]int, len(list))
	for i, ad := range list {
		ids[i] = ad.ID
	}
	return ids
}

func (w *selectorWorld) requireSame(t *testing.T, what string, profile ontology.Vector, maxAds int) {
	t.Helper()
	got, want := adIDs(w.sel.Select(profile, maxAds)), adIDs(w.ref.selectReference(profile, maxAds))
	if !slices.Equal(got, want) {
		t.Fatalf("%s (maxAds %d):\n got %v\nwant %v", what, maxAds, got, want)
	}
}

// permutedWorld labels hosts with the same few weights on different
// categories, as real ontologies do (one category at weight 1). Rows
// disjoint from the profile are then equidistant in exact arithmetic;
// the dense scan separates them by summation-order rounding alone, which
// the expanded form ‖p‖² + ‖v‖² − 2·p·v does not reproduce — the case
// that makes Select rescore its candidates.
func permutedWorld(tb testing.TB, seed uint64) *selectorWorld {
	tax := ontology.NewTaxonomy()
	ont := ontology.New(tax)
	rng := stats.NewRNG(seed)
	for i := 0; i < 300; i++ {
		v := tax.NewVector()
		for _, x := range []float64{0.7, 0.55, 0.3, 0.15, 0.1} {
			v[rng.Intn(len(v))] = x
		}
		ont.Add(fmt.Sprintf("h%03d.example", i), v)
	}
	return newSelectorWorld(tb, ont, 20)
}

// TestSelectMatchesReference is the equivalence harness: on every seeded
// profile the CSR kernel must return the reference's ad-ID list, order
// included. The jitter-free worlds make support hosts share rows, so the
// host-name tie-break decides who sits on the K-th boundary.
func TestSelectMatchesReference(t *testing.T) {
	profiles := 0
	check := func(name string, w *selectorWorld, seed uint64, ownAdsFirst bool) {
		rng := stats.NewRNG(seed ^ 0x5e1ec7)
		for i := 0; i < 500; i++ {
			w.requireSame(t, fmt.Sprintf("%s mixture %d", name, i), w.eq4Profile(rng), 20)
			profiles++
		}
		for i := 0; i < 60; i++ {
			oneHot := w.tax.NewVector()
			oneHot[rng.Intn(len(oneHot))] = 1 - rng.Float64()
			w.requireSame(t, name+" one-hot", oneHot, 1+rng.Intn(60))
			profiles++
		}
		w.requireSame(t, name+" all-zero", w.tax.NewVector(), 20)
		for i := 0; i < 40; i++ {
			r := rng.Intn(len(w.ref.vecs))
			what := fmt.Sprintf("%s label row of %s", name, w.ref.hosts[r])
			w.requireSame(t, what, w.ref.vecs[r], 1000)
			if got := w.sel.Select(w.ref.vecs[r], 1); ownAdsFirst && got[0].LandingHost != w.ref.hosts[r] {
				t.Fatalf("%s: first ad lands on %s", what, got[0].LandingHost)
			}
			profiles++
		}
	}
	for _, seed := range []uint64{101, 202, 303} {
		check(fmt.Sprintf("seed %d jittered", seed), benchWorld(t, seed, 0), seed, true)
	}
	// Without jitter several hosts share a row, so a host's own ads come
	// first only if its name sorts first among its twins.
	for _, seed := range []uint64{101, 202} {
		check(fmt.Sprintf("seed %d exact-tie", seed), benchWorld(t, seed, -1), seed, false)
	}
	check("permuted", permutedWorld(t, 5), 5, false)
	if profiles < 2000 {
		t.Fatalf("harness covered %d profiles, want >= 2000", profiles)
	}
}

// TestSelectorDistanceIsEuclidean pins the property the exact ranking
// rests on: the sparse rescoring reproduces stats.Euclidean bit for bit.
func TestSelectorDistanceIsEuclidean(t *testing.T) {
	w := benchWorld(t, 404, 0)
	rng := stats.NewRNG(405)
	for i := 0; i < 50; i++ {
		p := w.eq4Profile(rng)
		var nz []int32
		for c, x := range p {
			if x != 0 {
				nz = append(nz, int32(c))
			}
		}
		for r, v := range w.ref.vecs {
			got, want := w.sel.distance(p, nz, int32(r)), stats.Euclidean(p, v)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("row %d: distance %v, Euclidean %v", r, got, want)
			}
		}
	}
}

func TestSelectEdgeContracts(t *testing.T) {
	fx := newAdsFixture(t)
	w := newSelectorWorld(t, fx.ont, 1000) // k > rows: every host is a neighbour
	first := fx.ont.Hosts()[0]
	own, _ := fx.ont.Lookup(first)
	inventory := len(w.ref.db.ByHost(first))
	all := len(w.ref.db.Ads())
	for _, tc := range []struct {
		name    string
		profile ontology.Vector
		maxAds  int
		want    int
	}{
		{"maxAds zero", own, 0, 0},
		{"maxAds negative", own, -3, 0},
		{"nil profile", nil, 20, 0},
		{"empty profile", ontology.Vector{}, 20, 0},
		{"short profile", own[:len(own)-1], 20, 0},
		{"long profile", append(own.Clone(), 0), 20, 0},
		{"k beyond rows serves every host", own, math.MaxInt, all},
		{"maxAds one", own, 1, 1},
		{"maxAds below first host's inventory", own, inventory - 1, inventory - 1},
		{"maxAds at first host's inventory", own, inventory, inventory},
	} {
		got := w.sel.Select(tc.profile, tc.maxAds)
		if len(got) != tc.want {
			t.Errorf("%s: %d ads, want %d", tc.name, len(got), tc.want)
			continue
		}
		for i, ad := range got {
			if i < inventory && ad.LandingHost != first {
				t.Errorf("%s: ad %d lands on %s, want %s first", tc.name, i, ad.LandingHost, first)
			}
		}
		if tc.want > 0 {
			w.requireSame(t, tc.name, tc.profile, tc.maxAds)
		}
	}
}

func TestNewSelectorRejectsMisSizedLabel(t *testing.T) {
	tax := ontology.NewTaxonomy()
	ont := ontology.New(tax)
	ont.Add("short.example", make(ontology.Vector, 3))
	db := NewDB(tax)
	db.Add("short.example", tax.NewVector(), standardSizes[0])
	if _, err := NewSelector(db, ont, 20); err == nil {
		t.Fatal("expected error for a label shorter than the taxonomy")
	}
}

func TestSelectAllocatesOnlyResult(t *testing.T) {
	w := benchWorld(t, 505, 0)
	p := w.eq4Profile(stats.NewRNG(506))
	if n := testing.AllocsPerRun(200, func() { w.sel.Select(p, 20) }); n > 1 {
		t.Fatalf("Select allocates %v times per call, want <= 1", n)
	}
}

// TestSelectConcurrent is the immutability contract that lets the server
// call Select without a lock: goroutines sharing one Selector get the
// serial answers (run under -race).
func TestSelectConcurrent(t *testing.T) {
	w := benchWorld(t, 606, -1)
	rng := stats.NewRNG(607)
	profiles := make([]ontology.Vector, 64)
	want := make([][]int, len(profiles))
	for i := range profiles {
		profiles[i] = w.eq4Profile(rng)
		want[i] = adIDs(w.sel.Select(profiles[i], 20))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 4*len(profiles); n++ {
				i := (n + g*7) % len(profiles)
				if got := adIDs(w.sel.Select(profiles[i], 20)); !slices.Equal(got, want[i]) {
					t.Errorf("goroutine %d profile %d: got %v want %v", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

var selectSink []Ad

// BenchmarkSelect measures one report's ad selection on Eq. 4-shaped
// profiles at the bench world's label count and at the paper's
// (470K hostnames x 10.6% coverage ≈ 50K labelled hosts).
func BenchmarkSelect(b *testing.B) {
	base := benchWorld(b, 707, 0)
	for _, rows := range []int{len(base.ref.vecs), 50000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			w := base
			if rows != len(base.ref.vecs) {
				// Paper scale: resample the bench world's rows, re-jittered,
				// under fresh host names.
				rng := stats.NewRNG(708)
				ont := ontology.New(base.tax)
				for i := 0; i < rows; i++ {
					v := base.ref.vecs[rng.Intn(len(base.ref.vecs))].Clone()
					for c, x := range v {
						if x > 0 {
							v[c] = x + 0.05*(rng.Float64()-0.5)
						}
					}
					ont.Add(fmt.Sprintf("h%05d.example", i), v)
				}
				w = newSelectorWorld(b, ont, 20)
			}
			rng := stats.NewRNG(709)
			profiles := make([]ontology.Vector, 256)
			for i := range profiles {
				profiles[i] = w.eq4Profile(rng)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				selectSink = w.sel.Select(profiles[i%len(profiles)], 20)
			}
		})
	}
}
