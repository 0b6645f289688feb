// Package ads models the advertising side of the paper's experiment: the
// database of creatives collected during the data-collection phase
// (~12K ads after filtering), the eavesdropper's relevant-ad selection
// (20 nearest labelled hosts by Euclidean distance, Section 5.4), the
// ad-network comparator serving a realistic mix of targeted, contextual
// and premium ads, and the click model that turns profile quality into
// click-through rate.
package ads

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"hostprof/internal/ontology"
	"hostprof/internal/stats"
	"hostprof/internal/synth"
)

// CreativeSize is a standard IAB display size; the extension replaced an
// ad only when a similarly sized creative was available (Section 5.3).
type CreativeSize struct {
	W, H int
}

// Standard sizes used by the generator.
var standardSizes = []CreativeSize{
	{300, 250}, {728, 90}, {160, 600}, {320, 50}, {300, 600}, {970, 250},
}

// Ad is one creative with its landing page and topical ground truth.
type Ad struct {
	ID int
	// LandingHost is the hostname of the landing page; its ontology
	// vector is the ad's categorization.
	LandingHost string
	// Categories is the second-level category vector of the landing
	// page.
	Categories ontology.Vector
	// TopLevel caches Categories folded to top-level topics, for the
	// click model and Figure 6 histograms.
	TopLevel []float64
	// Size is the creative size.
	Size CreativeSize
}

// DB is the ad inventory, indexed by landing host.
type DB struct {
	tax    *ontology.Taxonomy
	ads    []Ad
	byHost map[string][]int
}

// NewDB returns an empty inventory over tax.
func NewDB(tax *ontology.Taxonomy) *DB {
	return &DB{tax: tax, byHost: make(map[string][]int)}
}

// Add inserts an ad, assigning its ID, folding its top-level vector.
func (db *DB) Add(landingHost string, cats ontology.Vector, size CreativeSize) Ad {
	ad := Ad{
		ID:          len(db.ads),
		LandingHost: landingHost,
		Categories:  cats,
		TopLevel:    cats.TopLevel(db.tax),
		Size:        size,
	}
	db.ads = append(db.ads, ad)
	db.byHost[landingHost] = append(db.byHost[landingHost], ad.ID)
	return ad
}

// Len returns the number of ads.
func (db *DB) Len() int { return len(db.ads) }

// Ad returns the ad with the given ID.
func (db *DB) Ad(id int) Ad { return db.ads[id] }

// Ads returns the full inventory; callers must not modify it.
func (db *DB) Ads() []Ad { return db.ads }

// ByHost returns the IDs of ads landing on host.
func (db *DB) ByHost(host string) []int { return db.byHost[host] }

// BuildConfig sizes inventory generation.
type BuildConfig struct {
	// AdsPerHost bounds how many creatives each labelled host
	// contributes (1..AdsPerHost). Default 3.
	AdsPerHost int
	// Seed drives size/count randomness.
	Seed uint64
}

// BuildFromOntology populates an inventory with ads landing on the
// ontology's labelled hosts — mirroring the paper, where ads collected
// during the observation phase were categorized via their landing pages.
func BuildFromOntology(ont *ontology.Ontology, cfg BuildConfig) *DB {
	if cfg.AdsPerHost <= 0 {
		cfg.AdsPerHost = 3
	}
	rng := stats.NewRNG(cfg.Seed ^ 0xad5)
	db := NewDB(ont.Taxonomy())
	for _, host := range ont.Hosts() {
		v, _ := ont.Lookup(host)
		n := 1 + rng.Intn(cfg.AdsPerHost)
		for i := 0; i < n; i++ {
			size := standardSizes[rng.Intn(len(standardSizes))]
			db.Add(host, v, size)
		}
	}
	return db
}

// Selector implements the paper's relevant-ad selection (Section 5.4):
// rank the labelled hosts H_L by Euclidean distance between their
// category vector and the session profile, take the K nearest (K = 20),
// and serve ads landing on those hosts.
//
// A Selector is an immutable snapshot of the ontology rows and inventory
// taken by NewSelector — ads added to the DB afterwards are not served —
// and is therefore safe for concurrent use without locking.
type Selector struct {
	k   int
	dim int // taxonomy size; the only profile length Select accepts

	// labels is the ontology's shared CSR label matrix (label rows are
	// well under 1% dense, so a distance costs a handful of multiplies
	// instead of one per category). Selector row r — the r-th labelled
	// host with inventory, in host-name order — is matrix row rows[r],
	// and norm2[r] is ‖v_r‖².
	labels   *ontology.LabelMatrix
	rows     []int32
	norm2    []float64
	maxNorm2 float64

	// Row r's inventory, resolved up front so Select touches no map:
	// ads[adPtr[r]:adPtr[r+1]].
	adPtr []int32
	ads   []Ad
}

// NewSelector indexes the inventory's landing hosts. k <= 0 selects the
// paper default of 20.
func NewSelector(db *DB, ont *ontology.Ontology, k int) (*Selector, error) {
	if k <= 0 {
		k = 20
	}
	m := ont.LabelMatrix()
	s := &Selector{k: k, dim: ont.Taxonomy().NumCategories(), labels: m, adPtr: []int32{0}}
	for r := 0; r < m.Rows(); r++ {
		host := m.Host(r)
		ids := db.ByHost(host)
		if len(ids) == 0 {
			continue
		}
		if v, _ := ont.Lookup(host); len(v) != s.dim {
			return nil, fmt.Errorf("ads: label of %q has %d categories, taxonomy has %d", host, len(v), s.dim)
		}
		var n2 float64
		_, vals := m.Row(int32(r))
		for _, x := range vals {
			n2 += x * x
		}
		s.rows = append(s.rows, int32(r))
		s.norm2 = append(s.norm2, n2)
		if n2 > s.maxNorm2 {
			s.maxNorm2 = n2
		}
		for _, id := range ids {
			s.ads = append(s.ads, db.Ad(id))
		}
		s.adPtr = append(s.adPtr, int32(len(s.ads)))
	}
	if len(s.norm2) == 0 {
		return nil, fmt.Errorf("ads: no labelled hosts with inventory")
	}
	return s, nil
}

// cand is a candidate row keyed by distance: the expanded-form squared
// distance while scanning, the exact distance once rescored.
type cand struct {
	dist float64
	row  int32
}

// insertSorted places c into the ascending slice a, whose last slot is
// free; c goes after entries of equal distance.
func insertSorted(a []cand, c cand) {
	i := len(a) - 1
	for i > 0 && a[i-1].dist > c.dist {
		a[i] = a[i-1]
		i--
	}
	a[i] = c
}

// Select returns up to maxAds ads for the given session profile, drawn
// from the K labelled hosts nearest in category space: hosts in
// (distance, host name) order, each contributing its inventory in ad-ID
// order. The paper sends 20 eavesdropper ads per report. It returns no
// ads when maxAds <= 0 or when len(profile) is not the taxonomy size.
// Scratch lives on the stack, so at the paper's K the only allocation is
// the returned slice.
func (s *Selector) Select(profile ontology.Vector, maxAds int) []Ad {
	if maxAds <= 0 || len(profile) != s.dim {
		return nil
	}
	// The profile's non-zero categories: Eq. 4 mixes a few dozen sparse
	// label rows, so a profile is sparse too. (The array holds any
	// profile over the 328-category taxonomy.)
	var nzStack [512]int32
	nz := nzStack[:0]
	var pn float64
	for i, x := range profile {
		if x != 0 {
			nz = append(nz, int32(i))
			pn += x * x
		}
	}
	// Every row is ranked by ‖p‖² + ‖v‖² − 2·p·v over its non-zeros
	// only. That value and the textbook Σ(p−v)² differ by rounding
	// (≈1e-13 relative at 328 categories), so it only nominates
	// candidates: the K best plus any row within tol of the K-th, which
	// provably include the K nearest by the textbook value.
	tol := 1e-9 * (pn + s.maxNorm2)
	k := s.k
	if rows := len(s.norm2); k > rows {
		k = rows
	}
	// cands[:k] is the running top-K, ascending; cands[k:] collects the
	// near-ties of the K-th. The stack array covers the paper's K = 20
	// with room for ties; a larger K or tie group spills to the heap.
	var candStack [64]cand
	cands := candStack[:0]
	limit := math.Inf(1) // K-th best so far plus tol, once K rows are in
	for r, mr := range s.rows {
		var dot float64
		cols, vals := s.labels.Row(mr)
		for j, col := range cols {
			dot += profile[col] * vals[j]
		}
		c := cand{dist: pn + s.norm2[r] - 2*dot, row: int32(r)}
		if c.dist > limit {
			continue
		}
		if len(cands) < k {
			cands = append(cands, c)
			insertSorted(cands, c)
			if len(cands) == k {
				limit = cands[k-1].dist + tol
			}
			continue
		}
		kth := cands[k-1]
		if c.dist >= kth.dist { // rows come in index order: a tie sorts after
			cands = append(cands, c)
			continue
		}
		insertSorted(cands[:k], c)
		limit = cands[k-1].dist + tol
		if kth.dist <= limit {
			cands = append(cands, kth)
		}
	}
	// Near-ties recorded against an earlier, larger K-th may be stale.
	n := k
	for _, c := range cands[k:] {
		if c.dist <= limit {
			cands[n] = c
			n++
		}
	}
	cands = cands[:n]
	// Rescore the candidates with the textbook distance and order them
	// by it, ties by row — rows are in host-name order — so the result
	// is exactly the (distance asc, host asc) ranking of a dense scan.
	for i := range cands {
		cands[i].dist = s.distance(profile, nz, cands[i].row)
	}
	slices.SortFunc(cands, func(a, b cand) int {
		if c := cmp.Compare(a.dist, b.dist); c != 0 {
			return c
		}
		return cmp.Compare(a.row, b.row)
	})
	cands = cands[:k]

	total := 0
	for _, c := range cands {
		total += int(s.adPtr[c.row+1] - s.adPtr[c.row])
	}
	if total > maxAds {
		total = maxAds
	}
	out := make([]Ad, 0, total)
	for _, c := range cands {
		inv := s.ads[s.adPtr[c.row]:s.adPtr[c.row+1]]
		if room := total - len(out); len(inv) > room {
			inv = inv[:room]
		}
		out = append(out, inv...)
	}
	return out
}

// distance returns the Euclidean distance between profile, whose non-zero
// categories are nz, and label row r — bit-identical to stats.Euclidean on
// the dense row: the same terms in the same order, less the categories
// where both are zero, whose terms add exactly nothing.
func (s *Selector) distance(profile ontology.Vector, nz []int32, r int32) float64 {
	cols, vals := s.labels.Row(s.rows[r])
	j, end := 0, len(cols)
	var sum float64
	for _, c := range nz {
		for ; j < end && cols[j] < c; j++ {
			sum += vals[j] * vals[j]
		}
		d := profile[c]
		if j < end && cols[j] == c {
			d -= vals[j]
			j++
		}
		sum += d * d
	}
	for ; j < end; j++ {
		sum += vals[j] * vals[j]
	}
	return math.Sqrt(sum)
}

// SizeMatch reports whether a replacement creative fits the slot of the
// original (Section 5.3: replace only when sizes are similar). Sizes
// match when both dimensions are within 20%.
func SizeMatch(slot, candidate CreativeSize) bool {
	within := func(a, b int) bool {
		d := a - b
		if d < 0 {
			d = -d
		}
		return float64(d) <= 0.2*float64(a)
	}
	return within(slot.W, candidate.W) && within(slot.H, candidate.H)
}

// ClickModel converts user-ad affinity into click probability. The
// parameters are calibrated so that overall CTR lands in the paper's
// observed regime (≈0.1–0.3%).
type ClickModel struct {
	// Base is the click probability at zero affinity. Default 0.0004.
	Base float64
	// Lift scales the affinity contribution. Default 0.02.
	Lift float64
	rng  *stats.RNG
}

// NewClickModel returns a model with the given parameters; zero values
// select defaults.
func NewClickModel(base, lift float64, seed uint64) *ClickModel {
	if base <= 0 {
		base = 0.0004
	}
	if lift <= 0 {
		lift = 0.02
	}
	return &ClickModel{Base: base, Lift: lift, rng: stats.NewRNG(seed ^ 0xc11c4)}
}

// Prob returns the click probability of user u on ad.
func (m *ClickModel) Prob(u synth.User, ad Ad) float64 {
	p := m.Base + m.Lift*u.AffinityTo(ad.TopLevel)
	if p > 1 {
		p = 1
	}
	return p
}

// Click simulates one impression, returning whether it was clicked.
func (m *ClickModel) Click(u synth.User, ad Ad) bool {
	return m.rng.Float64() < m.Prob(u, ad)
}

// CTR is a click-through-rate accumulator.
type CTR struct {
	Impressions int64
	Clicks      int64
}

// Observe records one impression.
func (c *CTR) Observe(clicked bool) {
	c.Impressions++
	if clicked {
		c.Clicks++
	}
}

// Rate returns clicks/impressions (0 when empty).
func (c *CTR) Rate() float64 {
	if c.Impressions == 0 {
		return 0
	}
	return float64(c.Clicks) / float64(c.Impressions)
}

// Percent returns the rate as a percentage, the unit the paper reports.
func (c *CTR) Percent() float64 { return 100 * c.Rate() }
