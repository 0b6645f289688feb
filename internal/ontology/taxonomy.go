// Package ontology models the categorization service the paper relies on
// (Google Adwords' Display Planner): a two-level topic taxonomy, per-host
// category-weight vectors, and the tracker blocklists used to filter
// advertising hostnames out of browsing sequences (paper Section 5.4).
//
// The paper cut the Adwords hierarchy at its second level, obtaining 328
// categories under 34 top-level topics; only 10.6% of observed hostnames
// were covered. This package reproduces exactly that shape.
package ontology

import (
	"fmt"
)

// topSpec pins a top-level topic name to its number of second-level
// categories and a few curated subcategory names (the remainder are
// generated). The names mirror the topics visible in Figure 6 of the
// paper; the counts sum to 328 across 34 topics, matching the paper's
// second-level cut.
type topSpec struct {
	name  string
	count int
	seeds []string
}

var topSpecs = []topSpec{
	{"Online Communities", 8, []string{"Social Networks", "Forums & Chats", "Dating", "Photo & Video Sharing"}},
	{"Arts & Entertainment", 24, []string{"Music & Audio", "Movies", "TV Shows", "Celebrities", "Comics & Animation", "Performing Arts"}},
	{"People & Society", 12, []string{"Religion & Belief", "Family & Relationships", "Social Issues"}},
	{"Jobs & Education", 8, []string{"Job Listings", "Universities", "Training & Certification"}},
	{"Games", 16, []string{"Video Games", "Online Games", "Board Games", "Gambling"}},
	{"Internet & Telecom", 2, []string{"Service Providers", "Web Services"}},
	{"Computers & Electronics", 26, []string{"Software", "Hardware", "Consumer Electronics", "Programming", "Networking", "Mobile Phones"}},
	{"Shopping", 20, []string{"Apparel", "Consumer Resources", "Auctions", "Coupons & Discounts"}},
	{"News", 8, []string{"World News", "Local News", "Politics", "Weather"}},
	{"Business & Industrial", 24, []string{"Advertising & Marketing", "Manufacturing", "Logistics", "Small Business"}},
	{"Reference", 6, []string{"Dictionaries & Encyclopedias", "Maps", "How-To"}},
	{"Books & Literature", 8, []string{"E-Books", "Poetry", "Fan Fiction"}},
	{"Sports", 24, []string{"Soccer", "Basketball", "Tennis", "Motor Sports", "Winter Sports", "Live Scores"}},
	{"Travel", 16, []string{"Air Travel", "Hotels & Accommodations", "Cruises & Charters", "Car Rental", "Tourist Destinations"}},
	{"Finance", 10, []string{"Banking", "Investing", "Insurance", "Credit & Lending"}},
	{"Health", 18, []string{"Medical Facilities", "Nutrition", "Mental Health", "Pharmacy"}},
	{"Real Estate", 4, []string{"Listings", "Property Management"}},
	{"Beauty & Fitness", 8, []string{"Cosmetics", "Fitness", "Hair Care"}},
	{"Autos & Vehicles", 10, []string{"Car Makes", "Motorcycles", "Vehicle Parts"}},
	{"Science", 8, []string{"Physics", "Biology", "Astronomy"}},
	{"Hobbies & Leisure", 14, []string{"Outdoors", "Crafts", "Photography", "Collecting"}},
	{"Food & Drink", 10, []string{"Recipes", "Restaurants", "Beverages"}},
	{"Law & Government", 8, []string{"Public Services", "Legal", "Military"}},
	{"Pets & Animals", 6, []string{"Dogs", "Cats", "Wildlife"}},
	{"Home & Garden", 10, []string{"Home Improvement", "Gardening", "Furniture"}},
	{"Sororities & Student Societies", 2, nil},
	{"Crime & Mystery Films", 2, nil},
	{"Awards & Prizes", 2, nil},
	{"Reviews & Comparisons", 3, nil},
	{"DIY & Expert Content", 2, nil},
	{"Jellies & Preserves", 2, nil},
	{"Cooktops & Ovens", 2, nil},
	{"Clubs & Nightlife", 3, nil},
	{"Scholarships & Financial Aid", 2, nil},
}

// NumTopLevel is the number of top-level topics (paper Section 6.3: 34).
const NumTopLevel = 34

// NumCategories is the number of second-level categories used for
// profiling (paper Section 5.4: 328, the set C of Section 4.1).
const NumCategories = 328

// Category is one second-level node of the taxonomy.
type Category struct {
	ID   int    // dense index in [0, NumCategories)
	Top  int    // index of the parent top-level topic in [0, NumTopLevel)
	Name string // full name "Top / Sub"
}

// Taxonomy is the two-level category hierarchy.
type Taxonomy struct {
	tops   []string
	cats   []Category
	byName map[string]int
	subs   [][]int // per top-level topic, IDs of its categories
}

// NewTaxonomy constructs the default 34/328 taxonomy. It is deterministic:
// two calls always yield identical IDs and names.
func NewTaxonomy() *Taxonomy {
	t := &Taxonomy{
		byName: make(map[string]int),
	}
	for ti, spec := range topSpecs {
		t.tops = append(t.tops, spec.name)
		ids := make([]int, 0, spec.count)
		for i := 0; i < spec.count; i++ {
			var sub string
			if i < len(spec.seeds) {
				sub = spec.seeds[i]
			} else {
				sub = fmt.Sprintf("Segment %d", i-len(spec.seeds)+1)
			}
			c := Category{
				ID:   len(t.cats),
				Top:  ti,
				Name: spec.name + " / " + sub,
			}
			t.byName[c.Name] = c.ID
			t.cats = append(t.cats, c)
			ids = append(ids, c.ID)
		}
		t.subs = append(t.subs, ids)
	}
	return t
}

// NumCategories returns the number of second-level categories.
func (t *Taxonomy) NumCategories() int { return len(t.cats) }

// NumTops returns the number of top-level topics.
func (t *Taxonomy) NumTops() int { return len(t.tops) }

// Category returns the category with the given dense ID.
func (t *Taxonomy) Category(id int) Category { return t.cats[id] }

// TopName returns the name of top-level topic ti.
func (t *Taxonomy) TopName(ti int) string { return t.tops[ti] }

// TopOf returns the top-level topic index of category id.
func (t *Taxonomy) TopOf(id int) int { return t.cats[id].Top }

// SubsOf returns the category IDs under top-level topic ti. The returned
// slice must not be modified.
func (t *Taxonomy) SubsOf(ti int) []int { return t.subs[ti] }

// IDByName returns the dense ID for a full category name.
func (t *Taxonomy) IDByName(name string) (int, bool) {
	id, ok := t.byName[name]
	return id, ok
}

// TopNames returns a copy of all top-level topic names in ID order.
func (t *Taxonomy) TopNames() []string {
	return append([]string(nil), t.tops...)
}

// Vector is a per-host category-weight vector c^h: one entry per
// second-level category, each in [0, 1]. As in the paper (footnote 2),
// it is not a probability distribution and does not sum to 1.
type Vector []float64

// NewVector returns a zero vector sized for taxonomy t.
func (t *Taxonomy) NewVector() Vector { return make(Vector, t.NumCategories()) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector { return append(Vector(nil), v...) }

// Clamp forces every entry into [0, 1] in place.
func (v Vector) Clamp() {
	for i, x := range v {
		if x < 0 {
			v[i] = 0
		} else if x > 1 {
			v[i] = 1
		}
	}
}

// Valid reports whether every component lies in [0, 1].
func (v Vector) Valid() bool {
	for _, x := range v {
		if x < 0 || x > 1 {
			return false
		}
	}
	return true
}

// TopLevel folds v into a per-top-level-topic vector by taking, for each
// topic, the maximum weight among its second-level categories. Figure 6 of
// the paper reports top-level topics only.
func (v Vector) TopLevel(t *Taxonomy) []float64 {
	out := make([]float64, t.NumTops())
	for id, x := range v {
		ti := t.TopOf(id)
		if x > out[ti] {
			out[ti] = x
		}
	}
	return out
}
