package ontology

import (
	"testing"
	"testing/quick"
)

func TestTaxonomyShapeMatchesPaper(t *testing.T) {
	tax := NewTaxonomy()
	if got := tax.NumTops(); got != NumTopLevel {
		t.Fatalf("top-level topics = %d, want %d", got, NumTopLevel)
	}
	if got := tax.NumCategories(); got != NumCategories {
		t.Fatalf("second-level categories = %d, want %d", got, NumCategories)
	}
}

func TestTaxonomyDeterministic(t *testing.T) {
	a := NewTaxonomy()
	b := NewTaxonomy()
	for i := 0; i < a.NumCategories(); i++ {
		if a.Category(i) != b.Category(i) {
			t.Fatalf("category %d differs between constructions", i)
		}
	}
}

func TestTaxonomyIDsAreDense(t *testing.T) {
	tax := NewTaxonomy()
	for i := 0; i < tax.NumCategories(); i++ {
		c := tax.Category(i)
		if c.ID != i {
			t.Fatalf("category at %d has ID %d", i, c.ID)
		}
		if c.Top < 0 || c.Top >= tax.NumTops() {
			t.Fatalf("category %d has invalid top %d", i, c.Top)
		}
	}
}

func TestTaxonomyNamesUnique(t *testing.T) {
	tax := NewTaxonomy()
	seen := make(map[string]bool)
	for i := 0; i < tax.NumCategories(); i++ {
		n := tax.Category(i).Name
		if seen[n] {
			t.Fatalf("duplicate category name %q", n)
		}
		seen[n] = true
		id, ok := tax.IDByName(n)
		if !ok || id != i {
			t.Fatalf("IDByName(%q) = %d,%v", n, id, ok)
		}
	}
}

func TestSubsOfPartition(t *testing.T) {
	tax := NewTaxonomy()
	total := 0
	for ti := 0; ti < tax.NumTops(); ti++ {
		for _, id := range tax.SubsOf(ti) {
			if tax.TopOf(id) != ti {
				t.Fatalf("category %d listed under wrong top %d", id, ti)
			}
			total++
		}
	}
	if total != tax.NumCategories() {
		t.Fatalf("SubsOf covers %d categories, want %d", total, tax.NumCategories())
	}
}

func TestTelecomHasTwoSubcategories(t *testing.T) {
	// Paper Section 5.4: "category Telecom only has two subcategories".
	tax := NewTaxonomy()
	for ti, name := range tax.TopNames() {
		if name == "Internet & Telecom" {
			if got := len(tax.SubsOf(ti)); got != 2 {
				t.Fatalf("Internet & Telecom has %d subcategories, want 2", got)
			}
			return
		}
	}
	t.Fatal("Internet & Telecom topic missing")
}

func TestVectorClampAndValid(t *testing.T) {
	v := Vector{-0.5, 0.5, 1.5}
	if v.Valid() {
		t.Fatal("out-of-range vector reported valid")
	}
	v.Clamp()
	if v[0] != 0 || v[1] != 0.5 || v[2] != 1 {
		t.Fatalf("clamp result %v", v)
	}
	if !v.Valid() {
		t.Fatal("clamped vector reported invalid")
	}
}

func TestVectorClone(t *testing.T) {
	v := Vector{0.1, 0.2}
	c := v.Clone()
	c[0] = 0.9
	if v[0] != 0.1 {
		t.Fatal("clone aliases original")
	}
}

func TestVectorTopLevel(t *testing.T) {
	tax := NewTaxonomy()
	v := tax.NewVector()
	subs := tax.SubsOf(3)
	v[subs[0]] = 0.4
	v[subs[1]] = 0.9
	tl := v.TopLevel(tax)
	if tl[3] != 0.9 {
		t.Fatalf("top-level fold = %v, want 0.9", tl[3])
	}
	for ti, x := range tl {
		if ti != 3 && x != 0 {
			t.Fatalf("unexpected weight %v at top %d", x, ti)
		}
	}
}

func TestVectorTopLevelBoundedQuick(t *testing.T) {
	tax := NewTaxonomy()
	f := func(seed [16]uint8) bool {
		v := tax.NewVector()
		for i, b := range seed {
			v[(i*17)%len(v)] = float64(b) / 255
		}
		tl := v.TopLevel(tax)
		if len(tl) != tax.NumTops() {
			return false
		}
		for _, x := range tl {
			if x < 0 || x > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
