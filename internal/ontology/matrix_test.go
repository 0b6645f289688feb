package ontology

import "testing"

// TestLabelMatrixSnapshot pins the CSR snapshot's contract: one row per
// labelled host in host-name order, exactly the non-zero categories in
// ascending column order, one shared instance until the next Add.
func TestLabelMatrixSnapshot(t *testing.T) {
	tax := NewTaxonomy()
	ont := New(tax)
	add := func(host string, nz map[int]float64) {
		v := tax.NewVector()
		for c, x := range nz {
			v[c] = x
		}
		ont.Add(host, v)
	}
	add("m.example", map[int]float64{300: 0.25, 4: 1})
	add("a.example", map[int]float64{17: 0.5})
	add("z.example", nil) // labelled with an all-zero row

	m := ont.LabelMatrix()
	if m != ont.LabelMatrix() {
		t.Fatal("two snapshots of an unchanged ontology are not the same instance")
	}
	if m.Rows() != 3 || m.Host(0) != "a.example" || m.Host(1) != "m.example" || m.Host(2) != "z.example" {
		t.Fatalf("rows not in host order: %d rows, %q %q %q", m.Rows(), m.Host(0), m.Host(1), m.Host(2))
	}
	for r := 0; r < m.Rows(); r++ {
		if got, ok := m.RowOf(m.Host(r)); !ok || int(got) != r {
			t.Fatalf("RowOf(%q) = %d, %v; want %d", m.Host(r), got, ok, r)
		}
		dense, _ := ont.Lookup(m.Host(r))
		cols, vals := m.Row(int32(r))
		rebuilt := tax.NewVector()
		prev := int32(-1)
		for j, c := range cols {
			if c <= prev || vals[j] == 0 {
				t.Fatalf("row %d: columns %v not ascending or a stored zero in %v", r, cols, vals)
			}
			prev = c
			rebuilt[c] = vals[j]
		}
		for c := range dense {
			if rebuilt[c] != dense[c] {
				t.Fatalf("row %d category %d: CSR %v, label %v", r, c, rebuilt[c], dense[c])
			}
		}
	}
	if _, ok := m.RowOf("unlabelled.example"); ok {
		t.Fatal("RowOf reports a row for an unlabelled host")
	}

	add("b.example", map[int]float64{1: 1})
	m2 := ont.LabelMatrix()
	if m2 == m || m2.Rows() != 4 || m.Rows() != 3 {
		t.Fatalf("Add must drop the cached snapshot and leave the old one intact: %d and %d rows", m2.Rows(), m.Rows())
	}
	if r, ok := m2.RowOf("b.example"); !ok || r != 1 {
		t.Fatalf("new host at row %d, %v; want 1", r, ok)
	}
}
