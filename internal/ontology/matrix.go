package ontology

// LabelMatrix is an immutable snapshot of an ontology's label rows in
// compressed sparse row form: one row per labelled host, in host-name
// order, holding only the non-zero category weights. A label names a
// handful of the 328 categories, so everything that walks label rows —
// Eq. 4's weighted average in core, the ad selector's distance scan —
// touches a few values per row instead of one per category. Both read
// the same snapshot, taken with Ontology.LabelMatrix.
type LabelMatrix struct {
	hosts []string         // row → host, ascending
	rowOf map[string]int32 // host → row
	// Row r's non-zeros are cols/vals[rowPtr[r]:rowPtr[r+1]], columns
	// ascending.
	rowPtr []int32
	cols   []int32
	vals   []float64
}

// LabelMatrix returns the CSR snapshot of the current labels. It is
// built on first use and shared by every caller until the next Add.
func (o *Ontology) LabelMatrix() *LabelMatrix {
	if m := o.matrix.Load(); m != nil {
		return m
	}
	hosts := o.Hosts()
	m := &LabelMatrix{
		hosts:  hosts,
		rowOf:  make(map[string]int32, len(hosts)),
		rowPtr: make([]int32, 1, len(hosts)+1),
	}
	for r, host := range hosts {
		m.rowOf[host] = int32(r)
		for c, x := range o.labels[host] {
			if x != 0 {
				m.cols = append(m.cols, int32(c))
				m.vals = append(m.vals, x)
			}
		}
		m.rowPtr = append(m.rowPtr, int32(len(m.cols)))
	}
	o.matrix.Store(m)
	return m
}

// Rows returns the number of label rows (labelled hosts).
func (m *LabelMatrix) Rows() int { return len(m.hosts) }

// Host returns the host labelled by row r.
func (m *LabelMatrix) Host(r int) string { return m.hosts[r] }

// RowOf returns the row labelling host, and whether host is labelled.
func (m *LabelMatrix) RowOf(host string) (int32, bool) {
	r, ok := m.rowOf[host]
	return r, ok
}

// Row returns row r's non-zero columns, ascending, and their values.
// The slices alias the matrix and must not be modified.
func (m *LabelMatrix) Row(r int32) (cols []int32, vals []float64) {
	lo, hi := m.rowPtr[r], m.rowPtr[r+1]
	return m.cols[lo:hi], m.vals[lo:hi]
}
