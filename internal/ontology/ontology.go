package ontology

import (
	"sort"
	"sync/atomic"
)

// Ontology is the lookup service mapping hostnames to category vectors —
// the H_L ⊆ H of paper Section 4.1. Real ontologies cover a small fraction
// of the Web (Adwords labelled 10.6% of the hostnames in the paper's
// dataset), and that partial coverage is the whole reason the embedding
// algorithm exists.
type Ontology struct {
	tax    *Taxonomy
	labels map[string]Vector
	// matrix caches the LabelMatrix snapshot of labels; Add drops it.
	matrix atomic.Pointer[LabelMatrix]
}

// New returns an empty ontology over taxonomy tax.
func New(tax *Taxonomy) *Ontology {
	return &Ontology{tax: tax, labels: make(map[string]Vector)}
}

// Taxonomy returns the taxonomy the ontology labels against.
func (o *Ontology) Taxonomy() *Taxonomy { return o.tax }

// Add registers the category vector for host. The vector is clamped into
// [0,1] and stored by reference; callers must not mutate it afterwards.
// Profilers and ad selectors built before the call keep the label
// matrix they were built with and do not observe it. Not safe for use
// concurrent with any other method.
func (o *Ontology) Add(host string, v Vector) {
	v.Clamp()
	o.labels[host] = v
	o.matrix.Store(nil)
}

// Lookup returns the category vector for host and whether it is labelled.
// The returned vector must not be modified.
func (o *Ontology) Lookup(host string) (Vector, bool) {
	v, ok := o.labels[host]
	return v, ok
}

// Covered reports whether host is in the labelled subset.
func (o *Ontology) Covered(host string) bool {
	_, ok := o.labels[host]
	return ok
}

// Len returns the number of labelled hosts.
func (o *Ontology) Len() int { return len(o.labels) }

// Coverage returns the fraction of hosts (from the given universe) that
// the ontology labels, i.e. |H_L ∩ universe| / |universe|.
func (o *Ontology) Coverage(universe []string) float64 {
	if len(universe) == 0 {
		return 0
	}
	var c int
	for _, h := range universe {
		if o.Covered(h) {
			c++
		}
	}
	return float64(c) / float64(len(universe))
}

// Hosts returns all labelled hostnames in sorted order.
func (o *Ontology) Hosts() []string {
	hs := make([]string, 0, len(o.labels))
	for h := range o.labels {
		hs = append(hs, h)
	}
	sort.Strings(hs)
	return hs
}
