package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"hostprof/internal/ontology"
)

// resultOf builds the ProfileResult the batch handler used to hand to
// encoding/json — a map of the non-zero categories by name, or the
// error — the oracle of categoryTable's bytes.
func resultOf(tax *ontology.Taxonomy, vec ontology.Vector, err error) ProfileResult {
	if err != nil {
		return ProfileResult{Error: err.Error()}
	}
	cats := make(map[string]float64)
	for id, v := range vec {
		if v != 0 {
			cats[tax.Category(id).Name] = v
		}
	}
	return ProfileResult{Categories: cats}
}

// randomOutcome draws a profile vector of any density whose weights
// cover what Eq. 4 produces and what the float formatter branches on —
// exactly 1, float32-rounded values, magnitudes down to 1e-12 (the 'e'
// format starts below 1e-6) — or, one time in eight, an error.
func randomOutcome(rng *rand.Rand, tax *ontology.Taxonomy) (ontology.Vector, error) {
	if rng.Intn(8) == 0 {
		msgs := []string{"core: empty session", "a < b && c > d", `say "no"`, "line\u2028separator\u2029s", "tab\tnul\x00", "bad utf8 \xff"}
		return nil, errors.New(msgs[rng.Intn(len(msgs))])
	}
	vec := tax.NewVector()
	density := math.Pow(rng.Float64(), 3) // mostly sparse, sometimes full
	for id := range vec {
		if rng.Float64() >= density {
			continue
		}
		switch rng.Intn(5) {
		case 0:
			vec[id] = 1
		case 1:
			vec[id] = float64(float32(rng.Float64()))
		case 2:
			vec[id] = math.Pow(10, -12*rng.Float64())
		case 3:
			vec[id] = rng.Float64() * 2e-6 // straddles the format switch
		default:
			vec[id] = rng.Float64()
		}
	}
	return vec, nil
}

// TestBatchEncoderMatchesMarshal holds the append-style writer to
// json.Marshal(ProfileResult{…}), result by result and as a whole
// response body, trailing newline included.
func TestBatchEncoderMatchesMarshal(t *testing.T) {
	tax := ontology.NewTaxonomy()
	table := newCategoryTable(tax)
	rng := rand.New(rand.NewSource(2202))
	var vecs []ontology.Vector
	var errs []error
	for trial := 0; trial < 2500; trial++ {
		vec, err := randomOutcome(rng, tax)
		want, merr := json.Marshal(resultOf(tax, vec, err))
		if merr != nil {
			t.Fatal(merr)
		}
		if got := table.appendResult(nil, vec, err); !bytes.Equal(got, want) {
			t.Fatalf("trial %d:\n got %s\nwant %s", trial, got, want)
		}
		vecs, errs = append(vecs, vec), append(errs, err)
	}
	amp, _ := tax.IDByName("Arts & Entertainment / Music & Audio")
	one := tax.NewVector()
	one[amp] = 0.25
	if got, want := string(table.appendResult(nil, one, nil)), `{"categories":{"Arts \u0026 Entertainment / Music \u0026 Audio":0.25}}`; got != want {
		t.Fatalf("got %s, want %s", got, want)
	}

	for _, n := range []int{0, 1, 2, len(vecs)} {
		resp := ProfileBatchResponse{Profiles: make([]ProfileResult, n)}
		for i := range resp.Profiles {
			resp.Profiles[i] = resultOf(tax, vecs[i], errs[i])
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if got := table.appendBatch(nil, vecs[:n], errs[:n]); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%d-profile response differs from json.Encoder's (%d bytes against %d)", n, len(got), want.Len())
		}
	}
}

// TestBatchEncoderGrowsOnce holds appendBatch to one allocation per
// answer: the bound it takes from the outcomes covers every byte, down
// to the longest float each format writes, so the body's capacity is
// that bound exactly. An error outcome is left out: its message goes
// through json.Marshal, which allocates itself.
func TestBatchEncoderGrowsOnce(t *testing.T) {
	tax := ontology.NewTaxonomy()
	table := newCategoryTable(tax)
	rng := rand.New(rand.NewSource(2203))
	var vecs []ontology.Vector
	for len(vecs) < 256 {
		if vec, err := randomOutcome(rng, tax); err == nil {
			vecs = append(vecs, vec)
		}
	}
	longest := tax.NewVector()
	for id := range longest {
		longest[id] = []float64{-1.2345678901234567e-300, -1.2345678901234567e-6, -123456789012345678901, -0.12345678901234567}[id%4]
	}
	vecs = append(vecs, longest)
	errs := make([]error, len(vecs))
	out := table.appendBatch(nil, vecs, errs)
	if bound := table.batchBound(vecs, errs); cap(out) != bound {
		t.Fatalf("appendBatch wrote %d bytes into capacity %d, want one growth to the bound %d", len(out), cap(out), bound)
	}
	if raceDetectorEnabled {
		t.Skip("the race runtime allocates on its own; the capacity check above still ran")
	}
	// Collect once first: a process's first GC cycle starts the
	// runtime's mark workers, which allocates, and the megabyte answers
	// below would otherwise trigger it inside the count.
	runtime.GC()
	if allocs := testing.AllocsPerRun(10, func() { table.appendBatch(nil, vecs, errs) }); allocs != 1 {
		t.Fatalf("appendBatch allocated %v times per answer, want 1", allocs)
	}
}
