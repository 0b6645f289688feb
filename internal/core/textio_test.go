package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"hostprof/internal/stats"
)

func TestTextRoundTrip(t *testing.T) {
	rng := stats.NewRNG(81)
	corpus, ta, _ := topicCorpus(rng, 5, 40, 6)
	m, err := Train(corpus, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Dim() != m.Dim() || m2.Vocab().Len() != m.Vocab().Len() {
		t.Fatal("shape mismatch")
	}
	v1, _ := m.Vector(ta[0])
	v2, ok := m2.Vector(ta[0])
	if !ok {
		t.Fatal("host missing after round trip")
	}
	for i := range v1 {
		// Nine significant digits round-trip a float32 exactly.
		if v1[i] != v2[i] {
			t.Fatalf("dim %d: %v vs %v", i, v1[i], v2[i])
		}
	}
	// Similarity queries still work on the loaded model.
	if _, err := m2.MostSimilar(ta[0], 3); err != nil {
		t.Fatal(err)
	}
}

func TestTextFormatHeader(t *testing.T) {
	rng := stats.NewRNG(83)
	corpus, _, _ := topicCorpus(rng, 3, 20, 5)
	m, err := Train(corpus, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(buf.String(), "\n", 2)[0]
	var n, d int
	if _, err := fmt.Sscanf(first, "%d %d", &n, &d); err != nil {
		t.Fatalf("header %q: %v", first, err)
	}
	if n != m.Vocab().Len() || d != m.Dim() {
		t.Fatalf("header %q", first)
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []string{
		"",                        // empty
		"notanumber 4\na 1 2 3 4", // bad count
		"1 0\n",                   // bad dim
		"2 2\na 1 2\n",            // fewer rows than promised
		"1 2\na 1\n",              // wrong field count
		"1 2\na 1 x\n",            // bad float
		"2 2\na 1 2\na 3 4\n",     // duplicate host
	}
	for i, src := range cases {
		if _, err := ReadText(strings.NewReader(src)); err == nil {
			t.Errorf("case %d accepted invalid input", i)
		}
	}
}

func TestReadTextMinimalValid(t *testing.T) {
	m, err := ReadText(strings.NewReader("2 3\nalpha.example 1 0 0\nbeta.example 0 1 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	v, ok := m.Vector("alpha.example")
	if !ok || v[0] != 1 || v[1] != 0 {
		t.Fatalf("vector %v", v)
	}
	sim, err := m.Similarity("alpha.example", "beta.example")
	if err != nil || sim != 0 {
		t.Fatalf("similarity %v %v", sim, err)
	}
}
