package core

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
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

// ReadText parses embeddings in word2vec text format — what WriteText,
// and so `hostprof export`, writes — into a Model, the reader the tests
// check that format with. Corpus frequencies are unavailable in this
// format, so every count is 1.
func ReadText(r io.Reader) (*Model, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("core: empty text model: %w", io.ErrUnexpectedEOF)
	}
	header := strings.Fields(sc.Text())
	if len(header) != 2 {
		return nil, fmt.Errorf("core: bad text header %q", sc.Text())
	}
	n, err := strconv.Atoi(header[0])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("core: bad vocab size %q", header[0])
	}
	dim, err := strconv.Atoi(header[1])
	if err != nil || dim <= 0 {
		return nil, fmt.Errorf("core: bad dimensionality %q", header[1])
	}
	v := &Vocab{index: make(map[string]int, n)}
	in := make([]float32, 0, n*dim)
	row := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != dim+1 {
			return nil, fmt.Errorf("core: row %d has %d fields, want %d", row, len(fields), dim+1)
		}
		host := fields[0]
		if _, dup := v.index[host]; dup {
			return nil, fmt.Errorf("core: duplicate host %q at row %d", host, row)
		}
		v.index[host] = row
		v.hosts = append(v.hosts, host)
		v.counts = append(v.counts, 1)
		v.total++
		for _, f := range fields[1:] {
			x, err := strconv.ParseFloat(f, 32)
			if err != nil {
				return nil, fmt.Errorf("core: row %d: %w", row, err)
			}
			in = append(in, float32(x))
		}
		row++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("core: reading text model: %w", err)
	}
	if row != n {
		return nil, fmt.Errorf("core: header promises %d rows, got %d", n, row)
	}
	return &Model{
		vocab: v,
		dim:   dim,
		in:    in,
		out:   make([]float32, len(in)),
	}, nil
}
