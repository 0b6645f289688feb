package core

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteText emits the central embeddings in the word2vec text format:
// a "count dim" header line followed by one "host v1 v2 ... vd" line per
// vocabulary entry, in vocabulary (frequency) order. The output loads
// directly into gensim's KeyedVectors.load_word2vec_format.
func (m *Model) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", m.vocab.Len(), m.dim); err != nil {
		return fmt.Errorf("core: writing text header: %w", err)
	}
	for id := 0; id < m.vocab.Len(); id++ {
		if _, err := bw.WriteString(m.vocab.Host(id)); err != nil {
			return fmt.Errorf("core: writing text row: %w", err)
		}
		vec := m.in[id*m.dim : id*m.dim+m.dim]
		for _, x := range vec {
			bw.WriteByte(' ')
			bw.Write(strconv.AppendFloat(nil, float64(x), 'g', 9, 32))
		}
		if err := bw.WriteByte('\n'); err != nil {
			return fmt.Errorf("core: writing text row: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("core: flushing text: %w", err)
	}
	return nil
}

// ReadText parses embeddings in word2vec text format into a Model. Corpus
// frequencies are unavailable in this format, so every count is 1 and the
// model is suitable for similarity queries and profiling, not for resumed
// training.
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
