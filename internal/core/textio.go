package core

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
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
