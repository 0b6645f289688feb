package core

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"
)

// modelWire is the on-disk representation of a Model. gob sends a
// float32 and a float64 field as the same wire type and decodes either
// from either, so the encoding is the one that carried []float64 rows: a
// model written then loads here, rounded to float32, and one written
// here loads there.
type modelWire struct {
	Version int
	Dim     int
	Hosts   []string
	Counts  []int64
	In      []float32
	Out     []float32
}

const modelWireVersion = 1

// Save serializes the model to w in a self-describing binary format.
func (m *Model) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := gob.NewEncoder(bw)
	wire := modelWire{
		Version: modelWireVersion,
		Dim:     m.dim,
		Hosts:   m.vocab.hosts,
		Counts:  m.vocab.counts,
		In:      m.in,
		Out:     m.out,
	}
	if err := enc.Encode(&wire); err != nil {
		return fmt.Errorf("core: encoding model: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("core: flushing model: %w", err)
	}
	return nil
}

// Load deserializes a model previously written by Save.
func Load(r io.Reader) (*Model, error) {
	var wire modelWire
	if err := gob.NewDecoder(bufio.NewReader(r)).Decode(&wire); err != nil {
		return nil, fmt.Errorf("core: decoding model: %w", err)
	}
	if wire.Version != modelWireVersion {
		return nil, fmt.Errorf("core: unsupported model version %d", wire.Version)
	}
	if wire.Dim <= 0 || len(wire.Hosts) == 0 || len(wire.Hosts) != len(wire.Counts) {
		return nil, fmt.Errorf("core: corrupt model header")
	}
	// len(Hosts)·Dim can wrap around for a hostile Dim; the quotient
	// cannot. With at least one host, Dim is then bounded by the input.
	if len(wire.In) != len(wire.Out) || len(wire.In)%wire.Dim != 0 || len(wire.In)/wire.Dim != len(wire.Hosts) {
		return nil, fmt.Errorf("core: corrupt model weights: have %d/%d, want %d hosts × dim %d",
			len(wire.In), len(wire.Out), len(wire.Hosts), wire.Dim)
	}
	v := &Vocab{
		hosts:  wire.Hosts,
		index:  make(map[string]int, len(wire.Hosts)),
		counts: wire.Counts,
	}
	for i, h := range wire.Hosts {
		v.index[h] = i
		v.total += wire.Counts[i]
	}
	if err := v.validate(); err != nil {
		return nil, err
	}
	return &Model{vocab: v, dim: wire.Dim, in: wire.In, out: wire.Out}, nil
}

// SaveFile writes the model to path, creating or truncating it.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: creating model file: %w", err)
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a model from path.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: opening model file: %w", err)
	}
	defer f.Close()
	return Load(f)
}
