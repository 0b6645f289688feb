package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

// A model artifact is one little-endian layout, read and written whole:
//
//	"HPMD"  magic
//	u32     version (modelVersion)
//	u32     dim
//	u32     hosts, n
//	n × u32 hostname lengths, then the hostnames' bytes back to back
//	n × i64 corpus counts
//	n·dim × f32 central rows (Model.in), row-major
//	u32     CRC-32C (Castagnoli) of every byte before it
//
// It carries no context rows: nothing reads Model.out after training.
// Load also reads the gob encoding (modelWire) that earlier releases
// wrote; Save never writes it, so a release that knows only gob refuses
// what this one saves.
const (
	modelMagic   = "HPMD"
	modelVersion = 2
	modelHeader  = 16 // magic, version, dim, hosts
	modelTrailer = 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// The checks of the model layout, one error each.
var (
	errModelTruncated = errors.New("core: model shorter than its header")
	errModelChecksum  = errors.New("core: model checksum mismatch")
	errModelVersion   = errors.New("core: unsupported model version")
	errModelShape     = errors.New("core: model has no hosts or no dimensions")
	errModelHosts     = errors.New("core: model host table overruns the file")
	errModelRows      = errors.New("core: model rows do not match hosts × dim")
)

// modelWire is the gob encoding of a Model that releases before the
// flat layout wrote, read here only. gob decodes a float32 field from a
// float64 one, so the float64 rows of older files load rounded.
type modelWire struct {
	Version int
	Dim     int
	Hosts   []string
	Counts  []int64
	In      []float32
	Out     []float32
}

const modelWireVersion = 1

// Save writes the model's vocabulary and central rows to w in the
// layout above.
func (m *Model) Save(w io.Writer) error {
	hosts := m.vocab.hosts
	size := modelHeader + len(hosts)*(4+8) + len(m.in)*4 + modelTrailer
	for _, h := range hosts {
		size += len(h)
	}
	b := make([]byte, 0, size)
	b = append(b, modelMagic...)
	b = binary.LittleEndian.AppendUint32(b, modelVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(m.dim))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(hosts)))
	for _, h := range hosts {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(h)))
	}
	for _, h := range hosts {
		b = append(b, h...)
	}
	for _, c := range m.vocab.counts {
		b = binary.LittleEndian.AppendUint64(b, uint64(c))
	}
	for _, x := range m.in {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("core: writing model: %w", err)
	}
	return nil
}

// Load reads a model written by Save, or by an earlier release's gob
// encoding. Every count is checked against the bytes that remain before
// anything is allocated for it.
func Load(r io.Reader) (*Model, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading model: %w", err)
	}
	if !bytes.HasPrefix(data, []byte(modelMagic)) {
		return loadGob(data)
	}
	if len(data) < modelHeader+modelTrailer {
		return nil, errModelTruncated
	}
	body := data[:len(data)-modelTrailer]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[len(body):]) {
		return nil, errModelChecksum
	}
	if v := binary.LittleEndian.Uint32(body[4:]); v != modelVersion {
		return nil, fmt.Errorf("%w %d", errModelVersion, v)
	}
	dim := uint64(binary.LittleEndian.Uint32(body[8:]))
	n := uint64(binary.LittleEndian.Uint32(body[12:]))
	if dim == 0 || n == 0 {
		return nil, errModelShape
	}
	rest := body[modelHeader:]
	if n > uint64(len(rest))/(4+8) {
		return nil, errModelHosts
	}
	lens, rest := rest[:4*n], rest[4*n:]
	var blob uint64
	for i := uint64(0); i < n; i++ {
		blob += uint64(binary.LittleEndian.Uint32(lens[4*i:]))
	}
	if blob > uint64(len(rest))-8*n {
		return nil, errModelHosts
	}
	names, rest := string(rest[:blob]), rest[blob:]
	counts, rest := rest[:8*n], rest[8*n:]
	// n·dim·4 ≤ 2⁶⁶ cannot be compared as a product; the quotient can.
	if uint64(len(rest))%(4*n) != 0 || uint64(len(rest))/(4*n) != dim {
		return nil, errModelRows
	}
	v := &Vocab{hosts: make([]string, n), index: make(map[string]int, n), counts: make([]int64, n)}
	off := 0
	for i := range v.hosts {
		end := off + int(binary.LittleEndian.Uint32(lens[4*i:]))
		v.hosts[i] = names[off:end]
		off = end
		v.counts[i] = int64(binary.LittleEndian.Uint64(counts[8*i:]))
		v.index[v.hosts[i]] = i
		v.total += v.counts[i]
	}
	if err := v.validate(); err != nil {
		return nil, err
	}
	in := make([]float32, len(rest)/4)
	for i := range in {
		in[i] = math.Float32frombits(binary.LittleEndian.Uint32(rest[4*i:]))
	}
	return &Model{vocab: v, dim: int(dim), in: in}, nil
}

// loadGob decodes the gob encoding earlier releases wrote.
func loadGob(data []byte) (*Model, error) {
	var wire modelWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&wire); err != nil {
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
	return &Model{vocab: v, dim: wire.Dim, in: wire.In}, nil
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
