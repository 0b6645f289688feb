// The byte format of a built graph, so a snapshot can carry one beside
// the model it was built for and a restart can load it instead of
// rebuilding. Little-endian throughout:
//
//	header   "HANN", format uint32, M uint32, EfConstruction uint32,
//	         Seed uint64, rows uint32, dim uint32, CRC-32C of the
//	         packed float32 rows
//	counts   one uint32 per (row, layer) segment, row-major
//	edges    each segment's neighbours, uint32 rows, same order
//	trailer  CRC-32C of everything before it
//
// Only the edges are stored. Levels, segment and neighbour bases, the
// entry point and the top level follow from (Seed, rows) alone, so the
// loader lays them out with the code BuildANN uses — which is also its
// validation: the stored sections must fit the shape this index and
// this configuration imply, or the bytes belong to some other graph.
// Ef is a query-time breadth, not a property of the graph, and is not
// stored.
package index

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
)

const (
	annMagic     = "HANN"
	annFormat    = 1
	annHeaderLen = 36
)

var (
	le         = binary.LittleEndian
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// rowsCRC fingerprints the packed rows. It binds an encoded graph to
// the vectors it was built over, whatever artifact they came from.
func (ix *Index) rowsCRC() uint32 {
	var buf [4096]byte
	var crc uint32
	for p := ix.packed; len(p) > 0; {
		n := min(len(p), len(buf)/4)
		for i, x := range p[:n] {
			le.PutUint32(buf[4*i:], math.Float32bits(x))
		}
		crc = crc32.Update(crc, castagnoli, buf[:4*n])
		p = p[n:]
	}
	return crc
}

// AppendBinary appends the graph's encoding to dst; LoadANN over the
// same rows and configuration turns it back into an equal graph.
func (a *ANN) AppendBinary(dst []byte) []byte {
	edges := 0
	for _, c := range a.cnt {
		edges += int(c)
	}
	dst = slices.Grow(dst, annHeaderLen+4*len(a.cnt)+4*edges+4)
	start := len(dst)
	dst = append(dst, annMagic...)
	dst = le.AppendUint32(dst, annFormat)
	dst = le.AppendUint32(dst, uint32(a.cfg.M))
	dst = le.AppendUint32(dst, uint32(a.cfg.EfConstruction))
	dst = le.AppendUint64(dst, a.cfg.Seed)
	dst = le.AppendUint32(dst, uint32(a.ix.rows))
	dst = le.AppendUint32(dst, uint32(a.ix.dim))
	dst = le.AppendUint32(dst, a.ix.rowsCRC())
	for _, c := range a.cnt {
		dst = le.AppendUint32(dst, uint32(c))
	}
	for r, top := range a.levels {
		for l := 0; l <= int(top); l++ {
			for _, nb := range a.neighborsOf(int32(r), l) {
				dst = le.AppendUint32(dst, uint32(nb))
			}
		}
	}
	return le.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// LoadANN restores a graph AppendBinary encoded, provided it is the
// graph BuildANN(cfg) would build over this index. Nothing in data is
// trusted: the checksum, the header against cfg and the index, both
// section lengths against the shape recomputed from (cfg, rows), and
// then every edge — a count within its layer's capacity, a neighbour
// that exists, is not the row itself and reaches the layer — so a graph
// that loads cannot index out of range under any query. The error says
// which check failed; the caller's remedy is always BuildANN.
func (ix *Index) LoadANN(data []byte, cfg ANNConfig) (*ANN, error) {
	if len(data) < annHeaderLen+4 {
		return nil, fmt.Errorf("index: ANN graph truncated to %d bytes", len(data))
	}
	body := data[:len(data)-4]
	if got, want := crc32.Checksum(body, castagnoli), le.Uint32(data[len(body):]); got != want {
		return nil, fmt.Errorf("index: ANN graph checksum %08x, trailer says %08x", got, want)
	}
	if string(body[:4]) != annMagic || le.Uint32(body[4:]) != annFormat {
		return nil, fmt.Errorf("index: not an ANN graph of format %d", annFormat)
	}
	cfg = cfg.withDefaults()
	m, efc, seed := le.Uint32(body[8:]), le.Uint32(body[12:]), le.Uint64(body[16:])
	if uint64(m) != uint64(cfg.M) || uint64(efc) != uint64(cfg.EfConstruction) || seed != cfg.Seed {
		return nil, fmt.Errorf("index: ANN graph built with M=%d efConstruction=%d seed=%d, want M=%d efConstruction=%d seed=%d",
			m, efc, seed, cfg.M, cfg.EfConstruction, cfg.Seed)
	}
	if rows, dim := le.Uint32(body[24:]), le.Uint32(body[28:]); uint64(rows) != uint64(ix.rows) || uint64(dim) != uint64(ix.dim) {
		return nil, fmt.Errorf("index: ANN graph built over %d×%d rows, index has %d×%d", rows, dim, ix.rows, ix.dim)
	}
	if got, want := le.Uint32(body[32:]), ix.rowsCRC(); got != want {
		return nil, fmt.Errorf("index: ANN graph built over other rows (fingerprint %08x, index %08x)", got, want)
	}

	a := ix.newANN(cfg)
	counts := body[annHeaderLen:]
	if len(counts) < 4*len(a.cnt) {
		return nil, fmt.Errorf("index: ANN graph holds %d bytes of counts, %d segments need %d", len(counts), len(a.cnt), 4*len(a.cnt))
	}
	counts, nbrs := counts[:4*len(a.cnt)], counts[4*len(a.cnt):]
	edges := 0
	for r, top := range a.levels {
		for l := 0; l <= int(top); l++ {
			seg := int(a.segBase[r]) + l
			c := le.Uint32(counts[4*seg:])
			if c > uint32(a.capAt(l)) {
				return nil, fmt.Errorf("index: ANN graph row %d layer %d lists %d neighbours, capacity %d", r, l, c, a.capAt(l))
			}
			a.cnt[seg] = int32(c)
			edges += int(c)
		}
	}
	if len(nbrs) != 4*edges {
		return nil, fmt.Errorf("index: ANN graph holds %d bytes of edges, its counts need %d", len(nbrs), 4*edges)
	}
	for r, top := range a.levels {
		for l := 0; l <= int(top); l++ {
			list := a.neighborsOf(int32(r), l)
			for i := range list {
				nb := le.Uint32(nbrs)
				nbrs = nbrs[4:]
				switch {
				case nb >= uint32(ix.rows):
					return nil, fmt.Errorf("index: ANN graph row %d layer %d links row %d of %d", r, l, nb, ix.rows)
				case int(nb) == r:
					return nil, fmt.Errorf("index: ANN graph row %d layer %d links itself", r, l)
				case int(a.levels[nb]) < l:
					return nil, fmt.Errorf("index: ANN graph row %d layer %d links row %d of level %d", r, l, nb, a.levels[nb])
				}
				list[i] = int32(nb)
			}
		}
		if top < 0 {
			continue
		}
		// The entry point as insert leaves it: the first row to reach the
		// top level.
		a.graphRows++
		if int(top) > a.maxLevel || a.entry < 0 {
			a.entry, a.maxLevel = int32(r), int(top)
		}
	}
	return a, nil
}
