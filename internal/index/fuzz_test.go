package index

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// FuzzANNBuild feeds arbitrary vector sets — empty, single row,
// duplicates, NaN/Inf payloads — through BuildANN and SearchAppend,
// asserting the pair never panics, builds the reference build's graph
// (refBuildANN) array for array, returns at most k unique in-range IDs,
// keeps the (score desc, ID asc) order among finite scores, and rejects
// non-finite rows at insert.
func FuzzANNBuild(f *testing.F) {
	f.Add([]byte{})                                                                                      // empty matrix
	f.Add([]byte{4, 3, 2, 16})                                                                           // header only: single short row
	f.Add([]byte{1, 1, 1, 1, 0, 0, 0, 0})                                                                // dim 1, one zero row
	f.Add([]byte{2, 5, 4, 8, 1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4})                                        // duplicate rows
	f.Add([]byte{3, 2, 2, 4, 0x7f, 0xc0, 0, 0, 0x7f, 0x80, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}) // NaN and +Inf payloads
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("cap corpus growth")
		}
		dim, k, m, ef := 1, 1, 0, 0
		if len(data) >= 4 {
			dim = 1 + int(data[0])%16
			k = 1 + int(data[1])%32
			m = int(data[2]) % 9
			ef = int(data[3]) % 65
			data = data[4:]
		}
		// Remaining bytes become float32 rows bit for bit, so NaN, Inf
		// and denormal payloads all reach the build unlaundered.
		vals := len(data) / 4
		rows := vals / dim
		vecs := make([]float64, rows*dim)
		for i := 0; i < rows*dim; i++ {
			bits := uint32(data[4*i]) | uint32(data[4*i+1])<<8 |
				uint32(data[4*i+2])<<16 | uint32(data[4*i+3])<<24
			vecs[i] = float64(math.Float32frombits(bits))
		}
		ix := New(vecs, rows, dim, Config{BlockRows: 8})
		cfg := ANNConfig{M: m, EfConstruction: ef, Ef: ef, Seed: 42}
		ann := ix.BuildANN(cfg)
		if d := graphDiff(ann, refBuildANN(ix, cfg)); d != "" {
			t.Fatalf("BuildANN differs from the reference build in %s", d)
		}

		st := ann.Stats()
		if st.GraphRows+st.Unindexed != rows {
			t.Fatalf("graph rows %d + unindexed %d != rows %d", st.GraphRows, st.Unindexed, rows)
		}
		// Rebuild determinism: the graph is a pure function of its input.
		if s2 := ix.BuildANN(cfg).Stats(); s2 != st {
			// BuildTime differs by nature; compare everything else.
			s2.BuildTime, st.BuildTime = 0, 0
			if s2 != st {
				t.Fatalf("rebuild changed the graph: %+v vs %+v", st, s2)
			}
		}
		// So is its encoding: what was built loads, as the same graph.
		loaded, err := ix.LoadANN(ann.AppendBinary(nil), cfg)
		if err != nil {
			t.Fatalf("a built graph does not load: %v", err)
		}
		if d := graphDiff(loaded, ann); d != "" {
			t.Fatalf("round trip changed the graph in %s", d)
		}

		query := make([]float64, dim)
		if rows > 0 {
			copy(query, vecs[:dim]) // aim at the first row
		} else {
			query[0] = 1
		}
		got, _ := ann.SearchAppend(nil, query, k, 0, 1, NoExclude)
		if len(got) > k {
			t.Fatalf("returned %d results for k=%d", len(got), k)
		}
		seen := make(map[int32]bool, len(got))
		for i, r := range got {
			if r.ID < 0 || int(r.ID) >= rows {
				t.Fatalf("result ID %d out of range [0,%d)", r.ID, rows)
			}
			if seen[r.ID] {
				t.Fatalf("duplicate ID %d in results", r.ID)
			}
			seen[r.ID] = true
			if i > 0 {
				prev, cur := got[i-1], r
				if !math.IsNaN(float64(prev.Score)) && !math.IsNaN(float64(cur.Score)) {
					if worse(entry{score: prev.Score, row: prev.ID}, entry{score: cur.Score, row: cur.ID}) {
						t.Fatalf("results out of (score desc, ID asc) order at %d: %v then %v", i, prev, cur)
					}
				}
			}
		}
		// Exclusion must hold under arbitrary input too.
		if rows > 0 {
			ex, _ := ann.SearchAppend(nil, query, k, 0, 1, 0)
			for _, r := range ex {
				if r.ID == 0 {
					t.Fatal("excluded ID 0 present in results")
				}
			}
		}
	})
}

// FuzzANNLoad feeds arbitrary bytes to LoadANN over a fixed index. The
// harness rewrites the trailing checksum, so mutations reach the header
// and structure checks instead of all dying at the first one. Nothing
// may panic, and whatever the loader accepts must be safe to query: 100
// queries return at most k unique in-range rows in (score desc, ID asc)
// order.
func FuzzANNLoad(f *testing.F) {
	const rows, dim, k = 96, 4, 5
	rng := rand.New(rand.NewSource(96))
	cfg := ANNConfig{M: 3, EfConstruction: 12, Ef: 8, Seed: 7}
	ix := New(randMatrix(rng, rows, dim, 11), rows, dim, Config{BlockRows: 16})
	built := ix.BuildANN(cfg)
	valid := built.AppendBinary(nil)
	queries := make([][]float64, 100)
	for i := range queries {
		queries[i] = randMatrix(rng, 1, dim)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:annHeaderLen+4])
	f.Add(valid[:len(valid)/2])
	for _, off := range []int{8, 24, annHeaderLen, annHeaderLen + 4*len(built.cnt), len(valid) - 8} {
		d := slices.Clone(valid)
		d[off] ^= 0x41 // header field, first count, first and last edge
		f.Add(d)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*len(valid) {
			t.Skip("cap corpus growth")
		}
		// The engine owns data; the checksum fix-up works on a copy.
		ann, err := ix.LoadANN(fixChecksum(slices.Clone(data)), cfg)
		if err != nil {
			if ann != nil {
				t.Fatal("LoadANN returned a graph with its error")
			}
			return
		}
		for _, q := range queries {
			got, _ := ann.SearchAppend(nil, q, k, 0, 1, NoExclude)
			if len(got) > k {
				t.Fatalf("returned %d results for k=%d", len(got), k)
			}
			seen := make(map[int32]bool, len(got))
			for i, r := range got {
				if r.ID < 0 || int(r.ID) >= rows || seen[r.ID] {
					t.Fatalf("result %d: ID %d out of range or repeated", i, r.ID)
				}
				seen[r.ID] = true
				if i > 0 && worse(entry{score: got[i-1].Score, row: got[i-1].ID}, entry{score: r.Score, row: r.ID}) {
					t.Fatalf("results out of (score desc, ID asc) order at %d: %v then %v", i, got[i-1], r)
				}
			}
		}
	})
}

// selectSeed lays out one FuzzSearchSelect input: dim-1, k-1, flags and
// seed bytes, then the matrix as little-endian float32.
func selectSeed(dim, k, flags, seed byte, vals ...float32) []byte {
	data := []byte{dim, k, flags, seed}
	for _, v := range vals {
		data = binary.LittleEndian.AppendUint32(data, math.Float32bits(v))
	}
	return data
}

// repeat32 returns n copies of vals, end to end.
func repeat32(n int, vals ...float32) []float32 {
	var out []float32
	for i := 0; i < n; i++ {
		out = append(out, vals...)
	}
	return out
}

// FuzzSearchSelect feeds arbitrary matrices, queries, k, exclusions and
// subset views through the exact scan and requires the answer of the
// sort-everything oracle (refSelect), bit for bit: every score, the
// order, the cut through ties.
func FuzzSearchSelect(f *testing.F) {
	f.Add([]byte{})                                                                   // empty matrix
	f.Add([]byte{0, 0, 0, 0, 0, 0, 128, 63})                                          // one row, dim 1
	f.Add([]byte{1, 2, 1, 3, 0, 0, 128, 63, 0, 0, 0, 64, 0, 0, 128, 63, 0, 0, 0, 64}) // duplicate rows: a tie at the cut
	f.Add([]byte{0, 3, 2, 9, 0, 0, 128, 63, 0, 0, 128, 191, 0, 0, 0, 0, 0, 0, 128, 63, 0, 0, 192, 127})
	f.Add(append([]byte{3, 40, 7, 77}, make([]byte, 4*4*50)...)) // all-zero rows: everything ties at 0
	// The pre-filter's corners, 50 rows each. All scores equal, k = 5
	// (ten times k ties in the cut bucket), rows-1, rows, rows+1:
	for _, k := range []byte{4, 48, 49, 50} {
		f.Add(selectSeed(0, k, 0, 0, repeat32(50, 1)...))
	}
	// ... the excluded row alone in the top bucket (flags 16 excludes
	// row seed, the row the query leans to):
	crowd := repeat32(50, 0.6, 0.8)
	crowd[2*7], crowd[2*7+1] = 1, 0
	f.Add(selectSeed(1, 9, 16, 7, crowd...))
	f.Add(selectSeed(1, 48, 16, 7, crowd...))
	// ... and scores on ±1 and an ulp past it: rows parallel and
	// anti-parallel to the query at assorted scales.
	var ends []float32
	for r := 0; r < 50; r++ {
		scale := float32(1+r) * float32(1-2*(r%2)) / 7
		ends = append(ends, scale, 2*scale, 3*scale)
	}
	f.Add(selectSeed(2, 9, 0, 4, ends...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			t.Skip("cap corpus growth")
		}
		dim, k, flags, seed := 1, 1, 0, 0
		if len(data) >= 4 {
			dim = 1 + int(data[0])%12
			k = 1 + int(data[1])
			flags = int(data[2])
			seed = int(data[3])
			data = data[4:]
		}
		rows := len(data) / 4 / dim
		vecs := make([]float64, rows*dim)
		for i := range vecs {
			bits := uint32(data[4*i]) | uint32(data[4*i+1])<<8 | uint32(data[4*i+2])<<16 | uint32(data[4*i+3])<<24
			vecs[i] = float64(math.Float32frombits(bits))
		}
		ix := New(vecs, rows, dim, Config{BlockRows: 1 + flags%7})
		query := make([]float64, dim)
		for i := range query {
			// Mix two rows so the query is rarely parallel to one.
			if rows > 0 {
				query[i] = vecs[(seed%rows)*dim+i] + 0.5*vecs[((seed+1)%rows)*dim+i]
			} else {
				query[i] = float64(i + 1)
			}
		}
		if flags&8 != 0 && rows > 2 { // a subset view: every other row
			var ids []int
			for id := seed % 2; id < rows; id += 2 {
				ids = append(ids, id)
			}
			ix = ix.Subset(ids)
		}
		exclude := NoExclude
		if flags&16 != 0 && rows > 0 {
			exclude = int32(seed % rows)
		}
		assertSelectMatchesOracle(t, "fuzz", ix, query, k, exclude)
		assertSelectMatchesOracle(t, "fuzz", ix, query, rows, exclude)
	})
}

// FuzzDot32Rows holds the 4-row kernel to the single-row oracle on any
// width (1–70, every tail length), any four row picks — repeated, out of
// order, one row four times — and raw float32 bits (NaN, ±Inf,
// denormals, −0): out[j] must be dot32Portable(q, row j) bit for bit,
// NaN only as NaN, from both dot32x4 and dot32x4Portable.
func FuzzDot32Rows(f *testing.F) {
	f.Add([]byte{63, 0, 1, 2, 3}, int64(1))                                                               // the bench world's width, rows in order
	f.Add([]byte{0, 5, 5, 5, 5}, int64(2))                                                                // width 1, one row four times
	f.Add([]byte{6, 3, 1, 2, 0}, int64(3))                                                                // width 7, out of order
	f.Add([]byte{69, 9, 0, 9, 0}, int64(4))                                                               // width 70, repeats
	f.Add([]byte{3, 0, 1, 0, 1, 0, 0, 0xc0, 0x7f, 0, 0, 0x80, 0xff, 1, 0, 0, 0, 0, 0, 0, 0x80}, int64(5)) // NaN, −Inf, denormal, −0
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if len(data) < 5 || len(data) > 1<<14 {
			return
		}
		d := 1 + int(data[0])%70
		picks, bits := data[1:5], data[5:]
		// Raw bits first, random fill for the rest of a 16-row matrix.
		rng := rand.New(rand.NewSource(seed))
		const rows = 16
		q, m := make([]float32, d), make([]float32, rows*d)
		for i := range q {
			q[i] = float32(rng.NormFloat64())
		}
		for i := range m {
			m[i] = float32(rng.NormFloat64())
		}
		for i := 0; i+4 <= len(bits) && i/4 < len(q)+len(m); i += 4 {
			v := math.Float32frombits(binary.LittleEndian.Uint32(bits[i:]))
			if j := i / 4; j < len(q) {
				q[j] = v
			} else {
				m[j-len(q)] = v
			}
		}
		var off [4]int
		for j := range off {
			off[j] = int(picks[j]) % rows * d
		}
		var got, port [4]float32
		dot32x4(q, m, &off, &got)
		dot32x4Portable(q, m, &off, &port)
		for j, o := range off {
			want := dot32Portable(q, m[o:o+d])
			for _, v := range []float32{got[j], port[j]} {
				same := math.Float32bits(v) == math.Float32bits(want)
				bothNaN := math.IsNaN(float64(v)) && math.IsNaN(float64(want))
				if !same && !bothNaN {
					t.Fatalf("width %d row %d (offset %d): dot32x4 %x, portable x4 %x, dot32Portable %x",
						d, j, o, math.Float32bits(got[j]), math.Float32bits(port[j]), math.Float32bits(want))
				}
			}
		}
	})
}
