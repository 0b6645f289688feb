package index

import (
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// graphDiff names the first field in which two graphs differ, or "".
// The oracle for a loaded graph is equality with BuildANN's, array by
// array: builds are deterministic, so there is no tolerance to grant.
func graphDiff(got, want *ANN) string {
	switch {
	case got.ix != want.ix:
		return "ix"
	case got.cfg != want.cfg:
		return fmt.Sprintf("cfg: %+v vs %+v", got.cfg, want.cfg)
	case got.m0 != want.m0 || got.ml != want.ml:
		return "m0/ml"
	case got.entry != want.entry:
		return fmt.Sprintf("entry: %d vs %d", got.entry, want.entry)
	case got.maxLevel != want.maxLevel:
		return fmt.Sprintf("maxLevel: %d vs %d", got.maxLevel, want.maxLevel)
	case got.graphRows != want.graphRows || got.unindexed != want.unindexed:
		return fmt.Sprintf("graphRows/unindexed: %d/%d vs %d/%d", got.graphRows, got.unindexed, want.graphRows, want.unindexed)
	case !slices.Equal(got.levels, want.levels):
		return "levels"
	case !slices.Equal(got.segBase, want.segBase):
		return "segBase"
	case !slices.Equal(got.nbrBase, want.nbrBase):
		return "nbrBase"
	case !slices.Equal(got.cnt, want.cnt):
		return "cnt"
	case !slices.Equal(got.nbr, want.nbr):
		return "nbr"
	}
	return ""
}

// fixChecksum recomputes the trailer over whatever precedes it, so a
// deliberately damaged encoding gets past the checksum and reaches the
// check under test.
func fixChecksum(data []byte) []byte {
	if len(data) < 4 {
		return data
	}
	le.PutUint32(data[len(data)-4:], crc32.Checksum(data[:len(data)-4], castagnoli))
	return data
}

// TestANNLoadEqualsBuild round-trips graphs over every row shape the
// build distinguishes and requires the loaded graph to be the built
// one — every array equal — and to answer 500 queries with the same
// bits, fallback decisions included.
func TestANNLoadEqualsBuild(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name      string
		rows, dim int
		matrix    func(rng *rand.Rand, rows, dim int) []float64
		ef        int
		unindexed int
	}{
		{name: "clustered", rows: 1500, dim: 16, ef: 32, matrix: func(rng *rand.Rand, rows, dim int) []float64 {
			return clusteredMatrix(rng, rows, dim, 30, 0.2)
		}},
		{name: "uniform", rows: 1200, dim: 12, ef: 32, matrix: func(rng *rand.Rand, rows, dim int) []float64 {
			return randMatrix(rng, rows, dim)
		}},
		{name: "zero and non-finite rows", rows: 600, dim: 8, ef: 24, unindexed: 5, matrix: func(rng *rand.Rand, rows, dim int) []float64 {
			m := randMatrix(rng, rows, dim, 0, 17, 599)
			m[40*dim+3] = nan
			m[41*dim] = inf
			return m
		}},
		{name: "rows <= ef", rows: 100, dim: 8, ef: 128, matrix: func(rng *rand.Rand, rows, dim int) []float64 {
			return randMatrix(rng, rows, dim)
		}},
		{name: "one row", rows: 1, dim: 4, matrix: func(rng *rand.Rand, rows, dim int) []float64 {
			return randMatrix(rng, rows, dim)
		}},
		{name: "no rows", rows: 0, dim: 4, matrix: func(rng *rand.Rand, rows, dim int) []float64 {
			return nil
		}},
		{name: "only unindexed rows", rows: 3, dim: 4, unindexed: 3, matrix: func(rng *rand.Rand, rows, dim int) []float64 {
			return make([]float64, rows*dim)
		}},
	} {
		for _, m := range []int{4, 16} {
			for _, seed := range []uint64{1, 0xfeedface} {
				t.Run(fmt.Sprintf("%s/M=%d/seed=%d", tc.name, m, seed), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(seed) + int64(tc.rows)))
					vecs := tc.matrix(rng, tc.rows, tc.dim)
					ix := New(vecs, tc.rows, tc.dim)
					cfg := ANNConfig{M: m, Ef: tc.ef, Seed: seed}
					built := ix.BuildANN(cfg)
					if built.unindexed != tc.unindexed {
						t.Fatalf("unindexed = %d, want %d", built.unindexed, tc.unindexed)
					}
					data := built.AppendBinary(nil)
					loaded, err := ix.LoadANN(data, cfg)
					if err != nil {
						t.Fatalf("LoadANN: %v", err)
					}
					if d := graphDiff(loaded, built); d != "" {
						t.Fatalf("loaded graph differs from the build in %s", d)
					}
					if again := loaded.AppendBinary(nil); !slices.Equal(again, data) {
						t.Fatal("re-encoding the loaded graph changed the bytes")
					}
					// AppendBinary appends: a prefix survives and the
					// encoding after it is the same.
					if pre := built.AppendBinary([]byte("pre")); string(pre[:3]) != "pre" || !slices.Equal(pre[3:], data) {
						t.Fatal("AppendBinary does not append")
					}
					for q := 0; q < 500; q++ {
						query := randMatrix(rng, 1, tc.dim)
						k := 1 + q%20
						exclude := NoExclude
						if q%7 == 0 && tc.rows > 0 {
							exclude = int32(q % tc.rows)
						}
						want, wantFB := built.SearchAppend(nil, query, k, 0, 1, exclude)
						got, gotFB := loaded.SearchAppend(nil, query, k, 0, 1, exclude)
						if gotFB != wantFB || !sameResults(got, want) {
							t.Fatalf("query %d (k=%d exclude=%d): loaded graph answers %v (fallback %v), built %v (fallback %v)",
								q, k, exclude, clip(got), gotFB, clip(want), wantFB)
						}
					}
				})
			}
		}
	}
}

// edgeOffset returns the byte offset, in a's encoding, of neighbour i
// of row r at layer l.
func edgeOffset(a *ANN, r, l, i int) int {
	seg := int(a.segBase[r]) + l
	before := 0
	for _, c := range a.cnt[:seg] {
		before += int(c)
	}
	return annHeaderLen + 4*len(a.cnt) + 4*(before+i)
}

// TestANNLoadRejects is the corruption table: every way the bytes can
// fail to be this index's graph under this configuration is refused
// with an error naming the check, never loaded and never a panic. The
// structural cases recompute the checksum so the check they aim at is
// the one that fires.
func TestANNLoadRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const rows, dim = 400, 8
	cfg := ANNConfig{M: 4, EfConstruction: 40, Ef: 16, Seed: 9}
	ix := New(randMatrix(rng, rows, dim), rows, dim)
	built := ix.BuildANN(cfg)
	valid := built.AppendBinary(nil)
	if _, err := ix.LoadANN(valid, cfg); err != nil {
		t.Fatalf("the valid encoding does not load: %v", err)
	}
	other := New(randMatrix(rng, rows, dim), rows, dim)

	// A row above layer 0 with a layer-1 neighbour, and a layer-0-only
	// row to mislink it to.
	upper, ground := -1, -1
	for r, l := range built.levels {
		if upper < 0 && l >= 1 && len(built.neighborsOf(int32(r), 1)) > 0 {
			upper = r
		}
		if ground < 0 && l == 0 {
			ground = r
		}
	}
	if upper < 0 || ground < 0 {
		t.Fatal("fixture graph has no populated upper layer")
	}

	mutate := func(f func(d []byte) []byte) []byte { return f(slices.Clone(valid)) }
	put32 := func(off int, v uint32) []byte {
		return mutate(func(d []byte) []byte {
			le.PutUint32(d[off:], v)
			return fixChecksum(d)
		})
	}
	for _, tc := range []struct {
		name string
		data []byte
		ix   *Index
		cfg  ANNConfig
		want string // substring of the error: the check that must fire
	}{
		{name: "empty", data: nil, want: "truncated"},
		{name: "shorter than a header", data: valid[:annHeaderLen+3], want: "truncated"},
		{name: "truncated by one byte", data: valid[:len(valid)-1], want: "checksum"},
		{name: "truncated to the header, checksum fixed", data: fixChecksum(slices.Clone(valid[:annHeaderLen+4])), want: "bytes of counts"},
		{name: "truncated inside the edges, checksum fixed", data: fixChecksum(slices.Clone(valid[:len(valid)-8])), want: "bytes of edges"},
		{name: "extended", data: append(slices.Clone(valid), 0, 0, 0, 0), want: "checksum"},
		{name: "extended, checksum fixed", data: fixChecksum(append(slices.Clone(valid), 0, 0, 0, 0)), want: "bytes of edges"},
		{name: "flipped bit", data: mutate(func(d []byte) []byte { d[len(d)/2] ^= 0x10; return d }), want: "checksum"},
		{name: "magic", data: mutate(func(d []byte) []byte { d[0] = 'X'; return fixChecksum(d) }), want: "not an ANN graph"},
		{name: "format", data: put32(4, annFormat+1), want: "not an ANN graph"},
		{name: "header M", data: put32(8, 5), want: "built with M=5"},
		{name: "header EfConstruction", data: put32(12, 41), want: "efConstruction=41"},
		{name: "header Seed", data: put32(16, 10), want: "seed=10"},
		{name: "header rows", data: put32(24, rows+1), want: "built over 401×8"},
		{name: "header dim", data: put32(28, dim-1), want: "built over 400×7"},
		{name: "header fingerprint", data: put32(32, le.Uint32(valid[32:])^1), want: "other rows"},
		{name: "other rows, same shape", data: valid, ix: other, want: "other rows"},
		{name: "other M", data: valid, cfg: ANNConfig{M: 16, EfConstruction: 40, Seed: 9}, want: "want M=16"},
		{name: "other EfConstruction", data: valid, cfg: ANNConfig{M: 4, EfConstruction: 100, Seed: 9}, want: "want M=4 efConstruction=100"},
		{name: "other Seed", data: valid, cfg: ANNConfig{M: 4, EfConstruction: 40, Seed: 8}, want: "seed=8"},
		{name: "count above capacity", data: put32(annHeaderLen, uint32(2*cfg.M+1)), want: "capacity 8"},
		{name: "count above capacity, upper layer", data: put32(annHeaderLen+4*(int(built.segBase[upper])+1), uint32(cfg.M+1)), want: "capacity 4"},
		{name: "count within capacity but wrong", data: put32(annHeaderLen, uint32(built.cnt[0])-1), want: "bytes of edges"},
		{name: "neighbour out of range", data: put32(edgeOffset(built, 3, 0, 0), rows), want: "links row 400 of 400"},
		{name: "neighbour far out of range", data: put32(edgeOffset(built, 3, 0, 0), math.MaxUint32), want: "links row 4294967295"},
		{name: "self-link", data: put32(edgeOffset(built, 3, 0, 1), 3), want: "links itself"},
		{name: "neighbour below the layer", data: put32(edgeOffset(built, upper, 1, 0), uint32(ground)), want: "of level 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			target, c := ix, cfg
			if tc.ix != nil {
				target = tc.ix
			}
			if tc.cfg != (ANNConfig{}) {
				c = tc.cfg
			}
			a, err := target.LoadANN(tc.data, c)
			if err == nil || a != nil {
				t.Fatalf("LoadANN accepted a damaged graph (err=%v)", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("rejected by the wrong check: %q, want one mentioning %q", err, tc.want)
			}
		})
	}
}

// TestANNLoadDefaultsMatchExplicit: the zero config and the defaults it
// stands for name the same graph, and Ef — a query-time breadth the
// encoding does not carry — comes from the loader's config.
func TestANNLoadDefaultsMatchExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	ix := New(randMatrix(rng, 300, 8), 300, 8)
	data := ix.BuildANN(ANNConfig{}).AppendBinary(nil)
	a, err := ix.LoadANN(data, ANNConfig{M: 16, EfConstruction: 100, Ef: 40})
	if err != nil {
		t.Fatal(err)
	}
	if a.cfg.Ef != 40 {
		t.Fatalf("loaded Ef = %d, want the loader's 40", a.cfg.Ef)
	}
}

// BenchmarkANNLoad puts restoring a graph beside building it, on a
// clustered 40K×64 matrix — ten times the rows of bench/'s world, and
// until a paper-scale workload exists the largest measurement of the
// pair — with the build also at bench/'s own 3.8K rows, since the cost
// of an insert grows with the graph. bytes/row is the encoded graph's
// size over the index's rows.
func BenchmarkANNLoad(b *testing.B) {
	if testing.Short() {
		b.Skip("builds a 40K x 64 graph (~5 s)")
	}
	const rows, dim = 40_000, 64
	rng := rand.New(rand.NewSource(40))
	ix := New(clusteredMatrix(rng, rows, dim, 400, 0.25), rows, dim)
	small := New(clusteredMatrix(rand.New(rand.NewSource(38)), 3_800, dim, 40, 0.25), 3_800, dim)
	var ann *ANN
	for _, c := range []struct {
		name string
		ix   *Index
	}{{"BuildANN/3.8Kx64", small}, {"BuildANN/40Kx64", ix}} {
		b.Run(c.name, func(b *testing.B) {
			var built *ANN
			for i := 0; i < b.N; i++ {
				built = c.ix.BuildANN(ANNConfig{})
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/float64(c.ix.Rows()), "us/insert")
			if c.ix == ix {
				ann = built
			}
		})
	}
	if ann == nil { // -bench selected LoadANN only
		ann = ix.BuildANN(ANNConfig{})
	}
	data := ann.AppendBinary(nil)
	b.Run("AppendBinary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			data = ann.AppendBinary(data[:0])
		}
	})
	b.Run("LoadANN", func(b *testing.B) {
		b.ReportMetric(float64(len(data))/rows, "bytes/row")
		for i := 0; i < b.N; i++ {
			loaded, err := ix.LoadANN(data, ANNConfig{})
			if err != nil {
				b.Fatal(err)
			}
			ann = loaded
		}
	})
}
