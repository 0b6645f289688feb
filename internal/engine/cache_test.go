package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"hostprof/internal/core"
	"hostprof/internal/obs"
	"hostprof/internal/ontology"
)

// TestProfileCacheHitIsACopy mutates the vector a miss hands back, on
// both entry points: the next hit for the session must still return
// the profile that was computed, so no caller's vector is the one the
// cache stores.
func TestProfileCacheHitIsACopy(t *testing.T) {
	fx := newFixture(t, func(cfg *Config) { cfg.CacheSize = 16 })
	if err := fx.retrain(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	clobber := func(v ontology.Vector) ontology.Vector {
		want := slices.Clone(v)
		for i := range v {
			v[i] = 7
		}
		return want
	}

	first, err := fx.e.Profile(ctx, fx.sessions[0])
	if err != nil {
		t.Fatal(err)
	}
	want := clobber(first)
	for i := 0; i < 2; i++ {
		got, err := fx.e.Profile(ctx, fx.sessions[0])
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("Profile hit %d after the caller wrote its miss: %v (%v), want %v", i, got, err, want)
		}
		clobber(got)
	}

	batch := fx.sessions[1:3]
	vecs, errs, err := fx.e.ProfileSessions(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	wants := make([]ontology.Vector, len(vecs))
	for i, v := range vecs {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		wants[i] = clobber(v)
	}
	hits := fx.reg.Counter("hostprof_profile_cache_hits_total").Value()
	vecs, _, _ = fx.e.ProfileSessions(ctx, batch)
	for i, v := range vecs {
		if !slices.Equal(v, wants[i]) {
			t.Fatalf("ProfileSessions hit %d after the caller wrote its miss: %v, want %v", i, v, wants[i])
		}
	}
	if got := fx.reg.Counter("hostprof_profile_cache_hits_total").Value() - hits; got != int64(len(batch)) {
		t.Fatalf("second batch hit the cache %d times, want %d", got, len(batch))
	}
}

// FuzzProfileCacheRoundTrip stores a vector of any length and any raw
// bits — NaN payloads, ±Inf, denormals, -0 — and requires every hit to
// return exactly those bits, in a fresh slice each time. ErrNoLabels
// and nil vectors round-trip as themselves.
func FuzzProfileCacheRoundTrip(f *testing.F) {
	bits := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add([]byte{}, false)
	f.Add(bits(0, math.Copysign(0, -1), 0.25, 0), false)
	f.Add(bits(math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -math.SmallestNonzeroFloat64, math.MaxFloat64), false)
	f.Add(append(bits(1, 0, 0), 0xff, 0x01), false)
	f.Add([]byte{}, true)
	f.Fuzz(func(t *testing.T, raw []byte, noLabels bool) {
		c := newProfileCache(4, obs.NewRegistry())
		var want ontology.Vector
		var wantErr error
		if noLabels {
			wantErr = core.ErrNoLabels
		} else {
			want = make(ontology.Vector, len(raw)/8)
			for i := range want {
				want[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			}
		}
		stored := slices.Clone(want)
		c.put("k", stored, wantErr)
		if len(stored) > 0 {
			stored[0] = 7 // the entry must not alias the caller's vector
		}
		var prev ontology.Vector
		for i := 0; i < 2; i++ {
			got, err, hit := c.get("k")
			if !hit || !errors.Is(err, wantErr) || (got == nil) != (want == nil) || len(got) != len(want) {
				t.Fatalf("hit %d: %v, %v, hit=%v; want %d elements, %v", i, got, err, hit, len(want), wantErr)
			}
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("hit %d element %d: bits %#x, stored %#x", i, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
				}
			}
			if len(got) > 0 && len(prev) > 0 && &got[0] == &prev[0] {
				t.Fatalf("hit %d returned the previous hit's slice", i)
			}
			prev = got
		}
	})
}

// TestProfileCacheEntryBytes is the cache's memory guard: a full cache
// of bench-shaped entries — a 24-token key, a profile with 24 non-zero
// weights over the 328-category taxonomy — holds at most 640 bytes per
// entry on the live heap, map, list element and key included. The
// dense float64 layout took ≈ 3 KB.
func TestProfileCacheEntryBytes(t *testing.T) {
	const entries, nonZeros, maxBytes = 4096, 24, 640
	tax := ontology.NewTaxonomy()
	reg := obs.NewRegistry()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc

	c := newProfileCache(entries, reg)
	var key []byte
	for i := 0; i < entries; i++ {
		key = key[:0]
		for j := 0; j < nonZeros; j++ {
			key = binary.LittleEndian.AppendUint32(key, uint32(i*nonZeros+j))
		}
		vec := tax.NewVector()
		for j := 0; j < nonZeros; j++ {
			vec[(i+j*13)%len(vec)] = 1 / float64(j+1)
		}
		c.put(string(key), vec, nil)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	per := (int64(ms.HeapAlloc) - int64(before)) / entries
	runtime.KeepAlive(c)
	if c.len() != entries {
		t.Fatalf("cache holds %d entries, want %d", c.len(), entries)
	}
	t.Logf("%d bytes per entry (%d-bit ints)", per, strconv.IntSize)
	if per > maxBytes {
		t.Fatalf("%d bytes per cache entry, want at most %d", per, maxBytes)
	}
}
