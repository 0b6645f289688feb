package engine

import (
	"container/list"
	"encoding/binary"
	"errors"
	"math"
	"sync"

	"hostprof/internal/core"
	"hostprof/internal/obs"
	"hostprof/internal/ontology"
)

// profileCache is an LRU of session-profile outcomes keyed by
// core.Profiler.SessionKey. A cache belongs to exactly one profiler
// generation: Install publishes a fresh cache together with the new
// profiler, so a key can never resolve to a profile computed on a
// previous model (in-flight computations started before the swap insert
// into the orphaned old cache). Deterministic error outcomes
// (ErrNoLabels) are cached like values — an unlabelled session stays
// unlabelled until the model or ontology changes.
type profileCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	byKey map[string]*list.Element

	hits, misses, evictions *obs.Counter
}

// cacheEntry is one memoised profile outcome.
type cacheEntry struct {
	key string
	vec sparse
	err error
}

// sparse is a profile as the cache holds it: the vector's length (-1
// for a nil vector) and, in one allocation, each element whose bits are
// not +0 as a 12-byte pair — 4-byte column, then the value's float64
// bits, little-endian. Eq. (4) mixes a few sparse label rows, so a
// profile over the 328-category taxonomy has a few dozen such elements;
// a hit densifies exactly the bits that were stored, NaN and -0
// included. An entry never mutates its pairs, so a reader may decode
// them outside the lock.
type sparse struct {
	n  int
	nz []byte
}

// pairBytes is the size of one (column, value) pair in sparse.nz.
const pairBytes = 4 + 8

// sparsify copies v's non-+0 elements out; the caller keeps v.
func sparsify(v ontology.Vector) sparse {
	if v == nil {
		return sparse{n: -1}
	}
	k := 0
	for _, x := range v {
		if math.Float64bits(x) != 0 {
			k++
		}
	}
	nz := make([]byte, 0, k*pairBytes)
	for c, x := range v {
		if bits := math.Float64bits(x); bits != 0 {
			nz = binary.LittleEndian.AppendUint32(nz, uint32(c))
			nz = binary.LittleEndian.AppendUint64(nz, bits)
		}
	}
	return sparse{n: len(v), nz: nz}
}

// dense returns the stored vector in a fresh slice.
func (s sparse) dense() ontology.Vector {
	if s.n < 0 {
		return nil
	}
	v := make(ontology.Vector, s.n)
	for nz := s.nz; len(nz) > 0; nz = nz[pairBytes:] {
		v[binary.LittleEndian.Uint32(nz)] = math.Float64frombits(binary.LittleEndian.Uint64(nz[4:]))
	}
	return v
}

func newProfileCache(capacity int, reg *obs.Registry) *profileCache {
	if capacity <= 0 {
		return nil
	}
	reg.Describe("hostprof_profile_cache_hits_total", "Session profiles served from the LRU cache.")
	reg.Describe("hostprof_profile_cache_misses_total", "Session profiles computed because the LRU cache had no entry.")
	reg.Describe("hostprof_profile_cache_evictions_total", "Session profiles evicted from the LRU cache by capacity.")
	return &profileCache{
		cap:       capacity,
		ll:        list.New(),
		byKey:     make(map[string]*list.Element, capacity),
		hits:      reg.Counter("hostprof_profile_cache_hits_total"),
		misses:    reg.Counter("hostprof_profile_cache_misses_total"),
		evictions: reg.Counter("hostprof_profile_cache_evictions_total"),
	}
}

// get returns the memoised outcome for key. The vector is a fresh slice,
// so callers can hold it across a later eviction or mutate it freely. A nil
// cache and the empty key (a session nothing can be said about) always
// miss, uncounted.
func (c *profileCache) get(key string) (ontology.Vector, error, bool) {
	if c == nil || key == "" {
		return nil, nil, false
	}
	c.mu.Lock()
	el, ok := c.byKey[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Inc()
		return nil, nil, false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	vec, err := e.vec, e.err
	c.mu.Unlock()
	c.hits.Inc()
	return vec.dense(), err, true
}

// put memoises one outcome, evicting the least recently used entry past
// capacity. Only outcomes that are deterministic under a fixed profiler
// are kept: a profile, or ErrNoLabels (which depends only on the
// session's host set, model and ontology). The entry holds a copy, so
// the caller keeps v.
func (c *profileCache) put(key string, v ontology.Vector, err error) {
	if c == nil || key == "" || (err != nil && !errors.Is(err, core.ErrNoLabels)) {
		return
	}
	vec := sparsify(v)
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		e.vec, e.err = vec, err
		c.mu.Unlock()
		return
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, vec: vec, err: err})
	var evicted bool
	if c.ll.Len() > c.cap {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.byKey, el.Value.(*cacheEntry).key)
		evicted = true
	}
	c.mu.Unlock()
	if evicted {
		c.evictions.Inc()
	}
}

// len returns the number of cached entries.
func (c *profileCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
