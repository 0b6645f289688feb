package engine

import (
	"container/list"
	"errors"
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
	vec ontology.Vector
	err error
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

// get returns the memoised outcome for key. The vector is cloned so
// callers can hold it across a later eviction or mutate it freely. A nil
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
	var vec ontology.Vector
	if e.vec != nil {
		vec = e.vec.Clone()
	}
	err := e.err
	c.mu.Unlock()
	c.hits.Inc()
	return vec, err, true
}

// put memoises one outcome, evicting the least recently used entry past
// capacity. Only outcomes that are deterministic under a fixed profiler
// are kept: a profile, or ErrNoLabels (which depends only on the
// session's host set, model and ontology).
func (c *profileCache) put(key string, vec ontology.Vector, err error) {
	if c == nil || key == "" || (err != nil && !errors.Is(err, core.ErrNoLabels)) {
		return
	}
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
