package serve

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync"

	"costsense/internal/graph"
)

// Substrate is one cached, immutable experiment substrate: a generated
// graph plus the derived artifacts every trial of a sweep would
// otherwise recompute — total weight 𝓔 and MST weight 𝓥. A Substrate
// is shared by every job whose spec hashes to the same key,
// concurrently, so it must never be mutated; since Go cannot hand out
// read-only slices, immutability is enforced defensively instead: the
// content fingerprint taken at build time is re-checked on every cache
// hit, and a mismatch panics (see Verify).
type Substrate struct {
	key         string
	g           *graph.Graph
	totalWeight int64 // 𝓔 = w(G)
	mstWeight   int64 // 𝓥 = w(MST(G))
	bytes       int64
	fp          uint64
}

// buildSubstrate generates the substrate a normalized spec describes.
func buildSubstrate(key string, gs GraphSpec) *Substrate {
	g := gs.Build()
	s := &Substrate{
		key:         key,
		g:           g,
		totalWeight: g.TotalWeight(),
		mstWeight:   graph.MSTWeight(g),
	}
	// Size estimate for the byte-bounded cache: the graph's adjacency
	// is ~2 edge records per endpoint plus the edge list itself; 48
	// bytes per edge and 16 per vertex over-approximates both.
	s.bytes = int64(g.M())*48 + int64(g.N())*16 + 256
	s.fp = s.fingerprint()
	return s
}

// Key is the substrate's content address (Spec.SubstrateKey).
func (s *Substrate) Key() string { return s.key }

// Graph returns the shared graph. Callers must treat it as read-only;
// Verify will panic the process if they don't.
func (s *Substrate) Graph() *graph.Graph { return s.g }

// TotalWeight is 𝓔, cached at build time.
func (s *Substrate) TotalWeight() int64 { return s.totalWeight }

// MSTWeight is 𝓥, cached at build time.
func (s *Substrate) MSTWeight() int64 { return s.mstWeight }

// ShardAssignment returns nil.
//
// Deprecated: substrates no longer carry a shard partition. The
// perfbench module is the last caller.
func (s *Substrate) ShardAssignment() []int32 { return nil }

// Bytes is the substrate's estimated memory footprint, the unit of
// the cache's eviction budget.
func (s *Substrate) Bytes() int64 { return s.bytes }

// fingerprint hashes everything reachable through the substrate's
// accessors: vertex count, the full edge list and the derived
// weights. FNV-1a, not SHA — this runs on every cache hit and only has
// to catch accidents, not adversaries.
func (s *Substrate) fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	word(int64(s.g.N()))
	word(int64(s.g.M()))
	for _, e := range s.g.Edges() {
		word(int64(e.U))
		word(int64(e.V))
		word(e.W)
	}
	word(s.totalWeight)
	word(s.mstWeight)
	return h.Sum64()
}

// Verify re-hashes the substrate and panics on any divergence from the
// build-time fingerprint. A mutated substrate would silently poison
// every later job that shares it — results would stop being a function
// of the spec — so this is deliberately a crash, not an error return.
// The cache calls it on every hit.
func (s *Substrate) Verify() {
	if got := s.fingerprint(); got != s.fp {
		panic(fmt.Sprintf("serve: cached substrate %s was mutated (fingerprint %016x, want %016x); substrates are shared and read-only", s.key, got, s.fp))
	}
}

// CacheStats is a point-in-time snapshot of the cache's counters.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// Cache is the content-addressed substrate store: a map from substrate
// key to built Substrate with LRU eviction bounded by total estimated
// bytes. Safe for concurrent use. Eviction only drops the *cache's*
// reference — jobs already holding a substrate keep it alive and
// valid; a later identical spec just rebuilds.
type Cache struct {
	mu        sync.Mutex
	maxBytes  int64
	bytes     int64
	ll        *list.List               // front = most recently used
	items     map[string]*list.Element // key -> element whose Value is *cacheEntry
	hits      int64
	misses    int64
	evictions int64
}

// cacheEntry pairs a substrate with the key it is stored under. The
// store key is normally Substrate.Key(), but eviction must delete by
// the key the entry was *inserted* with, so it is carried explicitly.
type cacheEntry struct {
	key string
	sub *Substrate
}

// NewCache builds a cache bounded to maxBytes of estimated substrate
// footprint (maxBytes <= 0 means 256 MiB).
func NewCache(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	return &Cache{maxBytes: maxBytes, ll: list.New(), items: make(map[string]*list.Element)}
}

// GetOrBuild returns the substrate stored under key, building and
// inserting it with build on a miss. hit reports whether the substrate
// came from the cache. On a hit the substrate's integrity fingerprint
// is re-verified (panicking on mutation). The newest entry is never
// evicted, so a substrate larger than the whole budget still builds
// and serves its job — it just won't outlive it in the cache.
//
// The build runs under the cache lock: concurrent requests for the
// same key must not build twice (the whole point of the cache), and
// the queue's serial job loop means there is no parallelism to lose.
func (c *Cache) GetOrBuild(key string, build func() *Substrate) (sub *Substrate, hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		sub = el.Value.(*cacheEntry).sub
		sub.Verify()
		return sub, true
	}
	c.misses++
	sub = build()
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, sub: sub})
	c.bytes += sub.Bytes()
	for c.bytes > c.maxBytes && c.ll.Len() > 1 {
		oldest := c.ll.Back()
		victim := oldest.Value.(*cacheEntry)
		c.ll.Remove(oldest)
		delete(c.items, victim.key)
		c.bytes -= victim.sub.Bytes()
		c.evictions++
	}
	return sub, false
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
		MaxBytes:  c.maxBytes,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
