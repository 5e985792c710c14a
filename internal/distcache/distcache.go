// Package distcache is a concurrency-safe, sharded LRU cache of network
// shortest-path expansion state, shared across queries (and across the
// engine clones of a pool, like the landmark table).
//
// The paper's dominant cost is network distance computation: CE, EDC and
// LBC all bottom out in Dijkstra/A* wavefronts, and real workloads repeat
// query points (popular POIs, recurring commute sources). The cache stores
// the resumable wavefront a searcher had built when its query completed —
// settled set, frontier, and (per searcher kind) the parent tree or the
// tentative object distances — keyed by the quantized source location. A
// later searcher rooted at the same source restores the snapshot instead of
// re-expanding, so repeated query points pay the network expansion once.
//
// Keys quantize the source offset into Quantum-sized buckets along the
// source edge, which bounds the key cardinality of jittery float offsets:
// sources in the same bucket share one LRU slot. An entry is only *used*
// when its exact source matches the requester's (cached distances from a
// nearby-but-different source would be wrong); a bucket collision between
// distinct sources is a miss, and the later Put replaces the slot.
//
// Entries are immutable once stored: searchers copy the snapshot maps when
// restoring and the cache hands the same *State to any number of readers,
// so shards only lock around map/LRU bookkeeping.
package distcache

import (
	"container/list"
	"math"
	"sync"
	"sync/atomic"

	"roadskyline/internal/geom"
	"roadskyline/internal/graph"
)

// DefaultQuantum is the source-offset quantization used when Config.Quantum
// is zero. It is small relative to typical edge lengths so that distinct
// hot sources rarely collide into one slot, while still collapsing
// float-identical offsets deterministically.
const DefaultQuantum = 1e-3

// shardBits caps the shard count at 1<<shardBits; small caches use fewer
// shards so the per-shard LRU capacity stays exact (see New).
const shardBits = 4

// Kind separates the two searcher state layouts. A Dijkstra wavefront
// carries tentative object distances; an A* wavefront carries frontier
// coordinates and the parent tree. The kinds are cached independently: the
// layouts are not interchangeable without extra page reads.
type Kind uint8

const (
	// KindDijkstra is the resumable Dijkstra wavefront behind CE.
	KindDijkstra Kind = iota
	// KindAStar is the resumable A* searcher behind EDC, LBC and ANN.
	KindAStar
)

// Frontier is one unsettled wavefront node: its tentative distance from
// the source and (for A* states) its coordinates, which ride along so
// restoring needs no page reads.
type Frontier struct {
	G  float64
	Pt geom.Point
}

// State is an immutable snapshot of one searcher's expansion state. Src is
// the exact source location the state was expanded from; a cache entry
// serves only requests with a bit-identical source. Parent is populated by
// A* snapshots, ObjBest by Dijkstra snapshots.
type State struct {
	Src      graph.Location
	Settled  map[graph.NodeID]float64
	Frontier map[graph.NodeID]Frontier
	Parent   map[graph.NodeID]graph.NodeID
	ObjBest  map[graph.ObjectID]float64
}

// Nodes returns the number of network nodes the snapshot covers (settled
// plus frontier) — the expansion work a restore saves.
func (s *State) Nodes() int { return len(s.Settled) + len(s.Frontier) }

// Config sizes a Cache.
type Config struct {
	// Entries caps the number of cached wavefronts across all shards.
	// Zero or negative disables the cache (New returns nil).
	Entries int
	// Quantum is the source-offset bucket width; zero means
	// DefaultQuantum. It trades key cardinality against slot sharing:
	// distinct sources within one quantum of each other contend for a
	// single LRU slot (correctness is unaffected — only exact source
	// matches ever hit).
	Quantum float64
}

// Stats is a point-in-time snapshot of the cache counters. Hits and Misses
// count Get outcomes, Stores counts Puts accepted, Evictions counts
// entries displaced by capacity. Entries is the current resident count.
type Stats struct {
	Hits      int64
	Misses    int64
	Stores    int64
	Evictions int64
	Entries   int
}

// HitRate returns Hits / (Hits + Misses), or zero before any lookup.
func (s Stats) HitRate() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

type key struct {
	kind   Kind
	flavor uint8
	edge   graph.EdgeID
	bucket int64
}

type entry struct {
	key   key
	state *State
}

// shard is one lock domain: a map over keys plus an LRU list whose front
// is the most recently used entry.
type shard struct {
	mu  sync.Mutex
	lru *list.List // of *entry
	at  map[key]*list.Element
	cap int
}

// Cache is the sharded LRU. All methods are safe for concurrent use and
// are no-ops on a nil receiver, so callers thread a possibly-nil *Cache
// without guarding every touch.
type Cache struct {
	quantum float64
	shards  []shard

	hits      atomic.Int64
	misses    atomic.Int64
	stores    atomic.Int64
	evictions atomic.Int64
}

// New builds a cache holding at most cfg.Entries wavefronts. It returns
// nil (the disabled cache) when cfg.Entries <= 0. The shard count shrinks
// with the capacity so the configured bound stays exact: every shard holds
// Entries/shards entries and shards never exceed Entries.
func New(cfg Config) *Cache {
	if cfg.Entries <= 0 {
		return nil
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = DefaultQuantum
	}
	shards := 1 << shardBits
	if shards > cfg.Entries {
		shards = cfg.Entries
	}
	c := &Cache{quantum: cfg.Quantum, shards: make([]shard, shards)}
	for i := range c.shards {
		c.shards[i] = shard{
			lru: list.New(),
			at:  make(map[key]*list.Element),
			cap: cfg.Entries / shards,
		}
	}
	return c
}

// quantizedKey maps a source location into the key space shared by the
// at-rest Cache and the in-flight Flight table, rounding the offset to
// the nearest bucket center. Flooring instead would split offsets that
// differ by a float ulp across two buckets whenever they straddle a bucket
// boundary — two bit-distinct encodings of "the same" location would then
// occupy two LRU slots and never alias, defeating the quantization. Round
// also maps -0.0 and +0.0 to one bucket (Floor sends -0.0 to bucket -0,
// which is 0, but any negative ulp to bucket -1).
func quantizedKey(kind Kind, flavor uint8, src graph.Location, quantum float64) key {
	return key{
		kind:   kind,
		flavor: flavor,
		edge:   src.Edge,
		bucket: int64(math.Round(src.Offset / quantum)),
	}
}

// keyFor quantizes src into the cache's key space.
func (c *Cache) keyFor(kind Kind, flavor uint8, src graph.Location) key {
	return quantizedKey(kind, flavor, src, c.quantum)
}

// shardFor mixes the key fields into a shard index.
func (c *Cache) shardFor(k key) *shard {
	h := uint64(k.edge)*0x9E3779B97F4A7C15 ^ uint64(k.bucket)*0xBF58476D1CE4E5B9 ^
		uint64(k.kind)<<8 ^ uint64(k.flavor)
	h ^= h >> 29
	return &c.shards[h%uint64(len(c.shards))]
}

// Get returns the cached state for a searcher of the given kind and
// heuristic flavor rooted exactly at src. A quantized-key collision with a
// different exact source counts (and returns) as a miss.
func (c *Cache) Get(kind Kind, flavor uint8, src graph.Location) (*State, bool) {
	if c == nil {
		return nil, false
	}
	k := c.keyFor(kind, flavor, src)
	s := c.shardFor(k)
	s.mu.Lock()
	if el, ok := s.at[k]; ok {
		e := el.Value.(*entry)
		if st := e.state; st.Src == src {
			s.lru.MoveToFront(el)
			s.mu.Unlock()
			c.hits.Add(1)
			return st, true
		}
	}
	s.mu.Unlock()
	c.misses.Add(1)
	return nil, false
}

// Put stores (or replaces) the state for a searcher of the given kind and
// flavor rooted at st.Src, evicting the shard's least recently used entry
// when the shard is full. st must not be mutated after Put.
func (c *Cache) Put(kind Kind, flavor uint8, st *State) {
	if c == nil || st == nil {
		return
	}
	k := c.keyFor(kind, flavor, st.Src)
	s := c.shardFor(k)
	s.mu.Lock()
	if el, ok := s.at[k]; ok {
		el.Value.(*entry).state = st
		s.lru.MoveToFront(el)
		s.mu.Unlock()
		c.stores.Add(1)
		return
	}
	for s.lru.Len() >= s.cap {
		back := s.lru.Back()
		delete(s.at, back.Value.(*entry).key)
		s.lru.Remove(back)
		c.evictions.Add(1)
	}
	s.at[k] = s.lru.PushFront(&entry{key: k, state: st})
	s.mu.Unlock()
	c.stores.Add(1)
}

// Stats snapshots the cache counters. Safe on a nil cache (all zeros).
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	st := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Stores:    c.stores.Load(),
		Evictions: c.evictions.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += s.lru.Len()
		s.mu.Unlock()
	}
	return st
}
