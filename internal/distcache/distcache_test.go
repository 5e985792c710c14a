package distcache

import (
	"math"
	"sync"
	"testing"

	"roadskyline/internal/graph"
)

func stateAt(edge graph.EdgeID, offset float64) *State {
	return &State{
		Src:     graph.Location{Edge: edge, Offset: offset},
		Settled: map[graph.NodeID]float64{1: 0.5},
	}
}

func TestDisabledCacheIsNil(t *testing.T) {
	if c := New(Config{}); c != nil {
		t.Fatalf("New with zero Entries = %v, want nil", c)
	}
	if c := New(Config{Entries: -3}); c != nil {
		t.Fatalf("New with negative Entries = %v, want nil", c)
	}
	// The nil cache must be safe to use.
	var c *Cache
	if _, ok := c.Get(KindAStar, 0, graph.Location{}); ok {
		t.Fatal("nil cache reported a hit")
	}
	c.Put(KindAStar, 0, stateAt(0, 0))
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats = %+v, want zeros", st)
	}
}

func TestGetPutRoundTrip(t *testing.T) {
	c := New(Config{Entries: 8})
	src := graph.Location{Edge: 3, Offset: 0.25}
	if _, ok := c.Get(KindAStar, 0, src); ok {
		t.Fatal("hit on empty cache")
	}
	st := stateAt(3, 0.25)
	c.Put(KindAStar, 0, st)
	got, ok := c.Get(KindAStar, 0, src)
	if !ok || got != st {
		t.Fatalf("Get = (%v, %v), want the stored state", got, ok)
	}
	// Kind and flavor partition the key space.
	if _, ok := c.Get(KindDijkstra, 0, src); ok {
		t.Fatal("Dijkstra lookup hit an A* entry")
	}
	if _, ok := c.Get(KindAStar, 1, src); ok {
		t.Fatal("flavor 1 lookup hit a flavor 0 entry")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 3 || s.Stores != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 3 misses / 1 store / 1 entry", s)
	}
}

// TestQuantizedCollisionIsMiss pins the safety property of quantization:
// two distinct sources in the same offset bucket share a slot but never
// serve each other's state.
func TestQuantizedCollisionIsMiss(t *testing.T) {
	c := New(Config{Entries: 8, Quantum: 1.0})
	a := stateAt(1, 0.8)
	b := stateAt(1, 1.2) // both round to bucket 1 under quantum 1.0
	c.Put(KindAStar, 0, a)
	if _, ok := c.Get(KindAStar, 0, b.Src); ok {
		t.Fatal("lookup for offset 1.2 returned the state expanded from offset 0.8")
	}
	// The later Put replaces the slot rather than growing the cache.
	c.Put(KindAStar, 0, b)
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d after same-bucket puts, want 1", st.Entries)
	}
	if got, ok := c.Get(KindAStar, 0, b.Src); !ok || got != b {
		t.Fatalf("Get after replacement = (%v, %v), want the newer state", got, ok)
	}
	if _, ok := c.Get(KindAStar, 0, a.Src); ok {
		t.Fatal("replaced state still served")
	}
}

// TestQuantizationRoundsToNearestBucket pins the keyFor fix: offsets are
// quantized by rounding to the nearest bucket center, so two bit-distinct
// float encodings of the same location share one LRU slot even when they
// straddle what used to be a Floor bucket boundary. Under the old
// Floor-based key, 1.0-ulp fell in bucket 0 while 1.0 fell in bucket 1,
// splitting one hot source across two slots.
func TestQuantizationRoundsToNearestBucket(t *testing.T) {
	c := New(Config{Entries: 8, Quantum: 1.0})
	below := math.Nextafter(1.0, 0) // 1.0 - one ulp: Floor bucket 0, Round bucket 1
	exact := 1.0                    // Floor bucket 1, Round bucket 1
	c.Put(KindAStar, 0, stateAt(5, below))
	c.Put(KindAStar, 0, stateAt(5, exact))
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d after puts at 1-ulp and 1.0, want 1 shared slot", st.Entries)
	}
	// Offsets on opposite sides of a bucket *center* still get distinct
	// slots: 0.4 rounds to bucket 0, 0.6 to bucket 1.
	c.Put(KindAStar, 0, stateAt(7, 0.4))
	c.Put(KindAStar, 0, stateAt(7, 0.6))
	if got, ok := c.Get(KindAStar, 0, graph.Location{Edge: 7, Offset: 0.4}); !ok || got.Src.Offset != 0.4 {
		t.Fatalf("Get(0.4) = (%v, %v), want its own entry", got, ok)
	}
	if got, ok := c.Get(KindAStar, 0, graph.Location{Edge: 7, Offset: 0.6}); !ok || got.Src.Offset != 0.6 {
		t.Fatalf("Get(0.6) = (%v, %v), want its own entry", got, ok)
	}
}

// TestQuantizationNegativeZero pins that a -0.0 offset keys the same bucket
// as +0.0 and that the exact-source equality check treats them as the same
// location (IEEE -0.0 == +0.0), so a Put at one signed zero serves a Get at
// the other.
func TestQuantizationNegativeZero(t *testing.T) {
	c := New(Config{Entries: 8, Quantum: 1.0})
	negZero := math.Copysign(0, -1)
	c.Put(KindAStar, 0, stateAt(2, 0.0))
	if _, ok := c.Get(KindAStar, 0, graph.Location{Edge: 2, Offset: negZero}); !ok {
		t.Fatal("Get at -0.0 missed a state stored at +0.0")
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
	// A negative-ulp offset (rounding noise below zero) must also land in
	// bucket 0, not bucket -1 as Floor would place it.
	nearNegZero := math.Nextafter(negZero, -1)
	c.Put(KindAStar, 0, stateAt(2, nearNegZero))
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d after put at -ulp, want the same slot as +0.0", st.Entries)
	}
}

// sameShardEdges finds n distinct edges whose keys map to one shard of c,
// so a test can drive a single shard's LRU deterministically through the
// exported surface.
func sameShardEdges(t *testing.T, c *Cache, n int) []graph.EdgeID {
	t.Helper()
	want := c.shardFor(c.keyFor(KindAStar, 0, graph.Location{Edge: 0}))
	var edges []graph.EdgeID
	for e := graph.EdgeID(0); len(edges) < n && e < 100000; e++ {
		if c.shardFor(c.keyFor(KindAStar, 0, graph.Location{Edge: e})) == want {
			edges = append(edges, e)
		}
	}
	if len(edges) < n {
		t.Fatalf("could not find %d edges mapping to one shard", n)
	}
	return edges
}

// TestEvictionTinyCapacity pins the capacity bound at the smallest useful
// size: Entries=2 must build 2 shards of capacity 1 (never 16 shards that
// would overshoot the bound), and a put into a full shard evicts its
// resident.
func TestEvictionTinyCapacity(t *testing.T) {
	c := New(Config{Entries: 2, Quantum: 1.0})
	if len(c.shards) != 2 {
		t.Fatalf("shard count = %d for Entries=2, want 2 (capacity must stay exact)", len(c.shards))
	}
	edges := sameShardEdges(t, c, 3)
	s0, s1, s2 := stateAt(edges[0], 0), stateAt(edges[1], 0), stateAt(edges[2], 0)
	c.Put(KindAStar, 0, s0)
	c.Put(KindAStar, 0, s1) // shard capacity 1: evicts s0
	c.Put(KindAStar, 0, s2) // evicts s1
	if _, ok := c.Get(KindAStar, 0, s2.Src); !ok {
		t.Fatal("most recent entry evicted")
	}
	if _, ok := c.Get(KindAStar, 0, s0.Src); ok {
		t.Fatal("evicted entry still served")
	}
	if _, ok := c.Get(KindAStar, 0, s1.Src); ok {
		t.Fatal("evicted entry still served")
	}
	if st := c.Stats(); st.Evictions != 2 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 evictions and 1 resident entry", st)
	}
}

// TestEvictionLRUOrder drives a capacity-2 shard through a
// recency-sensitive schedule: a Get refreshes recency, so the entry that
// was merely stored earlier — not the one read most recently — is evicted.
func TestEvictionLRUOrder(t *testing.T) {
	c := New(Config{Entries: 32, Quantum: 1.0}) // 16 shards of capacity 2
	edges := sameShardEdges(t, c, 3)
	s0, s1, s2 := stateAt(edges[0], 0), stateAt(edges[1], 0), stateAt(edges[2], 0)
	c.Put(KindAStar, 0, s0)
	c.Put(KindAStar, 0, s1)     // shard: {s1, s0}
	c.Get(KindAStar, 0, s0.Src) // refresh: {s0, s1}
	c.Put(KindAStar, 0, s2)     // evicts s1, the least recently used
	if _, ok := c.Get(KindAStar, 0, s0.Src); !ok {
		t.Fatal("recently read entry was evicted")
	}
	if _, ok := c.Get(KindAStar, 0, s2.Src); !ok {
		t.Fatal("just-stored entry missing")
	}
	if _, ok := c.Get(KindAStar, 0, s1.Src); ok {
		t.Fatal("least recently used entry survived")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestStatsCountersUnderConcurrency(t *testing.T) {
	c := New(Config{Entries: 64})
	var wg sync.WaitGroup
	const workers, rounds = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				e := graph.EdgeID(i % 16)
				src := graph.Location{Edge: e, Offset: float64(w)}
				if _, ok := c.Get(KindDijkstra, 0, src); !ok {
					c.Put(KindDijkstra, 0, stateAt(e, float64(w)))
				}
			}
		}(w)
	}
	wg.Wait()
	s := c.Stats()
	if s.Hits+s.Misses != workers*rounds {
		t.Fatalf("hits+misses = %d, want %d", s.Hits+s.Misses, workers*rounds)
	}
	if s.Entries > 64 {
		t.Fatalf("entries = %d beyond capacity 64", s.Entries)
	}
	if s.Stores < s.Evictions {
		t.Fatalf("stats %+v: more evictions than stores", s)
	}
}

func TestCapacityBoundAcrossShards(t *testing.T) {
	const capEntries = 32
	c := New(Config{Entries: capEntries, Quantum: 1.0})
	for i := 0; i < 10*capEntries; i++ {
		c.Put(KindAStar, 0, stateAt(graph.EdgeID(i), 0))
	}
	s := c.Stats()
	if s.Entries > capEntries {
		t.Fatalf("entries = %d, want <= %d", s.Entries, capEntries)
	}
	if s.Stores != 10*capEntries {
		t.Fatalf("stores = %d, want %d", s.Stores, 10*capEntries)
	}
	if s.Evictions < int64(9*capEntries) {
		t.Fatalf("evictions = %d, want >= %d", s.Evictions, 9*capEntries)
	}
}
