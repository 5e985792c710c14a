// Package distcache is a concurrency-safe, sharded store of network
// shortest-path expansion state, shared across queries (and across the
// engine clones of a pool, like the landmark table).
//
// The paper's dominant cost is network distance computation: CE, EDC and
// LBC all bottom out in Dijkstra/A* wavefronts, and real workloads repeat
// query points (popular POIs, recurring commute sources). The store keeps
// the resumable wavefront a searcher had built when its query completed —
// settled set, frontier, and (per searcher kind) the frontier coordinates
// or the tentative object distances — keyed by the quantized source
// location. A later searcher rooted at the same source restores the
// snapshot instead of re-expanding, so repeated query points pay the
// network expansion once.
//
// An entry has two halves, either of which may be empty. At rest it holds
// a finished wavefront in its shard's LRU; Config.Entries caps these. In
// flight it holds a leader — the one searcher expanding from the key's
// source right now — and the searchers waiting for the leader's final
// snapshot, so K concurrent identical searchers expand about one wavefront
// instead of K. In-flight halves exist only on a cache built by NewShared;
// they are never evicted and do not count against Entries. Acquire reads
// both halves under one shard lock.
//
// Keys quantize the source offset into Quantum-sized buckets along the
// source edge, which bounds the key cardinality of jittery float offsets:
// sources in the same bucket share one slot. A state is only *used* when
// its exact source matches the requester's (cached distances from a
// nearby-but-different source would be wrong); a bucket collision between
// distinct sources is a miss (or, in flight, a bypass), and the later Put
// replaces the slot.
//
// States are immutable once stored: searchers copy the snapshot maps when
// restoring and the cache hands the same *State to any number of readers,
// so shards only lock around map/LRU bookkeeping.
package distcache

import (
	"container/list"
	"context"
	"fmt"
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
// coordinates. The kinds are cached independently: the layouts are not
// interchangeable without extra page reads.
type Kind uint8

const (
	// KindDijkstra is the resumable Dijkstra wavefront behind CE.
	KindDijkstra Kind = iota
	// KindAStar is the resumable A* searcher behind EDC and LBC.
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
// serves only requests with a bit-identical source. ObjBest is populated by
// Dijkstra snapshots only.
type State struct {
	Src      graph.Location
	Settled  map[graph.NodeID]float64
	Frontier map[graph.NodeID]Frontier
	ObjBest  map[graph.ObjectID]float64
}

// Nodes returns the number of network nodes the snapshot covers (settled
// plus frontier) — the expansion work a restore saves.
func (s *State) Nodes() int { return len(s.Settled) + len(s.Frontier) }

// Config sizes a Cache.
type Config struct {
	// Entries caps the number of wavefronts kept at rest across all
	// shards. Zero or negative keeps none (New returns nil).
	Entries int
	// Quantum is the source-offset bucket width; zero means
	// DefaultQuantum. It trades key cardinality against slot sharing:
	// distinct sources within one quantum of each other contend for a
	// single LRU slot (correctness is unaffected — only exact source
	// matches ever hit).
	Quantum float64
}

// Stats is a point-in-time snapshot of the at-rest counters. Hits and
// Misses count at-rest lookups, Stores counts states stored, Evictions
// counts states displaced by capacity. Entries is the current resident
// count.
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

// FlightStats is a point-in-time snapshot of the in-flight counters.
// Leads counts expansions that ran as an entry's leader (first arrivals
// plus promotions), Shares snapshots delivered to waiters, Promotions
// waiters promoted to leader after their leader aborted, Bypasses arrivals
// that found a leader in flight but expanded independently (their query
// already leads a key, or a quantized-key collision with a different exact
// source). Waiting is the current number of blocked waiters.
type FlightStats struct {
	Leads      int64
	Shares     int64
	Promotions int64
	Bypasses   int64
	Waiting    int
}

type key struct {
	kind   Kind
	flavor uint8
	edge   graph.EdgeID
	bucket int64
}

// String renders the key for trace spans and the in-flight view: searcher
// kind, heuristic flavor, edge and quantized-offset bucket.
func (k key) String() string {
	kind := "dijkstra"
	if k.kind == KindAStar {
		kind = "astar"
	}
	return fmt.Sprintf("%s/f%d/e%d+%d", kind, k.flavor, k.edge, k.bucket)
}

// entry is one key's slot. It stays in its shard's map while either half
// is set.
type entry struct {
	key   key
	state *State        // the resident state; nil when nothing is at rest
	el    *list.Element // state's place in the shard's LRU; nil with state
	fl    *flight       // the in-flight half; nil when nobody leads
}

// flight is the in-flight half of an entry: the leader's exact source and
// trace ID, and the searchers blocked on its result, in arrival order.
type flight struct {
	src     graph.Location
	leader  uint64
	waiters []*Waiter
}

// shard is one lock domain: a map over keys plus an LRU list of the
// resident entries whose front is the most recently used.
type shard struct {
	mu  sync.Mutex
	lru *list.List // of *entry
	at  map[key]*entry
	cap int
}

// release drops e from the map once neither half is set. Caller holds
// s.mu.
func (s *shard) release(e *entry) {
	if e.fl == nil && e.el == nil {
		delete(s.at, e.key)
	}
}

// Cache is the sharded wavefront store. All methods are safe for
// concurrent use and are no-ops on a nil receiver, so callers thread a
// possibly-nil *Cache without guarding every touch.
type Cache struct {
	quantum float64
	share   bool
	shards  []shard

	hits      atomic.Int64
	misses    atomic.Int64
	stores    atomic.Int64
	evictions atomic.Int64

	leads      atomic.Int64
	shares     atomic.Int64
	promotions atomic.Int64
	bypasses   atomic.Int64
	waiting    atomic.Int64
}

// New builds a cache holding at most cfg.Entries wavefronts at rest and
// none in flight. It returns nil (the disabled cache) when cfg.Entries <=
// 0.
func New(cfg Config) *Cache {
	if cfg.Entries <= 0 {
		return nil
	}
	return newCache(cfg, false)
}

// NewShared builds a cache that also coalesces concurrent searchers rooted
// at the same source (see Acquire). It never returns nil: with
// cfg.Entries <= 0 it keeps nothing at rest and only shares wavefronts in
// flight.
func NewShared(cfg Config) *Cache { return newCache(cfg, true) }

// newCache shrinks the shard count with the capacity so the configured
// bound stays exact: every shard holds Entries/shards states and shards
// never exceed a positive Entries.
func newCache(cfg Config, share bool) *Cache {
	if cfg.Quantum <= 0 {
		cfg.Quantum = DefaultQuantum
	}
	entries := max(cfg.Entries, 0)
	shards := 1 << shardBits
	if entries > 0 && shards > entries {
		shards = entries
	}
	c := &Cache{quantum: cfg.Quantum, share: share, shards: make([]shard, shards)}
	for i := range c.shards {
		c.shards[i] = shard{
			lru: list.New(),
			at:  make(map[key]*entry),
			cap: entries / shards,
		}
	}
	return c
}

// Keeps reports whether the cache stores wavefronts at rest.
func (c *Cache) Keeps() bool { return c != nil && c.shards[0].cap > 0 }

// Shares reports whether the cache coalesces searchers in flight.
func (c *Cache) Shares() bool { return c != nil && c.share }

// keyFor maps a source location into the key space, rounding the offset
// to the nearest bucket center. Flooring instead would split offsets that
// differ by a float ulp across two buckets whenever they straddle a bucket
// boundary — two bit-distinct encodings of "the same" location would then
// occupy two slots and never alias, defeating the quantization. Round also
// maps -0.0 and +0.0 to one bucket (Floor sends -0.0 to bucket -0, which
// is 0, but any negative ulp to bucket -1).
func (c *Cache) keyFor(kind Kind, flavor uint8, src graph.Location) key {
	return key{
		kind:   kind,
		flavor: flavor,
		edge:   src.Edge,
		bucket: int64(math.Round(src.Offset / c.quantum)),
	}
}

// shardFor mixes the key fields into a shard index.
func (c *Cache) shardFor(k key) *shard {
	h := uint64(k.edge)*0x9E3779B97F4A7C15 ^ uint64(k.bucket)*0xBF58476D1CE4E5B9 ^
		uint64(k.kind)<<8 ^ uint64(k.flavor)
	h ^= h >> 29
	return &c.shards[h%uint64(len(c.shards))]
}

// Found says what the at-rest half of a lookup found.
type Found uint8

const (
	// NotLooked: the cache keeps nothing at rest, or the searcher took a
	// leader's snapshot instead; no counter moved.
	NotLooked Found = iota
	// Hit: a resident state with the exact source.
	Hit
	// Miss: none.
	Miss
)

// Join is the outcome of Acquire or of a Waiter's Wait. State is the
// snapshot to resume (a resident hit or a leader's publish), nil to seed
// afresh; Found says whether it came from rest. Ticket is set when the
// searcher leads the key's in-flight entry, and its holder must resolve it.
// Waiter is set, alone, when the searcher must wait on a leader.
type Join struct {
	State  *State
	Found  Found
	Ticket *Ticket
	Waiter *Waiter
}

// Acquire is a searcher's one lookup of the wavefront rooted exactly at
// src, under one shard lock, in this order:
//
//   - A leader in flight with the same exact source makes the searcher
//     wait when mayWait is set: the Join carries only a Waiter, and the
//     hit/miss counters are untouched.
//   - Otherwise, on a sharing cache, the searcher leads (a Ticket) unless
//     a leader is already in flight — a quantized-key collision with
//     another source, or a caller that may not wait — which is a bypass.
//   - Then the at-rest half is read: a resident state with the exact
//     source is a Hit, anything else a Miss; neither is counted when the
//     cache keeps nothing at rest.
//
// Callers pass mayWait=false when their query already holds a Ticket, so
// every wait-for edge runs from a query owning no keys to a leader that
// never blocks and no cycle can form. trace is the caller's trace ID (zero
// when untraced), which later waiters report as LeaderTrace. A nil cache
// returns the zero Join: seed afresh.
func (c *Cache) Acquire(kind Kind, flavor uint8, src graph.Location, mayWait bool, trace uint64) Join {
	if c == nil {
		return Join{}
	}
	k := c.keyFor(kind, flavor, src)
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.at[k]
	var j Join
	if c.share {
		switch {
		case e != nil && e.fl != nil && e.fl.src == src && mayWait:
			w := &Waiter{c: c, s: s, e: e, src: src, ch: make(chan waitResult, 1), trace: trace, leader: e.fl.leader}
			e.fl.waiters = append(e.fl.waiters, w)
			c.waiting.Add(1)
			return Join{Waiter: w}
		case e != nil && e.fl != nil:
			c.bypasses.Add(1)
		default:
			if e == nil {
				e = &entry{key: k}
				s.at[k] = e
			}
			e.fl = &flight{src: src, leader: trace}
			c.leads.Add(1)
			j.Ticket = &Ticket{c: c, s: s, e: e}
		}
	}
	j.State, j.Found = c.lookupLocked(s, e, src)
	return j
}

// lookupLocked reads e's at-rest half for src, refreshing its recency on a
// hit. Caller holds s.mu; e may be nil.
func (c *Cache) lookupLocked(s *shard, e *entry, src graph.Location) (*State, Found) {
	if s.cap == 0 {
		return nil, NotLooked
	}
	if e != nil && e.state != nil && e.state.Src == src {
		s.lru.MoveToFront(e.el)
		c.hits.Add(1)
		return e.state, Hit
	}
	c.misses.Add(1)
	return nil, Miss
}

// Get returns the resident state for a searcher of the given kind and
// heuristic flavor rooted exactly at src, ignoring the in-flight half. A
// quantized-key collision with a different exact source counts (and
// returns) as a miss.
func (c *Cache) Get(kind Kind, flavor uint8, src graph.Location) (*State, bool) {
	if c == nil {
		return nil, false
	}
	k := c.keyFor(kind, flavor, src)
	s := c.shardFor(k)
	s.mu.Lock()
	st, found := c.lookupLocked(s, s.at[k], src)
	s.mu.Unlock()
	return st, found == Hit
}

// Put stores (or replaces) the resident state for a searcher of the given
// kind and flavor rooted at st.Src, evicting the shard's least recently
// used resident when the shard is full. st must not be mutated after Put.
func (c *Cache) Put(kind Kind, flavor uint8, st *State) {
	if c == nil || st == nil {
		return
	}
	k := c.keyFor(kind, flavor, st.Src)
	s := c.shardFor(k)
	s.mu.Lock()
	c.storeLocked(s, k, st)
	s.mu.Unlock()
}

// storeLocked makes st the resident state at k. A no-op when the cache
// keeps nothing at rest. Caller holds s.mu.
func (c *Cache) storeLocked(s *shard, k key, st *State) {
	if s.cap == 0 {
		return
	}
	e := s.at[k]
	if e != nil && e.el != nil {
		s.lru.MoveToFront(e.el)
	} else {
		for s.lru.Len() >= s.cap {
			c.evictLocked(s)
		}
		if e == nil {
			e = &entry{key: k}
			s.at[k] = e
		}
		e.el = s.lru.PushFront(e)
	}
	e.state = st
	c.stores.Add(1)
}

// evictLocked drops the shard's least recently used resident state; an
// entry still in flight keeps its in-flight half. Caller holds s.mu.
func (c *Cache) evictLocked(s *shard) {
	e := s.lru.Remove(s.lru.Back()).(*entry)
	e.state, e.el = nil, nil
	s.release(e)
	c.evictions.Add(1)
}

// Ticket is a leadership claim on one entry's in-flight half. The holder
// must resolve it exactly once — Publish with the final snapshot on clean
// completion, Abort or Abdicate otherwise — or waiters block until their
// own contexts cancel. Every method is idempotent and nil-safe so callers
// can pair every ticket with a deferred Abort.
type Ticket struct {
	c    *Cache
	s    *shard
	e    *entry
	done bool
}

// Publish resolves the flight with the leader's final snapshot: every
// waiter receives st and the in-flight half clears. With keep set st also
// becomes the key's resident state, as Put would store it.
func (t *Ticket) Publish(st *State, keep bool) {
	if t == nil {
		return
	}
	s, e := t.s, t.e
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.done {
		return
	}
	t.done = true
	// Deliveries happen under s.mu so a concurrently cancelling waiter
	// either still sits in the waiter list (and is withdrawn before this
	// runs) or drains its channel under the same lock — a share can be
	// counted and then reversed, but never lost.
	for _, w := range e.fl.waiters {
		w.ch <- waitResult{st: st}
	}
	t.c.shares.Add(int64(len(e.fl.waiters)))
	e.fl = nil
	if keep {
		t.c.storeLocked(s, e.key, st)
	}
	s.release(e)
}

// Abort resolves the flight without a snapshot: the first waiter is
// promoted to leader (its Wait returns a fresh Ticket) and the rest keep
// waiting on it; with no waiters the in-flight half just clears.
func (t *Ticket) Abort() {
	if t == nil {
		return
	}
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	if t.done {
		return
	}
	t.done = true
	t.c.promoteLocked(t.s, t.e)
}

// promoteLocked hands e's leadership to its first waiter, or clears the
// in-flight half when none remain. Caller holds s.mu.
func (c *Cache) promoteLocked(s *shard, e *entry) {
	fl := e.fl
	if len(fl.waiters) == 0 {
		e.fl = nil
		s.release(e)
		return
	}
	w := fl.waiters[0]
	fl.waiters = fl.waiters[1:]
	fl.leader = w.trace // later arrivals wait on the new leader
	c.promotions.Add(1)
	c.leads.Add(1)
	w.ch <- waitResult{tk: &Ticket{c: c, s: s, e: e}}
}

// Abdicate resolves the flight without a snapshot if nobody waits on it,
// and reports whether nobody did: callers use it to skip the snapshot cost
// when the at-rest half does not want the state either. With waiters
// blocked the ticket stays live and the caller owes them a Publish.
// Checking and clearing under one lock keeps a waiter that arrives in
// between from being promoted to redo an expansion that has just
// completed. True on a nil or resolved ticket: nobody is owed anything.
func (t *Ticket) Abdicate() bool {
	if t == nil {
		return true
	}
	s, e := t.s, t.e
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.done {
		return true
	}
	if len(e.fl.waiters) > 0 {
		return false
	}
	t.done = true
	e.fl = nil
	s.release(e)
	return true
}

// Waiter is a pending subscription to a leader's result. Exactly one Wait
// call consumes it.
type Waiter struct {
	c      *Cache
	s      *shard
	e      *entry
	src    graph.Location
	ch     chan waitResult
	trace  uint64 // the waiter's own trace ID, the leader's if promoted
	leader uint64
}

// LeaderTrace returns the trace ID of the leader this waiter subscribed
// to (zero when the leader ran untraced). It names the leader the waiter
// joined; a promotion after that leader aborts does not rewrite it.
func (w *Waiter) LeaderTrace() uint64 { return w.leader }

// Key renders the key the waiter is blocked on, for trace spans and the
// in-flight view.
func (w *Waiter) Key() string { return w.e.key.String() }

// waitResult is a leader's hand-off: a published snapshot, or a
// promotion ticket when the leader aborted.
type waitResult struct {
	st *State
	tk *Ticket
}

// Wait blocks until the leader resolves the flight or ctx is done. A
// publish returns Join{State}; a promotion, when the leader aborted and
// this waiter was next in line, returns the new Ticket together with the
// at-rest half of the lookup, exactly as Acquire would have for a leader.
// On ctx expiry it withdraws the subscription — or, if the leader resolved
// concurrently, reverses the delivery (handing a drained promotion to the
// next waiter) — and returns ctx's error. An already-expired ctx takes the
// cancel path without consuming a delivery, so cancellation behavior is
// deterministic under test.
func (w *Waiter) Wait(ctx context.Context) (Join, error) {
	if err := ctx.Err(); err != nil {
		return Join{}, w.cancel(err)
	}
	select {
	case r := <-w.ch:
		w.c.waiting.Add(-1)
		if r.tk == nil {
			return Join{State: r.st}, nil
		}
		j := Join{Ticket: r.tk}
		w.s.mu.Lock()
		j.State, j.Found = w.c.lookupLocked(w.s, w.e, w.src)
		w.s.mu.Unlock()
		return j, nil
	case <-ctx.Done():
		return Join{}, w.cancel(ctx.Err())
	}
}

// cancel withdraws the waiter under s.mu: either it is still subscribed
// (remove it), or the leader resolved first and an unconsumed delivery
// sits in the channel (drain it and reverse its counters; a drained
// promotion re-promotes the next waiter so the flight never loses its
// leader).
func (w *Waiter) cancel(err error) error {
	c, s := w.c, w.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if fl := w.e.fl; fl != nil {
		for i, o := range fl.waiters {
			if o == w {
				fl.waiters = append(fl.waiters[:i], fl.waiters[i+1:]...)
				c.waiting.Add(-1)
				return err
			}
		}
	}
	select {
	case r := <-w.ch:
		switch {
		case r.st != nil:
			c.shares.Add(-1)
		case r.tk != nil:
			r.tk.done = true
			c.promotions.Add(-1)
			c.leads.Add(-1)
			c.promoteLocked(s, w.e)
		}
	default:
	}
	c.waiting.Add(-1)
	return err
}

// Stats snapshots the at-rest counters. Safe on a nil cache (all zeros).
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

// FlightStats snapshots the in-flight counters. Safe on a nil cache (all
// zeros).
func (c *Cache) FlightStats() FlightStats {
	if c == nil {
		return FlightStats{}
	}
	return FlightStats{
		Leads:      c.leads.Load(),
		Shares:     c.shares.Load(),
		Promotions: c.promotions.Load(),
		Bypasses:   c.bypasses.Load(),
		Waiting:    int(c.waiting.Load()),
	}
}
