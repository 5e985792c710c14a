package roadskyline

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// plainAnswers answers every trial query on a warm-cache engine without a
// distance cache or wavefront sharing, each checked against the bruteforce
// skyline: the reference the cached and shared answers must equal bit for
// bit. Such an engine consults no store, so it counts no store event.
func (tr *fuzzTrial) plainAnswers(t *testing.T) []*Result {
	t.Helper()
	eng, err := NewEngine(tr.n, tr.objs, EngineConfig{WarmCache: true})
	if err != nil {
		t.Fatalf("seed %d: plain engine: %v", tr.seed, err)
	}
	var out []*Result
	for qi, q := range tr.queries() {
		res, err := eng.Skyline(q)
		if err != nil {
			t.Fatalf("seed %d plain query %d: %v", tr.seed, qi, err)
		}
		if err := tr.check(res, fmt.Sprintf("plain query %d", qi)); err != nil {
			t.Fatal(err)
		}
		if st := res.Stats; st.WavefrontLeads != 0 || st.WavefrontShares != 0 || st.DistCacheHits != 0 || st.DistCacheMisses != 0 {
			t.Errorf("seed %d: plain query %d counted store events %+v", tr.seed, qi, st)
		}
		out = append(out, res)
	}
	return out
}

// cachedEngine builds a second engine over the trial's network and objects
// with the cross-query distance cache enabled. WarmCache is required: the
// cache is bypassed in cold-cache (paper) mode so published figures stay
// comparable.
func (tr *fuzzTrial) cachedEngine(t *testing.T, entries int) *Engine {
	t.Helper()
	eng, err := NewEngine(tr.n, tr.objs, EngineConfig{
		WarmCache: true,
		DistCache: DistCacheConfig{Entries: entries},
	})
	if err != nil {
		t.Fatalf("seed %d: cached engine: %v", tr.seed, err)
	}
	return eng
}

// TestDistCacheEquivalenceFuzz is the cache's end-to-end soundness sweep:
// with the distance cache enabled, CE, EDC and LBC in every mode must still
// reproduce the bruteforce skyline exactly — on the first pass (populating)
// and on a repeated pass (served from cached wavefronts) — and the answer
// of an engine without the cache, id sequence and distance bits alike. The
// per-query hit/miss counters must reconcile exactly with the cache's own
// totals.
func TestDistCacheEquivalenceFuzz(t *testing.T) {
	trials := 10
	if testing.Short() {
		trials = 4
	}
	for seed := int64(0); seed < int64(trials); seed++ {
		tr := newFuzzTrial(t, 9700+seed)
		plain := tr.plainAnswers(t)
		cached := tr.cachedEngine(t, 128)
		var hits, misses int
		for pass := 0; pass < 2; pass++ {
			for qi, q := range tr.queries() {
				res, err := cached.Skyline(q)
				if err != nil {
					t.Fatalf("seed %d pass %d query %d: %v", tr.seed, pass, qi, err)
				}
				label := fmt.Sprintf("cached pass %d query %d (%v)", pass, qi, q.Algorithm)
				if err := tr.check(res, label); err != nil {
					t.Fatal(err)
				}
				if err := sameSkyline(res, plain[qi]); err != nil {
					t.Fatalf("seed %d %s: %v", tr.seed, label, err)
				}
				hits += res.Stats.DistCacheHits
				misses += res.Stats.DistCacheMisses
			}
		}
		if hits == 0 {
			t.Errorf("seed %d: repeated identical queries produced no cache hits", tr.seed)
		}
		cs := cached.DistCacheStats()
		if cs.Hits != int64(hits) || cs.Misses != int64(misses) {
			t.Errorf("seed %d: cache totals %d/%d, per-query stats summed to %d/%d (counter leak)",
				tr.seed, cs.Hits, cs.Misses, hits, misses)
		}
	}
}

// TestDistCachePoolHotPointStress hammers a pool whose workers share one
// distance cache with a hot repeated query point — the workload the cache
// exists for. Run under -race this doubles as the cache's integration race
// check. The shared counters must show hits and reconcile exactly with the
// per-query stats (including iterators abandoned mid-stream), and the
// resident entry count must respect capacity.
func TestDistCachePoolHotPointStress(t *testing.T) {
	tr := newFuzzTrial(t, 9800)
	cached := tr.cachedEngine(t, 64)
	pool, err := NewPool(cached, PoolConfig{Workers: 4, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	algs := []Algorithm{CEAlg, EDCAlg, LBCAlg}
	var hits, misses atomic.Int64
	count := func(st Stats) {
		hits.Add(int64(st.DistCacheHits))
		misses.Add(int64(st.DistCacheMisses))
	}
	const goroutines, rounds = 6, 10
	var wg sync.WaitGroup
	errc := make(chan error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				q := Query{Points: tr.pts, UseAttrs: tr.use, Algorithm: algs[(g+r)%len(algs)]}
				if r%4 == 3 {
					// Abandon an iterator mid-stream: its Close must still
					// account the lookups and feed the cache.
					q.Algorithm = LBCAlg
					it, err := pool.SkylineIter(context.Background(), q)
					if err != nil {
						errc <- err
						return
					}
					it.Next()
					it.Close()
					count(it.Stats())
					continue
				}
				res, err := pool.Skyline(context.Background(), q)
				if err != nil {
					errc <- err
					return
				}
				if err := tr.check(res, fmt.Sprintf("hot %v", q.Algorithm)); err != nil {
					errc <- err
					return
				}
				count(res.Stats)
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	pm := pool.PoolMetrics()
	if pm.DistCache.Hits == 0 {
		t.Error("hot repeated query point produced no cache hits")
	}
	if pm.DistCache.Hits != hits.Load() || pm.DistCache.Misses != misses.Load() {
		t.Errorf("cache totals %d/%d, per-query stats summed to %d/%d (counter leak)",
			pm.DistCache.Hits, pm.DistCache.Misses, hits.Load(), misses.Load())
	}
	if pm.DistCache.Entries > 64 {
		t.Errorf("cache holds %d entries beyond capacity 64", pm.DistCache.Entries)
	}
}

// TestSkylineIteratorCloseAbandon pins the iterator lifecycle contract: a
// progressive query abandoned mid-stream must freeze its stats at Close,
// stay safe to Close and Next again, feed the distance cache, and leave the
// engine fully usable for subsequent queries.
func TestSkylineIteratorCloseAbandon(t *testing.T) {
	// Find a trial whose skyline has at least two points so "mid-stream"
	// genuinely abandons work.
	var tr *fuzzTrial
	for seed := int64(9850); ; seed++ {
		tr = newFuzzTrial(t, seed)
		if len(tr.want) >= 2 {
			break
		}
	}
	cached := tr.cachedEngine(t, 64)
	q := Query{Points: tr.pts, UseAttrs: tr.use, Algorithm: LBCAlg}

	it, err := cached.SkylineIterContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := it.Next(); err != nil || !ok {
		t.Fatalf("first Next = (ok=%v, err=%v), want a point", ok, err)
	}
	it.Close()
	st := it.Stats()
	if st.DistCacheMisses == 0 {
		t.Error("abandoned iterator recorded no cache lookups")
	}
	if again := it.Stats(); !reflect.DeepEqual(st, again) {
		t.Errorf("stats moved after Close: %+v -> %+v", st, again)
	}
	it.Close() // idempotent
	if _, ok, err := it.Next(); ok || err != nil {
		t.Errorf("Next after Close = (ok=%v, err=%v), want (false, nil)", ok, err)
	}

	// The abandoned run fed the cache: an identical query now hits, and the
	// engine still answers exactly.
	res, err := cached.Skyline(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.check(res, "after abandoned iterator"); err != nil {
		t.Fatal(err)
	}
	if res.Stats.DistCacheHits == 0 {
		t.Error("query repeated after an abandoned iterator saw no cache hits")
	}
}
