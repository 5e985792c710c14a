package roadskyline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sharedEngine builds a second engine over the trial's network and objects
// with in-flight wavefront sharing enabled. WarmCache is required: like
// the at-rest cache, sharing is bypassed in cold-cache (paper) mode.
// distEntries > 0 additionally keeps wavefronts at rest, exercising both
// halves of a store entry together.
func (tr *fuzzTrial) sharedEngine(t *testing.T, distEntries int) *Engine {
	t.Helper()
	eng, err := NewEngine(tr.n, tr.objs, EngineConfig{
		WarmCache:       true,
		ShareWavefronts: true,
		DistCache:       DistCacheConfig{Entries: distEntries},
	})
	if err != nil {
		t.Fatalf("seed %d: shared engine: %v", tr.seed, err)
	}
	return eng
}

// gateContext holds the query it is passed to inside one Err call: the
// first one made after arm reports true, until the test closes release.
// Every algorithm checks its context once its searchers and wavefront
// tickets exist and before its first expansion, so a gate armed on the
// store's lead count parks a leader in flight, holding its wavefronts,
// while subscribers pile onto them.
type gateContext struct {
	context.Context
	arm     func() bool
	fired   atomic.Bool
	started chan struct{}
	release chan struct{}
}

func newGateContext(parent context.Context, arm func() bool) *gateContext {
	return &gateContext{Context: parent, arm: arm, started: make(chan struct{}), release: make(chan struct{})}
}

// leadGate arms on eng's store counting a lead beyond the ones it has now.
func leadGate(eng *Engine) *gateContext {
	leads := eng.WavefrontStats().Leads
	return newGateContext(context.Background(), func() bool { return eng.WavefrontStats().Leads > leads })
}

func (g *gateContext) Err() error {
	if !g.fired.Load() && g.arm() && g.fired.CompareAndSwap(false, true) {
		close(g.started)
		<-g.release
	}
	return g.Context.Err()
}

// wait returns once the gated query is held, failing the test when it
// never is: a query that skips its context check must fail, not hang.
func (g *gateContext) wait(t *testing.T) {
	t.Helper()
	select {
	case <-g.started:
	case <-time.After(10 * time.Second):
		t.Fatal("the gated query made no context check after its gate armed")
	}
}

// waitForWaiting polls the store until exactly want subscribers are
// blocked on a leader, failing the test on timeout.
func waitForWaiting(t *testing.T, eng *Engine, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if eng.WavefrontStats().Waiting == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d wavefront subscribers, have %d",
				want, eng.WavefrontStats().Waiting)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// uniquePoints counts the distinct locations in pts, the number of
// searchers a query over pts builds after co-located points collapse.
func uniquePoints(pts []Location) int {
	seen := make(map[Location]bool, len(pts))
	for _, p := range pts {
		seen[p] = true
	}
	return len(seen)
}

// TestWavefrontHotPointSingleFlight pins the tentpole contract
// deterministically: with K identical single-point queries in flight at
// once, exactly one leads the wavefront expansion and the other K-1 resume
// from its published frontier. The leader is held at its first context
// check until every subscriber is provably parked on its flight, so the
// counters are exact, not probabilistic.
func TestWavefrontHotPointSingleFlight(t *testing.T) {
	tr := newFuzzTrial(t, 9900)
	eng := tr.sharedEngine(t, 0)
	pts := tr.pts[:1]
	const K = 5

	// Serial oracle on an isolated non-sharing engine.
	plain, err := NewEngine(tr.n, tr.objs, EngineConfig{WarmCache: true})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := plain.Skyline(Query{Points: pts, Algorithm: CEAlg})
	if err != nil {
		t.Fatal(err)
	}

	gate := leadGate(eng)
	results := make([]*Result, K)
	errs := make([]error, K)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // leader
		defer wg.Done()
		results[0], errs[0] = eng.Clone().SkylineContext(gate, Query{Points: pts, Algorithm: CEAlg})
	}()
	gate.wait(t)
	for i := 1; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = eng.Clone().Skyline(Query{Points: pts, Algorithm: CEAlg})
		}(i)
	}
	waitForWaiting(t, eng, K-1)
	close(gate.release)
	wg.Wait()

	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if err := sameSkyline(results[i], oracle); err != nil {
			t.Errorf("query %d: %v", i, err)
		}
	}
	if got := results[0].Stats; got.WavefrontLeads != 1 || got.WavefrontShares != 0 {
		t.Errorf("leader counted leads=%d shares=%d, want 1/0", got.WavefrontLeads, got.WavefrontShares)
	}
	for i := 1; i < K; i++ {
		if got := results[i].Stats; got.WavefrontLeads != 0 || got.WavefrontShares != 1 {
			t.Errorf("subscriber %d counted leads=%d shares=%d, want 0/1",
				i, got.WavefrontLeads, got.WavefrontShares)
		}
		if results[i].Stats.NodesExpanded > results[0].Stats.NodesExpanded {
			t.Errorf("subscriber %d expanded %d nodes, more than the leader's %d",
				i, results[i].Stats.NodesExpanded, results[0].Stats.NodesExpanded)
		}
	}
	ws := eng.WavefrontStats()
	want := WavefrontStats{Leads: 1, Shares: K - 1}
	if ws != want {
		t.Errorf("store stats %+v, want %+v", ws, want)
	}
	// Entries: 0 shares in flight and keeps nothing at rest: no lookup is
	// counted and nothing is stored.
	if ds := eng.DistCacheStats(); ds != (DistCacheStats{}) {
		t.Errorf("at-rest stats %+v on an engine that keeps nothing", ds)
	}
	for i := 0; i < K; i++ {
		if st := results[i].Stats; st.DistCacheHits != 0 || st.DistCacheMisses != 0 {
			t.Errorf("query %d counted %d hits and %d misses on an engine that keeps nothing",
				i, st.DistCacheHits, st.DistCacheMisses)
		}
	}
}

// TestWavefrontLeaderCancelPromotes pins the baton pass: when a leader is
// cancelled before publishing, one waiting subscriber is promoted to lead
// and the rest eventually share the promoted leader's frontier — nobody
// hangs and nobody silently recomputes.
func TestWavefrontLeaderCancelPromotes(t *testing.T) {
	tr := newFuzzTrial(t, 9910)
	eng := tr.sharedEngine(t, 0)
	pts := tr.pts[:1]
	const K = 3

	plain, err := NewEngine(tr.n, tr.objs, EngineConfig{WarmCache: true})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := plain.Skyline(Query{Points: pts, Algorithm: LBCAlg})
	if err != nil {
		t.Fatal(err)
	}

	// The leader is a progressive iterator: it holds its wavefront from
	// construction, and holding it before its first Next is the gate.
	ctx, cancel := context.WithCancel(context.Background())
	it, err := eng.Clone().SkylineIterContext(ctx, Query{Points: pts})
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*Result, K)
	errs := make([]error, K)
	var wg sync.WaitGroup
	for i := 1; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = eng.Clone().Skyline(Query{Points: pts, Algorithm: LBCAlg})
		}(i)
	}
	waitForWaiting(t, eng, K-1)
	cancel()
	_, _, leaderErr := it.Next()
	it.Close()
	wg.Wait()

	if !errors.Is(leaderErr, context.Canceled) {
		t.Fatalf("cancelled leader finished with %v, want context.Canceled", leaderErr)
	}
	var leads, shares int
	for i := 1; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("subscriber %d: %v", i, errs[i])
		}
		if err := sameSkyline(results[i], oracle); err != nil {
			t.Errorf("subscriber %d: %v", i, err)
		}
		leads += results[i].Stats.WavefrontLeads
		shares += results[i].Stats.WavefrontShares
	}
	if leads != 1 || shares != K-2 {
		t.Errorf("subscribers counted leads=%d shares=%d, want one promoted leader and %d shares",
			leads, shares, K-2)
	}
	ws := eng.WavefrontStats()
	want := WavefrontStats{Leads: 2, Shares: K - 2, Promotions: 1}
	if ws != want {
		t.Errorf("store stats %+v, want %+v", ws, want)
	}
}

// leadCancelContext reads as cancelled from the first Err call after arm
// reports true (its Done channel never closes: only Err says so).
type leadCancelContext struct {
	context.Context
	arm func() bool
}

func (c leadCancelContext) Err() error {
	if c.arm() {
		return context.Canceled
	}
	return c.Context.Err()
}

// TestWavefrontCancelledOnceLeadExpandsNothing pins where each algorithm
// checks its context: after its searchers and wavefront tickets exist and
// before its first expansion. On a sharing engine a context that turns
// cancelled once the query's leads are taken must fail CE, EDC and LBC
// with context.Canceled without a single node settled.
//
// It also pins that every exit path files one record and resolves the
// query's tickets: after each row — cancelled before or during expansion,
// an iterator closed after its first point, an iterator whose Next fails
// on a cancelled context and is never closed — the same query run
// uncancelled leads all of its searchers, with no bypass and nobody left
// waiting. A ticket left held would make that query's first searcher wait
// on a leader that never publishes.
func TestWavefrontCancelledOnceLeadExpandsNothing(t *testing.T) {
	n, err := Generate(NetworkSpec{Name: "cancel", Nodes: 1500, Edges: 1950, Jitter: 0.3, MaxStretch: 0.2, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(n, n.GenerateObjects(0.5, 0, 78), EngineConfig{
		WarmCache: true, ShareWavefronts: true, FlightRecorder: FlightRecorderConfig{Size: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := n.GenerateQueryPoints(3, 0.1, 79)
	// resolved ends a row begun when the recorder had seen seen records.
	resolved := func(row string, alg Algorithm, seen uint64) {
		t.Helper()
		if got := eng.flight.Seen() - seen; got != 1 {
			t.Errorf("%s: %d flight records, want 1", row, got)
		}
		before := eng.WavefrontStats()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		res, err := eng.SkylineContext(ctx, Query{Points: pts, Algorithm: alg})
		if err != nil {
			t.Fatalf("%s: the same query after it: %v", row, err)
		}
		ws := eng.WavefrontStats()
		if res.Stats.WavefrontLeads != len(pts) || ws.Bypasses != before.Bypasses || ws.Waiting != 0 {
			t.Errorf("%s: the same query after it led %d of %d searchers, bypasses %d -> %d, %d waiting",
				row, res.Stats.WavefrontLeads, len(pts), before.Bypasses, ws.Bypasses, ws.Waiting)
		}
	}
	// leadsTaken arms on the store counting a lead beyond the ones it has now.
	leadsTaken := func() func() bool {
		leads := eng.WavefrontStats().Leads
		return func() bool { return eng.WavefrontStats().Leads > leads }
	}
	for _, alg := range []Algorithm{CEAlg, EDCAlg, LBCAlg} {
		seen := eng.flight.Seen()
		ctx := leadCancelContext{context.Background(), leadsTaken()}
		_, err := eng.SkylineContext(ctx, Query{Points: pts, Algorithm: alg})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want context.Canceled", alg, err)
		}
		if rec := eng.FlightRecords()[0]; rec.WavefrontLeads != len(pts) || rec.NodesExpanded != 0 {
			t.Errorf("%v: cancelled after %d leads with %d nodes expanded, want %d leads and none",
				alg, rec.WavefrontLeads, rec.NodesExpanded, len(pts))
		}
		resolved(fmt.Sprintf("%v cancelled before expanding", alg), alg, seen)

		// Mid-expansion: the first check after the leads passes, the next
		// one — inside a searcher or between the algorithm's steps — fails.
		seen = eng.flight.Seen()
		armed, checks := leadsTaken(), 0
		ctx = leadCancelContext{context.Background(), func() bool {
			if armed() {
				checks++
			}
			return checks > 1
		}}
		if _, err := eng.SkylineContext(ctx, Query{Points: pts, Algorithm: alg}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%v mid-expansion: err = %v, want context.Canceled", alg, err)
		}
		if rec := eng.FlightRecords()[0]; rec.NodesExpanded == 0 {
			t.Errorf("%v: cancelled mid-expansion with no node expanded", alg)
		}
		resolved(fmt.Sprintf("%v cancelled mid-expansion", alg), alg, seen)
	}

	seen := eng.flight.Seen()
	it, err := eng.SkylineIterContext(context.Background(), Query{Points: pts})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := it.Next(); !ok || err != nil {
		t.Fatalf("iterator's first Next = (%v, %v)", ok, err)
	}
	it.Close()
	it.Close()
	it.Next()
	resolved("an iterator closed after its first point", LBCAlg, seen)

	seen = eng.flight.Seen()
	ctx, cancel := context.WithCancel(context.Background())
	if it, err = eng.SkylineIterContext(ctx, Query{Points: pts}); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, _, err := it.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("iterator's Next on a cancelled context: err = %v, want context.Canceled", err)
	}
	it.Next()
	resolved("an iterator whose Next failed, never closed", LBCAlg, seen)
}

// TestWavefrontPoolHotPointStress hammers a sharing pool with identical
// queries from many goroutines (the workload sharing exists for) and
// demands exact reconciliation: per-query lead/share counters must sum to
// the store's globals, and every join must be accounted as a lead, a
// share, or a bypass. Run under -race this doubles as the store's
// integration race check.
func TestWavefrontPoolHotPointStress(t *testing.T) {
	tr := newFuzzTrial(t, 9920)
	eng := tr.sharedEngine(t, 0)
	pool, err := NewPool(eng, PoolConfig{Workers: 4, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	algs := []Algorithm{CEAlg, EDCAlg, LBCAlg}
	var leads, shares, queries atomic.Int64
	const goroutines, rounds = 6, 10
	var wg sync.WaitGroup
	errc := make(chan error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				q := Query{Points: tr.pts, UseAttrs: tr.use, Algorithm: algs[(g+r)%len(algs)]}
				res, err := pool.Skyline(context.Background(), q)
				if err != nil {
					errc <- err
					return
				}
				if err := tr.check(res, fmt.Sprintf("hot %v", q.Algorithm)); err != nil {
					errc <- err
					return
				}
				leads.Add(int64(res.Stats.WavefrontLeads))
				shares.Add(int64(res.Stats.WavefrontShares))
				queries.Add(1)
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	ws := pool.PoolMetrics().Wavefront
	if ws.Leads != leads.Load() || ws.Shares != shares.Load() {
		t.Errorf("store totals leads=%d shares=%d, per-query stats summed to %d/%d (counter leak)",
			ws.Leads, ws.Shares, leads.Load(), shares.Load())
	}
	joins := queries.Load() * int64(uniquePoints(tr.pts))
	if got := ws.Leads + ws.Shares + ws.Bypasses; got != joins {
		t.Errorf("leads+shares+bypasses = %d, want every one of the %d searcher joins accounted",
			got, joins)
	}
	if ws.Waiting != 0 {
		t.Errorf("store reports %d subscribers still waiting at quiescence", ws.Waiting)
	}
	if ws.Promotions != 0 {
		t.Errorf("store reports %d promotions without any cancelled leader", ws.Promotions)
	}
}

// TestWavefrontSharingEquivalenceFuzz is the store's end-to-end soundness
// sweep: on random networks, every algorithm and LBC mode must give one
// answer, bit for bit, however its wavefronts were obtained — expanded cold
// by an engine without a store, resumed from rest (a hit), or taken from a
// concurrent leader (a share). A pool of sharing workers with the at-rest
// cache on top answers each query in triplicate so duplicates genuinely
// coalesce, and every answer must also match the bruteforce skyline.
func TestWavefrontSharingEquivalenceFuzz(t *testing.T) {
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for seed := int64(0); seed < int64(trials); seed++ {
		tr := newFuzzTrial(t, 9930+seed)
		eng := tr.sharedEngine(t, 64)
		queries := tr.queries()
		cold := tr.plainAnswers(t)

		pool, err := NewPool(eng, PoolConfig{Workers: 8, QueueDepth: 256})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errc := make(chan error, 64)
		for qi, q := range queries {
			for dup := 0; dup < 3; dup++ {
				wg.Add(1)
				go func(qi int, q Query) {
					defer wg.Done()
					res, err := pool.Skyline(context.Background(), q)
					if err != nil {
						errc <- fmt.Errorf("seed %d shared query %d: %v", tr.seed, qi, err)
						return
					}
					if err := tr.check(res, fmt.Sprintf("shared query %d (%v)", qi, q.Algorithm)); err != nil {
						errc <- err
					}
					if err := sameSkyline(res, cold[qi]); err != nil {
						errc <- fmt.Errorf("seed %d shared query %d: %v", tr.seed, qi, err)
					}
				}(qi, q)
			}
		}
		wg.Wait()
		close(errc)
		pool.Close()
		for err := range errc {
			t.Error(err)
		}
		if ws := eng.WavefrontStats(); ws.Waiting != 0 {
			t.Errorf("seed %d: %d searchers still waiting at quiescence", tr.seed, ws.Waiting)
		}

		for qi, q := range queries {
			// At rest: the second of two serial runs resumes every
			// wavefront from the store.
			if _, err := eng.Skyline(q); err != nil {
				t.Fatal(err)
			}
			hit, err := eng.Skyline(q)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := hit.Stats.DistCacheHits, uniquePoints(tr.pts); got != want {
				t.Errorf("seed %d query %d: %d at-rest hits, want %d", tr.seed, qi, got, want)
			}
			if err := sameSkyline(hit, cold[qi]); err != nil {
				t.Errorf("seed %d query %d at-rest hit: %v", tr.seed, qi, err)
			}

			// In flight: a follower waits on a leader held at its gate.
			gate := leadGate(eng)
			var lead, share *Result
			var leadErr, shareErr error
			var both sync.WaitGroup
			both.Add(2)
			go func() {
				defer both.Done()
				lead, leadErr = eng.Clone().SkylineContext(gate, q)
			}()
			gate.wait(t)
			go func() {
				defer both.Done()
				share, shareErr = eng.Clone().Skyline(q)
			}()
			waitForWaiting(t, eng, 1)
			close(gate.release)
			both.Wait()
			if leadErr != nil || shareErr != nil {
				t.Fatalf("seed %d query %d: leader %v, follower %v", tr.seed, qi, leadErr, shareErr)
			}
			if share.Stats.WavefrontShares == 0 {
				t.Errorf("seed %d query %d: the follower shared nothing: %+v", tr.seed, qi, share.Stats)
			}
			for label, res := range map[string]*Result{"leader": lead, "in-flight share": share} {
				if err := sameSkyline(res, cold[qi]); err != nil {
					t.Errorf("seed %d query %d %s: %v", tr.seed, qi, label, err)
				}
			}
		}
	}
}

// sameSkyline holds got to want bit for bit: the same objects in the same
// report order, each distance with the same float64 bits. Identical
// queries must agree this exactly whatever their wavefronts' origin.
func sameSkyline(got, want *Result) error {
	if len(got.Points) != len(want.Points) {
		return fmt.Errorf("%d skyline points, want %d", len(got.Points), len(want.Points))
	}
	for i, p := range got.Points {
		w := want.Points[i]
		if p.Object.ID != w.Object.ID {
			return fmt.Errorf("point %d is object %d, want %d", i, p.Object.ID, w.Object.ID)
		}
		if len(p.Distances) != len(w.Distances) {
			return fmt.Errorf("object %d has %d distances, want %d", p.Object.ID, len(p.Distances), len(w.Distances))
		}
		for j, d := range w.Distances {
			if math.Float64bits(p.Distances[j]) != math.Float64bits(d) {
				return fmt.Errorf("object %d dist[%d] = %v, want %v", p.Object.ID, j, p.Distances[j], d)
			}
		}
	}
	return nil
}
