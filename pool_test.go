package roadskyline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// poolTestEngine builds a moderately sized engine with attributed objects
// for the concurrency tests.
func poolTestEngine(t *testing.T) (*Engine, *Network) {
	t.Helper()
	n, err := Generate(NetworkSpec{Name: "pool", Nodes: 300, Edges: 390,
		NumObstacles: 2, ObstacleSize: 0.15, Jitter: 0.3, MaxStretch: 0.2, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(n, n.GenerateObjects(0.4, 1, 17), EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return eng, n
}

// mixedQueries returns a workload covering every algorithm and LBC mode.
func mixedQueries(n *Network) []Query {
	var qs []Query
	for seed := int64(0); seed < 4; seed++ {
		pts := n.GenerateQueryPoints(3, 0.1, 100+seed)
		qs = append(qs,
			Query{Points: pts, Algorithm: CEAlg},
			Query{Points: pts, Algorithm: EDCAlg},
			Query{Points: pts, Algorithm: LBCAlg},
			Query{Points: pts, Algorithm: LBCAlg, Alternate: true},
			Query{Points: pts, Algorithm: LBCAlg, Source: 2},
			Query{Points: pts, Algorithm: LBCAlg, UseAttrs: true},
		)
	}
	return qs
}

// resultKey canonicalizes a skyline for comparison: sorted object IDs with
// their vectors, independent of report order.
func resultKey(t *testing.T, res *Result) string {
	t.Helper()
	pts := append([]SkylinePoint(nil), res.Points...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].Object.ID < pts[j].Object.ID })
	var sb []byte
	for _, p := range pts {
		sb = append(sb, fmt.Sprintf("%d:", p.Object.ID)...)
		for _, v := range p.Vector {
			sb = append(sb, fmt.Sprintf("%.9f,", v)...)
		}
		sb = append(sb, ';')
	}
	return string(sb)
}

// TestPoolMatchesSerialStress is the tentpole acceptance test: at least 8
// workers on one shared pool answering a mixed CE/EDC/LBC workload must
// produce skylines identical to serial execution. Run it under -race.
func TestPoolMatchesSerialStress(t *testing.T) {
	eng, n := poolTestEngine(t)
	queries := mixedQueries(n)

	// Serial ground truth on the source engine (which NewPool leaves free).
	want := make([]string, len(queries))
	for i, q := range queries {
		res, err := eng.Skyline(q)
		if err != nil {
			t.Fatalf("serial query %d: %v", i, err)
		}
		want[i] = resultKey(t, res)
	}

	pool, err := NewPool(eng, PoolConfig{Workers: 8, QueueDepth: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.Workers() != 8 {
		t.Fatalf("Workers() = %d, want 8", pool.Workers())
	}

	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(queries))
	for r := 0; r < rounds; r++ {
		for i, q := range queries {
			wg.Add(1)
			go func(i int, q Query) {
				defer wg.Done()
				res, err := pool.Skyline(context.Background(), q)
				if err != nil {
					errs <- fmt.Errorf("pooled query %d: %v", i, err)
					return
				}
				if got := resultKey(t, res); got != want[i] {
					errs <- fmt.Errorf("pooled query %d diverged from serial:\n got %s\nwant %s", i, got, want[i])
				}
				if res.Stats.NetworkPages <= 0 || res.Stats.Candidates <= 0 {
					errs <- fmt.Errorf("pooled query %d: stats not populated: %+v", i, res.Stats)
				}
			}(i, q)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestEngineContextCancelled is the cancellation acceptance test: a query
// with an already-cancelled context returns ctx.Err() from all three
// algorithms without completing the expansion.
func TestEngineContextCancelled(t *testing.T) {
	eng, n := poolTestEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pts := n.GenerateQueryPoints(3, 0.1, 7)
	for _, alg := range []Algorithm{CEAlg, EDCAlg, LBCAlg} {
		res, err := eng.SkylineContext(ctx, Query{Points: pts, Algorithm: alg})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: err = %v, want context.Canceled", alg, err)
		}
		if res != nil {
			t.Errorf("%v: got a result despite cancellation", alg)
		}
	}
	// The iterator constructor also refuses cancelled contexts.
	if _, err := eng.SkylineIterContext(ctx, Query{Points: pts}); !errors.Is(err, context.Canceled) {
		t.Errorf("SkylineIterContext err = %v, want context.Canceled", err)
	}
	// The engine still works with a live context afterwards.
	if _, err := eng.Skyline(Query{Points: pts, Algorithm: LBCAlg}); err != nil {
		t.Fatalf("engine broken after cancelled query: %v", err)
	}
}

// TestEngineContextDeadline cancels mid-expansion: an extremely short
// deadline must abort the Dijkstra/A* loops, not just the upfront check.
func TestEngineContextDeadline(t *testing.T) {
	n, err := Generate(NetworkSpec{Name: "ddl", Nodes: 3000, Edges: 3900,
		Jitter: 0.3, MaxStretch: 0.2, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(n, n.GenerateObjects(0.5, 0, 17), EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pts := n.GenerateQueryPoints(4, 0.1, 7)
	deadline := 50 * time.Microsecond
	sawCancel := false
	for _, alg := range []Algorithm{CEAlg, EDCAlg, LBCAlg} {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		_, err := eng.SkylineContext(ctx, Query{Points: pts, Algorithm: alg})
		cancel()
		if err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("%v: err = %v, want DeadlineExceeded", alg, err)
			}
			sawCancel = true
		}
	}
	// On a pathologically fast machine every query could finish inside the
	// deadline; the already-cancelled test above covers determinism, this
	// one exercises the in-loop checks whenever timing allows.
	if !sawCancel {
		t.Skip("all queries beat a 50µs deadline; in-loop cancellation not observable here")
	}
}

// TestPoolCancelled covers cancellation at the pool layer: a cancelled
// context fails both the wait for a worker and the query itself.
func TestPoolCancelled(t *testing.T) {
	eng, n := poolTestEngine(t)
	pool, err := NewPool(eng, PoolConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pts := n.GenerateQueryPoints(2, 0.1, 3)
	for _, alg := range []Algorithm{CEAlg, EDCAlg, LBCAlg} {
		if _, err := pool.Skyline(ctx, Query{Points: pts, Algorithm: alg}); !errors.Is(err, context.Canceled) {
			t.Errorf("%v: err = %v, want context.Canceled", alg, err)
		}
	}
	if _, err := pool.SkylineIter(ctx, Query{Points: pts}); !errors.Is(err, context.Canceled) {
		t.Errorf("SkylineIter err = %v, want context.Canceled", err)
	}
	// The pool is intact: live-context queries still succeed.
	if _, err := pool.Skyline(context.Background(), Query{Points: pts, Algorithm: LBCAlg}); err != nil {
		t.Fatalf("pool broken after cancelled queries: %v", err)
	}
}

// TestPoolSaturated drives the bounded admission queue to its limit
// deterministically: one worker held by an iterator, the queue filled with
// blocked queries, and the next arrival must fail fast.
func TestPoolSaturated(t *testing.T) {
	eng, n := poolTestEngine(t)
	const depth = 3
	pool, err := NewPool(eng, PoolConfig{Workers: 1, QueueDepth: depth})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	pts := n.GenerateQueryPoints(2, 0.1, 3)

	// Check out the only worker and hold it via the iterator.
	it, err := pool.SkylineIter(context.Background(), Query{Points: pts})
	if err != nil {
		t.Fatal(err)
	}

	// Fill the admission queue with queries that wait for the worker.
	blockCtx, cancelBlocked := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	blockedErrs := make([]error, depth)
	for i := 0; i < depth; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, blockedErrs[i] = pool.Skyline(blockCtx, Query{Points: pts, Algorithm: LBCAlg})
		}(i)
	}
	// Wait until all admission tokens (worker + queue depth) are taken.
	deadline := time.Now().Add(5 * time.Second)
	for len(pool.queue) != 1+depth {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: %d/%d tokens", len(pool.queue), 1+depth)
		}
		time.Sleep(time.Millisecond)
	}

	// The pool is saturated: the next arrival fails fast.
	if _, err := pool.Skyline(context.Background(), Query{Points: pts}); !errors.Is(err, ErrPoolSaturated) {
		t.Fatalf("err = %v, want ErrPoolSaturated", err)
	}
	if _, err := pool.SkylineIter(context.Background(), Query{Points: pts}); !errors.Is(err, ErrPoolSaturated) {
		t.Fatalf("iter err = %v, want ErrPoolSaturated", err)
	}

	// Cancel the waiters; they must release their tokens.
	cancelBlocked()
	wg.Wait()
	for i, err := range blockedErrs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("blocked query %d: err = %v, want context.Canceled", i, err)
		}
	}
	// Release the worker; the pool serves again, and every submission
	// that ended gave its admission token back.
	it.Close()
	if _, err := pool.Skyline(context.Background(), Query{Points: pts, Algorithm: CEAlg}); err != nil {
		t.Fatalf("pool did not recover after saturation: %v", err)
	}
	if held := len(pool.queue); held != 0 {
		t.Fatalf("%d admission tokens still held with the pool at rest", held)
	}
}

// TestPoolClose verifies shutdown semantics.
func TestPoolClose(t *testing.T) {
	eng, n := poolTestEngine(t)
	pool, err := NewPool(eng, PoolConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	pts := n.GenerateQueryPoints(2, 0.1, 3)
	if _, err := pool.Skyline(context.Background(), Query{Points: pts}); err != nil {
		t.Fatal(err)
	}
	pool.Close()
	pool.Close() // idempotent
	if _, err := pool.Skyline(context.Background(), Query{Points: pts}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("err = %v, want ErrPoolClosed", err)
	}
	if _, err := pool.SkylineIter(context.Background(), Query{Points: pts}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("iter err = %v, want ErrPoolClosed", err)
	}
	// The source engine is unaffected by pool shutdown.
	if _, err := eng.Skyline(Query{Points: pts, Algorithm: LBCAlg}); err != nil {
		t.Fatalf("source engine broken after pool close: %v", err)
	}
}

// TestPoolConfig covers defaulting and validation.
func TestPoolConfig(t *testing.T) {
	eng, _ := poolTestEngine(t)
	pool, err := NewPool(eng, PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.Workers() != runtime.GOMAXPROCS(0) {
		t.Errorf("default Workers = %d, want GOMAXPROCS = %d", pool.Workers(), runtime.GOMAXPROCS(0))
	}
	if _, err := NewPool(eng, PoolConfig{QueueDepth: -1}); err == nil {
		t.Error("negative QueueDepth accepted")
	}
}

// TestPoolIterator checks the streaming path: points and stats match the
// serial iterator, and the worker is returned on exhaustion.
func TestPoolIterator(t *testing.T) {
	eng, n := poolTestEngine(t)
	pool, err := NewPool(eng, PoolConfig{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	pts := n.GenerateQueryPoints(3, 0.1, 5)

	serial, err := eng.Skyline(Query{Points: pts, Algorithm: LBCAlg})
	if err != nil {
		t.Fatal(err)
	}

	it, err := pool.SkylineIter(context.Background(), Query{Points: pts})
	if err != nil {
		t.Fatal(err)
	}
	var got []SkylinePoint
	for {
		p, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, p)
	}
	if len(got) != len(serial.Points) {
		t.Fatalf("iterator streamed %d points, serial answered %d", len(got), len(serial.Points))
	}
	wantIDs := map[int32]bool{}
	for _, p := range serial.Points {
		wantIDs[p.Object.ID] = true
	}
	for _, p := range got {
		if !wantIDs[p.Object.ID] {
			t.Errorf("iterator streamed object %d not in serial skyline", p.Object.ID)
		}
	}
	st := it.Stats()
	if st.Candidates <= 0 || st.NetworkPages <= 0 {
		t.Errorf("iterator stats not populated: %+v", st)
	}
	if st.InitialPages <= 0 || st.InitialPages > st.NetworkPages {
		t.Errorf("InitialPages = %d out of range (0, %d]", st.InitialPages, st.NetworkPages)
	}
	// Next after exhaustion stays terminal; Close is idempotent.
	if _, ok, err := it.Next(); ok || err != nil {
		t.Errorf("Next after exhaustion = (%v, %v)", ok, err)
	}
	it.Close()

	// Exhaustion released the worker: the single-worker pool serves again.
	done := make(chan error, 1)
	go func() {
		_, err := pool.Skyline(context.Background(), Query{Points: pts, Algorithm: LBCAlg})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("query after iterator exhaustion: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker leaked: pool query blocked after iterator exhaustion")
	}
}

// TestInitialPagesSurfaced checks the satellite fix: core.Metrics
// InitialPages now reaches the public Stats on the blocking path too. It
// is stamped when the first point is reported: on this query every
// algorithm faults pages after that, and the iterator's live count right
// after its first point is the stamp exactly.
func TestInitialPagesSurfaced(t *testing.T) {
	eng, n := poolTestEngine(t)
	pts := n.GenerateQueryPoints(3, 0.1, 5)
	for _, alg := range []Algorithm{CEAlg, EDCAlg, LBCAlg} {
		res, err := eng.Skyline(Query{Points: pts, Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.InitialPages <= 0 {
			t.Errorf("%v: InitialPages = %d, want > 0", alg, res.Stats.InitialPages)
		}
		if res.Stats.InitialPages >= res.Stats.NetworkPages {
			t.Errorf("%v: InitialPages = %d, not below NetworkPages = %d",
				alg, res.Stats.InitialPages, res.Stats.NetworkPages)
		}
	}
	it, err := eng.SkylineIterContext(context.Background(), Query{Points: pts})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := it.Next(); !ok || err != nil {
		t.Fatalf("first Next = (%v, %v)", ok, err)
	}
	first := it.Stats().NetworkPages
	for ok := true; ok; {
		if _, ok, err = it.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if got := it.Stats().InitialPages; got != first {
		t.Errorf("iterator: InitialPages = %d, %d pages were faulted at its first point", got, first)
	}
}

// TestQuerySourceField checks the satellite fix: Query.Source selects the
// LBC nearest-neighbor source and out-of-range values are rejected rather
// than silently clamped.
func TestQuerySourceField(t *testing.T) {
	eng, n := poolTestEngine(t)
	pts := n.GenerateQueryPoints(3, 0.1, 5)
	want, err := eng.Skyline(Query{Points: pts, Algorithm: LBCAlg})
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < len(pts); src++ {
		res, err := eng.Skyline(Query{Points: pts, Algorithm: LBCAlg, Source: src})
		if err != nil {
			t.Fatalf("source %d: %v", src, err)
		}
		if got := resultKey(t, res); got != resultKey(t, want) {
			t.Errorf("source %d changed the skyline", src)
		}
		// The first reported point must be the source's nearest skyline
		// object: no other skyline point is closer to the source.
		first := res.Points[0]
		for _, p := range res.Points[1:] {
			if p.Distances[src] < first.Distances[src]-1e-9 {
				t.Errorf("source %d: first point dist %v beaten by %v",
					src, first.Distances[src], p.Distances[src])
			}
		}
	}
	for _, bad := range []int{-1, len(pts), len(pts) + 3} {
		if _, err := eng.Skyline(Query{Points: pts, Algorithm: LBCAlg, Source: bad}); err == nil {
			t.Errorf("Source = %d accepted, want error", bad)
		}
		if _, err := eng.SkylineIterContext(context.Background(), Query{Points: pts, Source: bad}); err == nil {
			t.Errorf("iterator Source = %d accepted, want error", bad)
		}
	}
	// Source is documented as ignored when Alternate is set, so an
	// out-of-range value must not fail an alternate query.
	if _, err := eng.Skyline(Query{Points: pts, Algorithm: LBCAlg, Alternate: true, Source: 99}); err != nil {
		t.Errorf("Alternate query rejected ignored Source: %v", err)
	}
}

// TestPoolIteratorStickyError pins the iterator error contract: after a
// failed Next, later calls keep returning the terminal error instead of
// reporting a clean (false, nil) exhaustion. The old code forgot the error
// at the first terminal call, so a consumer that only checked the final
// Next mistook a cancelled stream for a complete skyline.
func TestPoolIteratorStickyError(t *testing.T) {
	eng, n := poolTestEngine(t)
	pool, err := NewPool(eng, PoolConfig{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	pts := n.GenerateQueryPoints(3, 0.1, 5)

	ctx, cancel := context.WithCancel(context.Background())
	it, err := pool.SkylineIter(ctx, Query{Points: pts})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	var terminal error
	for {
		_, ok, err := it.Next()
		if err != nil {
			terminal = err
			break
		}
		if !ok {
			t.Fatal("cancelled iterator reported clean exhaustion")
		}
	}
	if !errors.Is(terminal, context.Canceled) {
		t.Fatalf("iterator failed with %v, want context.Canceled", terminal)
	}
	// The regression: every later Next must keep reporting the error.
	for i := 0; i < 3; i++ {
		if _, ok, err := it.Next(); ok || !errors.Is(err, context.Canceled) {
			t.Fatalf("Next %d after failure = (ok=%v, err=%v), want (false, context.Canceled)", i, ok, err)
		}
	}
	// The failure released the worker; a clean Close stays clean.
	if _, err := pool.Skyline(context.Background(), Query{Points: pts, Algorithm: LBCAlg}); err != nil {
		t.Fatalf("pool query after failed iterator: %v", err)
	}
	it.Close()
}
