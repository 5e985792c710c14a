package sp

// Allocation-regression gate for the dense search state. A warm Scratch
// must make the steady state allocation-free: draining a Dijkstra or
// running chained A* sessions performs zero heap allocations per node
// expansion — the only allocations per query are the fixed searcher and
// session headers. If a map, slice growth, or boxing sneaks back into the
// hot path, these tests fail with the measured count.

import (
	"context"
	"math/rand"
	"testing"

	"roadskyline/internal/testnet"
)

func TestDijkstraSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g := testnet.RandomGraph(rng, 600)
	objs := testnet.RandomObjects(rng, g, 80, 0)
	src := testnet.RandomLocations(rng, g, 1)[0]
	net := testnet.NewMemNet(g, objs)
	ctx := context.Background()

	sc := NewScratch()
	drain := func() (expanded, hits int) {
		d, err := NewDijkstraWith(ctx, net, src, sc)
		if err != nil {
			t.Fatal(err)
		}
		for {
			_, ok, err := d.NextObject()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return d.NodesExpanded(), hits
			}
			hits++
		}
	}
	// Warm: the first drains grow every dense array, buffer and heap to
	// the graph's working-set size.
	drain()
	drain()

	var expanded, hits int
	avg := testing.AllocsPerRun(10, func() {
		expanded, hits = drain()
	})
	if expanded < 500 || hits < 50 {
		t.Fatalf("drain did no work: %d expansions, %d hits", expanded, hits)
	}
	// The one allocation is the searcher header itself; every expansion
	// must be free.
	if avg > 1 {
		t.Fatalf("full drain allocated %.1f times (%d expansions), want <= 1 (searcher header only)", avg, expanded)
	}
}

func TestAStarSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	g := testnet.RandomGraph(rng, 600)
	net := testnet.NewMemNet(g, nil)
	src := testnet.RandomLocations(rng, g, 1)[0]
	srcPt := g.Point(src)
	dests := testnet.RandomLocations(rng, g, 8)
	ctx := context.Background()

	sc := NewScratch()
	run := func() (expanded int) {
		a, err := NewAStarWith(ctx, net, src, srcPt, sc)
		if err != nil {
			t.Fatal(err)
		}
		for _, dest := range dests {
			s := a.NewSession(dest, g.Point(dest))
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
		}
		return a.NodesExpanded()
	}
	run()
	run()

	var expanded int
	avg := testing.AllocsPerRun(10, func() {
		expanded = run()
	})
	if expanded < 300 {
		t.Fatalf("sessions did no work: %d expansions", expanded)
	}
	// One searcher header plus one session header per destination; the
	// expansion loop itself must be allocation-free.
	if limit := float64(1 + len(dests)); avg > limit {
		t.Fatalf("chained sessions allocated %.1f times (%d expansions), want <= %.0f (fixed headers only)", avg, expanded, limit)
	}
}
