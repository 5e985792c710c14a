package sp

// Differential fuzz of the dense epoch-stamped searchers against the
// preserved map-based implementations (oracle_test.go) and the brute-force
// oracle. The dense frontier breaks key ties on node id exactly like the
// map-era pqueue.Indexed, so expansion order — and with it every work
// counter and PLB sequence — must be bit-identical, not merely equivalent.
// The A* half of the fuzz installs the landmark table, which imports this
// package, so it lives in the external test package (astar_oracle_test.go).

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"roadskyline/internal/bruteforce"
	"roadskyline/internal/distcache"
	"roadskyline/internal/graph"
	"roadskyline/internal/testnet"
)

// fuzzGraph draws a random or degenerate topology, sometimes with isolated
// nodes appended so dense arrays cover ids no edge mentions.
func fuzzGraph(t *testing.T, rng *rand.Rand) *graph.Graph {
	t.Helper()
	n := 8 + rng.Intn(60)
	var g *graph.Graph
	if rng.Intn(2) == 0 {
		g = testnet.RandomGraph(rng, n)
	} else {
		g = testnet.DegenerateGraph(rng, n)
	}
	if rng.Intn(3) == 0 {
		// Re-build with isolated trailing nodes: ids exist, no adjacency.
		b := graph.NewBuilder(g.NumNodes()+2, g.NumEdges())
		for i := 0; i < g.NumNodes(); i++ {
			b.AddNode(g.NodePoint(graph.NodeID(i)))
		}
		b.AddNode(g.NodePoint(0))
		b.AddNode(g.NodePoint(0))
		for i := 0; i < g.NumEdges(); i++ {
			e := g.Edge(graph.EdgeID(i))
			b.AddEdge(e.U, e.V, e.Length)
		}
		g = b.MustBuild()
	}
	return g
}

// TestDenseDijkstraMatchesMapOracle locks the dense Dijkstra to the
// map-based implementation hit for hit: identical object stream, identical
// expansion counts at every step, identical settled sets, and exact
// distances per the brute-force oracle.
func TestDenseDijkstraMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sc := NewScratch() // reused across trials: epoch reuse is part of the test
	for trial := 0; trial < 80; trial++ {
		g := fuzzGraph(t, rng)
		objs := testnet.RandomObjects(rng, g, rng.Intn(30), 0)
		src := testnet.RandomLocations(rng, g, 1)[0]
		net := testnet.NewMemNet(g, objs)

		d, err := NewDijkstraWith(context.Background(), net, src, sc)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		o, err := newMapDijkstra(context.Background(), net, src)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := bruteforce.ObjectDistances(g, objs, src)
		for step := 0; ; step++ {
			dh, dok, derr := d.NextObject()
			oh, ook, oerr := o.NextObject()
			if derr != nil || oerr != nil {
				t.Fatalf("trial %d step %d: errs %v / %v", trial, step, derr, oerr)
			}
			if dok != ook {
				t.Fatalf("trial %d step %d: dense ok=%v, oracle ok=%v", trial, step, dok, ook)
			}
			if d.NodesExpanded() != o.NodesExpanded() {
				t.Fatalf("trial %d step %d: dense expanded %d, oracle %d", trial, step, d.NodesExpanded(), o.NodesExpanded())
			}
			if !dok {
				break
			}
			if dh.ID != oh.ID || dh.Dist != oh.Dist {
				t.Fatalf("trial %d step %d: dense hit %+v, oracle %+v", trial, step, dh, oh)
			}
			if w := want[dh.ID]; math.Abs(dh.Dist-w) > 1e-9 {
				t.Fatalf("trial %d: object %d dist %v, bruteforce %v", trial, dh.ID, dh.Dist, w)
			}
		}
		for v := 0; v < g.NumNodes(); v++ {
			dd, dok := d.SettledDist(graph.NodeID(v))
			od, ook := o.SettledDist(graph.NodeID(v))
			if dok != ook || (dok && dd != od) {
				t.Fatalf("trial %d: SettledDist(%d) dense (%v,%v), oracle (%v,%v)", trial, v, dd, dok, od, ook)
			}
		}
	}
}

// TestDijkstraSnapshotThroughDistcache round-trips a partially drained
// dense Dijkstra through an actual distcache.Cache. A restored searcher
// restarts the object stream from the beginning (a cache-hit query wants
// every object, not the donor's remaining suffix), so the check is: the
// restored drain reports exactly the objects and distances of a fresh
// full drain, still in ascending distance order.
func TestDijkstraSnapshotThroughDistcache(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 40; trial++ {
		g := fuzzGraph(t, rng)
		objs := testnet.RandomObjects(rng, g, 5+rng.Intn(25), 0)
		src := testnet.RandomLocations(rng, g, 1)[0]
		net := testnet.NewMemNet(g, objs)

		drain := func(d *Dijkstra) map[graph.ObjectID]float64 {
			t.Helper()
			got := map[graph.ObjectID]float64{}
			prev := math.Inf(-1)
			for {
				hit, ok, err := d.NextObject()
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if !ok {
					return got
				}
				if hit.Dist < prev {
					t.Fatalf("trial %d: order violated: %v after %v", trial, hit.Dist, prev)
				}
				prev = hit.Dist
				if _, dup := got[hit.ID]; dup {
					t.Fatalf("trial %d: object %d reported twice", trial, hit.ID)
				}
				got[hit.ID] = hit.Dist
			}
		}

		full, err := NewDijkstra(context.Background(), net, src)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := drain(full)

		part, err := NewDijkstra(context.Background(), net, src)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := rng.Intn(6); i > 0; i-- {
			if _, ok, _ := part.NextObject(); !ok {
				break
			}
		}
		cache := distcache.New(distcache.Config{Entries: 4})
		cache.Put(distcache.KindDijkstra, 0, part.Snapshot())
		st, ok := cache.Get(distcache.KindDijkstra, 0, src)
		if !ok {
			t.Fatalf("trial %d: snapshot not served back", trial)
		}
		got := drain(NewDijkstraFrom(context.Background(), net, st))
		if len(got) != len(want) {
			t.Fatalf("trial %d: restored reported %d objects, fresh %d", trial, len(got), len(want))
		}
		for id, w := range want {
			if g, ok := got[id]; !ok || math.Abs(g-w) > 1e-9 {
				t.Fatalf("trial %d: object %d restored dist %v (ok=%v), fresh %v", trial, id, g, ok, w)
			}
		}
	}
}

// TestAStarSnapshotThroughDistcache round-trips a dense A* wavefront
// through an actual distcache.Cache and checks restored sessions resolve
// the same distances and paths as the original searcher.
func TestAStarSnapshotThroughDistcache(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 40; trial++ {
		g := fuzzGraph(t, rng)
		net := testnet.NewMemNet(g, nil)
		src := testnet.RandomLocations(rng, g, 1)[0]
		srcPt := g.Point(src)

		a, err := NewAStar(context.Background(), net, src, srcPt)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		warm := testnet.RandomLocations(rng, g, 2)
		for _, dest := range warm {
			if _, err := a.DistanceTo(dest, g.Point(dest)); err != nil {
				t.Fatalf("trial %d: warmup: %v", trial, err)
			}
		}
		cache := distcache.New(distcache.Config{Entries: 4})
		cache.Put(distcache.KindAStar, 1, a.Snapshot())
		st, ok := cache.Get(distcache.KindAStar, 1, src)
		if !ok {
			t.Fatalf("trial %d: snapshot not served back", trial)
		}
		restored := NewAStarFrom(context.Background(), net, st, srcPt)
		for _, dest := range testnet.RandomLocations(rng, g, 4) {
			destPt := g.Point(dest)
			want, err := a.DistanceTo(dest, destPt)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			got, err := restored.DistanceTo(dest, destPt)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			// The restored searcher expanded from the same wavefront but may
			// have settled nodes in a different order before the snapshot;
			// distances are exact either way.
			if math.Abs(got-want) > 1e-9 && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
				t.Fatalf("trial %d: restored dist %v, original %v", trial, got, want)
			}
		}
	}
}
