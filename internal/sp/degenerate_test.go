package sp_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"roadskyline/internal/bruteforce"
	"roadskyline/internal/geom"
	"roadskyline/internal/graph"
	"roadskyline/internal/landmark"
	"roadskyline/internal/sp"
	"roadskyline/internal/testnet"
)

// selfLoopNet builds a self-loop of length 10 on node 0 plus a spur edge
// 0-1 of length 5: the minimal topology where both seeding paths (node
// seeds and source-edge object seeds) historically lost the shorter side
// of the loop.
func selfLoopNet(objs []graph.Object) (*graph.Graph, *testnet.MemNet) {
	b := graph.NewBuilder(2, 2)
	b.AddNode(geom.Point{X: 0, Y: 0})
	b.AddNode(geom.Point{X: 5, Y: 0})
	b.AddEdge(0, 0, 10) // edge 0: the self-loop
	b.AddEdge(0, 1, 5)  // edge 1: the spur
	g := b.MustBuild()
	return g, testnet.NewMemNet(g, objs)
}

// TestDijkstraSelfLoopObjectWraparound: source at offset 1 and object at
// offset 9 on a self-loop of length 10. Walking the short way around
// through the node costs 1+1 = 2; scanning the edge one-directionally used
// to report the 8-unit walk instead.
func TestDijkstraSelfLoopObjectWraparound(t *testing.T) {
	objs := []graph.Object{{ID: 0, Loc: graph.Location{Edge: 0, Offset: 9}}}
	_, net := selfLoopNet(objs)
	d, err := sp.NewDijkstraWith(context.Background(), net, graph.Location{Edge: 0, Offset: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	hit, ok, err := d.NextObject()
	if err != nil || !ok {
		t.Fatalf("NextObject: ok=%v err=%v", ok, err)
	}
	if math.Abs(hit.Dist-2) > 1e-12 {
		t.Fatalf("self-loop wraparound distance = %v, want 2 (through the node)", hit.Dist)
	}
}

// TestAStarSelfLoopSeeding: an A* source at offset 1 on the self-loop must
// seed node 0 at distance 1, not at 10-1 = 9 — the map-overwrite seeding
// kept whichever side was written last.
func TestAStarSelfLoopSeeding(t *testing.T) {
	g, net := selfLoopNet(nil)
	src := graph.Location{Edge: 0, Offset: 1}
	a, err := sp.NewAStarWith(context.Background(), net, src, g.Point(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	dest := graph.Location{Edge: 1, Offset: 2}
	got, err := a.NewSession(dest, g.Point(dest)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-3) > 1e-12 {
		t.Fatalf("distance across self-loop source = %v, want 3 (1 to the node + 2 on the spur)", got)
	}
	// Destination on the self-loop itself: reachable from either side of
	// its single endpoint.
	loopDest := graph.Location{Edge: 0, Offset: 9}
	got, err = a.NewSession(loopDest, g.Point(loopDest)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("distance to self-loop destination = %v, want 2", got)
	}
}

// TestDegenerateGraphOracle fuzzes both searchers over graphs with
// self-loops and parallel edges, including boundary offsets (0 and the
// full edge length), against the brute-force oracle — with and without the
// landmark heuristic attached.
func TestDegenerateGraphOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		g := testnet.DegenerateGraph(rng, 8+rng.Intn(30))
		objs := testnet.RandomObjects(rng, g, 1+rng.Intn(25), 0)
		// Push some offsets to the edge boundaries.
		for i := range objs {
			switch rng.Intn(4) {
			case 0:
				objs[i].Loc.Offset = 0
			case 1:
				objs[i].Loc.Offset = g.Edge(objs[i].Loc.Edge).Length
			}
		}
		src := testnet.RandomLocations(rng, g, 1)[0]
		net := testnet.NewMemNet(g, objs)

		want := bruteforce.ObjectDistances(g, objs, src)
		d, err := sp.NewDijkstraWith(context.Background(), net, src, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := make(map[graph.ObjectID]float64)
		for {
			hit, ok, err := d.NextObject()
			if err != nil {
				t.Fatalf("trial %d: NextObject: %v", trial, err)
			}
			if !ok {
				break
			}
			if _, dup := got[hit.ID]; dup {
				t.Fatalf("trial %d: object %d reported twice", trial, hit.ID)
			}
			got[hit.ID] = hit.Dist
		}
		for i, w := range want {
			gd, ok := got[graph.ObjectID(i)]
			if math.IsInf(w, 1) != !ok {
				t.Fatalf("trial %d: object %d reachability mismatch (oracle %v, reported %v)", trial, i, w, ok)
			}
			if ok && math.Abs(gd-w) > 1e-9 {
				t.Fatalf("trial %d: object %d dist %v, oracle %v", trial, i, gd, w)
			}
		}

		// A*: the same source against every object location, landmarks off
		// and on; distances must match the oracle either way.
		for pass, tab := range map[string]*landmark.Table{"euclid": nil, "landmarks": landmark.Build(g, 4)} {
			a, err := sp.NewAStarWith(context.Background(), net, src, g.Point(src), nil)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if tab != nil {
				a.UseHeuristicSource(tab)
			}
			for i, o := range objs {
				gd, err := a.NewSession(o.Loc, g.Point(o.Loc)).Run()
				if err != nil {
					t.Fatalf("trial %d (%s): session to object %d: %v", trial, pass, i, err)
				}
				if math.IsInf(want[i], 1) != math.IsInf(gd, 1) || (!math.IsInf(gd, 1) && math.Abs(gd-want[i]) > 1e-9) {
					t.Fatalf("trial %d (%s): object %d dist %v, oracle %v", trial, pass, i, gd, want[i])
				}
			}
		}
	}
}
