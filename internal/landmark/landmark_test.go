package landmark

import (
	"math"
	"math/rand"
	"testing"

	"roadskyline/internal/bruteforce"
	"roadskyline/internal/geom"
	"roadskyline/internal/graph"
	"roadskyline/internal/testnet"
)

// TestNodeBoundAdmissible checks lb(u, v) <= d(u, v) for all node pairs of
// randomized graphs, and that the bound is exact when one side is a
// landmark.
func TestNodeBoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		g := testnet.RandomGraph(rng, 40)
		tab := Build(g, 6)
		if tab == nil {
			t.Fatal("Build returned nil for a nonempty graph")
		}
		for u := 0; u < g.NumNodes(); u++ {
			dist := bruteforce.NodeDistances(g, nodeLoc(g, graph.NodeID(u)))
			for v := 0; v < g.NumNodes(); v++ {
				lb := tab.NodeBound(graph.NodeID(u), graph.NodeID(v))
				if lb > dist[v]+1e-9 {
					t.Fatalf("trial %d: NodeBound(%d,%d) = %g exceeds true distance %g", trial, u, v, lb, dist[v])
				}
			}
		}
		// From a landmark itself the triangle bound degenerates to the
		// exact distance: |d(L,L) - d(L,v)| = d(L,v).
		l := tab.Nodes()[0]
		dist := bruteforce.NodeDistances(g, nodeLoc(g, l))
		for v := 0; v < g.NumNodes(); v++ {
			lb := tab.NodeBound(l, graph.NodeID(v))
			if math.Abs(lb-dist[v]) > 1e-9 {
				t.Fatalf("trial %d: bound from landmark %d to %d = %g, want exact %g", trial, l, v, lb, dist[v])
			}
		}
	}
}

// TestTargetBoundAdmissibleAndConsistent checks the per-target location
// bound against exact distances, and its consistency across every edge —
// the property the no-reopen A* relies on.
func TestTargetBoundAdmissibleAndConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		g := testnet.RandomGraph(rng, 40)
		tab := Build(g, 6)
		for _, dest := range testnet.RandomLocations(rng, g, 8) {
			dist := bruteforce.NodeDistances(g, dest)
			th := tab.ForTarget(dest, g.Point(dest))
			for u := 0; u < g.NumNodes(); u++ {
				if lb := th.Bound(graph.NodeID(u)); lb > dist[u]+1e-9 {
					t.Fatalf("trial %d: Bound(%d) = %g exceeds true distance %g to %+v", trial, u, lb, dist[u], dest)
				}
			}
			for eid := 0; eid < g.NumEdges(); eid++ {
				e := g.Edge(graph.EdgeID(eid))
				bu, bv := th.Bound(e.U), th.Bound(e.V)
				if math.IsInf(bu, 1) || math.IsInf(bv, 1) {
					continue
				}
				if math.Abs(bu-bv) > e.Length+1e-9 {
					t.Fatalf("trial %d: inconsistent bound across edge %d: |%g - %g| > %g", trial, eid, bu, bv, e.Length)
				}
			}
		}
	}
}

// TestDegenerateTopology exercises self-loop and parallel-edge graphs,
// including a self-loop destination edge.
func TestDegenerateTopology(t *testing.T) {
	b := graph.NewBuilder(3, 4)
	b.AddNode(geom.Point{X: 0, Y: 0})
	b.AddNode(geom.Point{X: 1, Y: 0})
	b.AddNode(geom.Point{X: 2, Y: 0})
	e01a := b.AddEdge(0, 1, 5)
	b.AddEdge(0, 1, 9) // parallel, longer
	loop := b.AddEdge(1, 1, 10)
	b.AddEdge(1, 2, 3)
	g := b.MustBuild()
	tab := Build(g, 3)

	for _, dest := range []graph.Location{
		{Edge: loop, Offset: 1},
		{Edge: loop, Offset: 9},
		{Edge: e01a, Offset: 0},
		{Edge: e01a, Offset: 5},
	} {
		dist := bruteforce.NodeDistances(g, dest)
		th := tab.ForTarget(dest, g.Point(dest))
		for u := 0; u < g.NumNodes(); u++ {
			if lb := th.Bound(graph.NodeID(u)); lb > dist[u]+1e-9 {
				t.Fatalf("Bound(%d) = %g exceeds true distance %g to %+v", u, lb, dist[u], dest)
			}
		}
	}
	// The self-loop target at offset 1 is 1 from node 1 either way around;
	// from node 2 the exact distance is 4 and the landmark bound must reach
	// it exactly (node 1 or 2 is a landmark on this 3-node graph).
	th := tab.ForTarget(graph.Location{Edge: loop, Offset: 1}, g.Point(graph.Location{Edge: loop, Offset: 1}))
	if lb := th.Bound(2); math.Abs(lb-4) > 1e-9 {
		t.Fatalf("self-loop target bound from node 2 = %g, want 4", lb)
	}
}

// TestDisconnectedComponents checks that every component receives a
// landmark and cross-component bounds are +Inf.
func TestDisconnectedComponents(t *testing.T) {
	b := graph.NewBuilder(4, 2)
	for i := 0; i < 4; i++ {
		b.AddNode(geom.Point{X: float64(i), Y: 0})
	}
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	g := b.MustBuild()
	tab := Build(g, 2)

	seen := map[bool]bool{} // component of each landmark: node < 2?
	for _, l := range tab.Nodes() {
		seen[l < 2] = true
	}
	if !seen[true] || !seen[false] {
		t.Fatalf("farthest-point sampling left a component without a landmark: %v", tab.Nodes())
	}
	if lb := tab.NodeBound(0, 2); !math.IsInf(lb, 1) {
		t.Fatalf("cross-component NodeBound = %g, want +Inf", lb)
	}
	if lb := tab.NodeBound(0, 1); math.IsInf(lb, 1) || lb > 1+1e-9 {
		t.Fatalf("same-component NodeBound = %g, want finite <= 1", lb)
	}
	th := tab.ForTarget(graph.Location{Edge: 0, Offset: 0.5}, g.Point(graph.Location{Edge: 0, Offset: 0.5}))
	if lb := th.Bound(3); !math.IsInf(lb, 1) {
		t.Fatalf("cross-component target bound = %g, want +Inf", lb)
	}
}

// TestFiniteTableFastPath pins the guard-free Bound loop to the guarded one
// bit for bit on connected graphs (where Build must detect that no entry is
// +Inf), for k within and beyond the target's inline rows, and checks that a
// disconnected graph keeps the guards.
func TestFiniteTableFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 6; trial++ {
		g := testnet.RandomGraph(rng, 60)
		k := DefaultK
		if trial%2 == 1 {
			k = 2*DefaultK + 3 // rows spill out of the inline array
		}
		tab := Build(g, k)
		if g.Connected() != tab.finite {
			t.Fatalf("trial %d: connected=%v but finite=%v", trial, g.Connected(), tab.finite)
		}
		if !tab.finite {
			continue
		}
		for _, dest := range testnet.RandomLocations(rng, g, 6) {
			fast := tab.ForTarget(dest, g.Point(dest)).(*target)
			guarded := *fast
			guarded.finite = false
			for u := 0; u < g.NumNodes(); u++ {
				if a, b := fast.Bound(graph.NodeID(u)), guarded.Bound(graph.NodeID(u)); a != b {
					t.Fatalf("trial %d: Bound(%d) fast %v, guarded %v", trial, u, a, b)
				}
			}
		}
	}
	b := graph.NewBuilder(4, 2)
	for i := 0; i < 4; i++ {
		b.AddNode(geom.Point{X: float64(i), Y: 0})
	}
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	if tab := Build(b.MustBuild(), 2); tab.finite {
		t.Fatal("a disconnected graph's table reports finite")
	}
}

// TestForTargetOneAllocation gates the per-session cost of a target: the
// struct carries both endpoint rows inline at the default landmark count.
func TestForTargetOneAllocation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := testnet.RandomGraph(rng, 60)
	tab := Build(g, DefaultK)
	dest := testnet.RandomLocations(rng, g, 1)[0]
	pt := g.Point(dest)
	var th interface{ Bound(graph.NodeID) float64 }
	if avg := testing.AllocsPerRun(100, func() { th = tab.ForTarget(dest, pt) }); avg > 1 {
		t.Fatalf("ForTarget allocated %.1f times, want 1", avg)
	}
	_ = th
}

// TestBuildShape checks the size clamps and the deterministic selection.
func TestBuildShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := testnet.RandomGraph(rng, 20)
	if Build(g, 0) != nil || Build(g, -1) != nil {
		t.Fatal("Build with k <= 0 should return nil")
	}
	if tab := Build(g, 100); tab.K() > g.NumNodes() {
		t.Fatalf("Build selected %d landmarks on a %d-node graph", tab.K(), g.NumNodes())
	}
	a, b := Build(g, 5), Build(g, 5)
	if len(a.Nodes()) != len(b.Nodes()) {
		t.Fatal("Build is not deterministic")
	}
	for i := range a.Nodes() {
		if a.Nodes()[i] != b.Nodes()[i] {
			t.Fatalf("Build is not deterministic: %v vs %v", a.Nodes(), b.Nodes())
		}
	}
}

// TestLoadRoundTrip: a table loaded from another's Nodes, Flat and Finite
// bounds every pair exactly as the original does, shares (not copies) the
// distances, and Load refuses dimensions that would index outside them.
func TestLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 4; trial++ {
		g := testnet.RandomGraph(rng, 50)
		built := Build(g, 5)
		loaded, err := Load(g, built.Nodes(), built.Flat(), built.Finite())
		if err != nil {
			t.Fatal(err)
		}
		if loaded.K() != built.K() || &loaded.Flat()[0] != &built.Flat()[0] {
			t.Fatal("Load copied or resized the table")
		}
		for _, dest := range testnet.RandomLocations(rng, g, 5) {
			a, b := built.ForTarget(dest, g.Point(dest)), loaded.ForTarget(dest, g.Point(dest))
			for u := 0; u < g.NumNodes(); u++ {
				if x, y := a.Bound(graph.NodeID(u)), b.Bound(graph.NodeID(u)); x != y {
					t.Fatalf("trial %d: Bound(%d) built %v, loaded %v", trial, u, x, y)
				}
			}
		}
		n := graph.NodeID(g.NumNodes())
		for name, bad := range map[string]func() (*Table, error){
			"no landmarks":  func() (*Table, error) { return Load(g, nil, nil, true) },
			"short table":   func() (*Table, error) { return Load(g, built.Nodes(), built.Flat()[1:], true) },
			"long table":    func() (*Table, error) { return Load(g, built.Nodes()[:4], built.Flat(), true) },
			"node past end": func() (*Table, error) { return Load(g, []graph.NodeID{0, n}, built.Flat()[:2*int(n)], true) },
			"negative node": func() (*Table, error) { return Load(g, []graph.NodeID{-1}, built.Flat()[:n], true) },
		} {
			if tab, err := bad(); err == nil || tab != nil {
				t.Errorf("%s: Load accepted it", name)
			}
		}
	}
}

func nodeLoc(g *graph.Graph, n graph.NodeID) graph.Location {
	for eid := 0; eid < g.NumEdges(); eid++ {
		e := g.Edge(graph.EdgeID(eid))
		if e.U == n {
			return graph.Location{Edge: e.ID, Offset: 0}
		}
		if e.V == n {
			return graph.Location{Edge: e.ID, Offset: e.Length}
		}
	}
	panic("node has no incident edge")
}
