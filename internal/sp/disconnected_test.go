package sp

import (
	"context"
	"math"
	"testing"

	"roadskyline/internal/graph"
	"roadskyline/internal/testnet"
)

// twoComponents builds a graph with two disconnected components:
//
//	component A: triangle 0-1-2 (edges 0,1,2)
//	component B: segment 3-4   (edge 3)
//
// Every +Inf-handling regression below roots a searcher in one component
// and aims at the other.
func twoComponents(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(5, 4)
	b.AddNode(pt(0, 0)) // 0
	b.AddNode(pt(1, 0)) // 1
	b.AddNode(pt(0, 1)) // 2
	b.AddNode(pt(5, 5)) // 3
	b.AddNode(pt(6, 5)) // 4
	b.AddEdge(0, 1, 1)  // edge 0
	b.AddEdge(1, 2, 1.5)
	b.AddEdge(2, 0, 1.2)
	b.AddEdge(3, 4, 1) // edge 3: the far component
	return b.MustBuild()
}

// TestDijkstraDisconnectedObjects pins that a Dijkstra rooted in one
// component terminates cleanly without ever reporting objects in the
// other: the wavefront drains, NextObject reports exhaustion (not a hang
// or a bogus finite distance), and SettledDist stays unset for the far
// component.
func TestDijkstraDisconnectedObjects(t *testing.T) {
	g := twoComponents(t)
	objs := []graph.Object{
		{ID: 0, Loc: graph.Location{Edge: 1, Offset: 0.5}}, // reachable
		{ID: 1, Loc: graph.Location{Edge: 3, Offset: 0.5}}, // far component
	}
	net := testnet.NewMemNet(g, objs)
	d, err := NewDijkstra(context.Background(), net, graph.Location{Edge: 0, Offset: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	hit, ok, err := d.NextObject()
	if err != nil || !ok || hit.ID != 0 {
		t.Fatalf("first NextObject = (%+v, %v, %v), want reachable object 0", hit, ok, err)
	}
	if hit2, ok, err := d.NextObject(); err != nil || ok {
		t.Fatalf("second NextObject = (%+v, %v, %v), want clean exhaustion", hit2, ok, err)
	}
	if dist, ok := d.SettledDist(3); ok {
		t.Fatalf("SettledDist(3) = (%v, true) for an unreachable node, want unset", dist)
	}
	if dist, ok := d.SettledDist(4); ok {
		t.Fatalf("SettledDist(4) = (%v, true) for an unreachable node, want unset", dist)
	}
}

// TestAStarDisconnectedTarget pins the unreachable-destination contract of
// an A* session: Run terminates with +Inf (not an error, not a hang) and
// the session is Done with an +Inf PLB.
func TestAStarDisconnectedTarget(t *testing.T) {
	g := twoComponents(t)
	net := testnet.NewMemNet(g, nil)
	src := graph.Location{Edge: 0, Offset: 0.25}
	a, err := NewAStar(context.Background(), net, src, g.Point(src))
	if err != nil {
		t.Fatal(err)
	}
	dest := graph.Location{Edge: 3, Offset: 0.5}
	s := a.NewSession(dest, g.Point(dest))
	dist, err := s.Run()
	if err != nil {
		t.Fatalf("Run to a disconnected target: %v", err)
	}
	if !math.IsInf(dist, 1) {
		t.Fatalf("Run = %v, want +Inf", dist)
	}
	if !s.Done() || !math.IsInf(s.PLB(), 1) || !math.IsInf(s.Dist(), 1) {
		t.Fatalf("session after Run: done=%v plb=%v dist=%v, want done with +Inf", s.Done(), s.PLB(), s.Dist())
	}
	// The searcher stays usable: a later session to a reachable target on
	// the same (now fully drained) wavefront resolves exactly.
	dest2 := graph.Location{Edge: 1, Offset: 0.5}
	d2, err := a.NewSession(dest2, g.Point(dest2)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := 1.25; math.Abs(d2-want) > 1e-12 {
		t.Fatalf("reachable follow-up distance = %v, want %v", d2, want)
	}
}

// TestAStarUnreachableAdvancePLB pins that the per-step lower bound of a
// session toward a disconnected target reaches +Inf when the wavefront
// drains, and that Advance on the completed session stays a no-op.
func TestAStarUnreachableAdvancePLB(t *testing.T) {
	g := twoComponents(t)
	net := testnet.NewMemNet(g, nil)
	src := graph.Location{Edge: 0, Offset: 0.25}
	a, err := NewAStar(context.Background(), net, src, g.Point(src))
	if err != nil {
		t.Fatal(err)
	}
	dest := graph.Location{Edge: 3, Offset: 0.5}
	s := a.NewSession(dest, g.Point(dest))
	prev := s.PLB()
	for i := 0; !s.Done(); i++ {
		if i > 100 {
			t.Fatal("session did not finish after draining a 3-node component")
		}
		plb, _, err := s.Advance()
		if err != nil {
			t.Fatal(err)
		}
		if plb < prev {
			t.Fatalf("PLB decreased: %v after %v", plb, prev)
		}
		prev = plb
	}
	if !math.IsInf(s.PLB(), 1) {
		t.Fatalf("final PLB = %v, want +Inf", s.PLB())
	}
	if plb, done, err := s.Advance(); !done || err != nil || !math.IsInf(plb, 1) {
		t.Fatalf("Advance after completion = (%v, %v, %v), want (+Inf, true, nil)", plb, done, err)
	}
}
