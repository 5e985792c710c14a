package roadskyline

import (
	"math"
	"sort"
	"testing"
)

// splitNetwork builds a network with two disconnected components:
//
//	component A: the 2x3 grid of demoNetwork (nodes 0-5, edges 0-6)
//	component B: segment 6-7 far away (edge 7)
//
// Landmark construction seeds unreached components first, so the default
// engine configuration exercises the ALT +Inf bounds between components.
func splitNetwork(t *testing.T) *Network {
	t.Helper()
	nb := NewNetworkBuilder(8, 8)
	coords := []Point{{0, 1}, {1, 1}, {2, 1}, {0, 0}, {1, 0}, {2, 0}, {9, 9}, {10, 9}}
	for _, p := range coords {
		nb.AddNode(p)
	}
	nb.AddEdge(0, 1, 1) // edge 0
	nb.AddEdge(1, 2, 1) // edge 1
	nb.AddEdge(0, 3, 1) // edge 2
	nb.AddEdge(1, 4, 1) // edge 3
	nb.AddEdge(2, 5, 1) // edge 4
	nb.AddEdge(3, 4, 1) // edge 5
	nb.AddEdge(4, 5, 2) // edge 6
	nb.AddEdge(6, 7, 1) // edge 7: the far component
	n, err := nb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if n.Connected() {
		t.Fatal("splitNetwork must be disconnected")
	}
	return n
}

// TestSkylineDisconnectedObjects pins that all three algorithms agree on a
// network whose object set straddles two components: objects unreachable
// from every query point are silently excluded (their distance vector is
// all +Inf — dominated by any reachable object and useless to report), and
// the reachable skyline matches across CE, EDC and LBC with the default
// landmark table and without one (Landmarks: -1).
func TestSkylineDisconnectedObjects(t *testing.T) {
	n := splitNetwork(t)
	objs := []Object{
		{Loc: Location{Edge: 1, Offset: 0.5}},  // reachable
		{Loc: Location{Edge: 6, Offset: 1.0}},  // reachable
		{Loc: Location{Edge: 7, Offset: 0.25}}, // far component
		{Loc: Location{Edge: 7, Offset: 0.75}}, // far component
	}
	points := []Location{{Edge: 0, Offset: 0.5}, {Edge: 5, Offset: 0.5}}
	for _, landmarks := range []int{0, -1} {
		eng, err := NewEngine(n, objs, EngineConfig{Landmarks: landmarks})
		if err != nil {
			t.Fatal(err)
		}
		var ids [][]int32
		results := map[string]*Result{"the paper's EDC": paperEDC(t, eng, Query{Points: points})}
		for _, alg := range []Algorithm{CEAlg, EDCAlg, LBCAlg} {
			if results[alg.String()], err = eng.Skyline(Query{Points: points, Algorithm: alg}); err != nil {
				t.Fatalf("landmarks=%v %v: %v", landmarks, alg, err)
			}
		}
		for alg, res := range results {
			var got []int32
			for _, p := range res.Points {
				if p.Object.Loc.Edge == 7 {
					t.Fatalf("landmarks=%v %v reported unreachable object %d", landmarks, alg, p.Object.ID)
				}
				for _, d := range p.Distances {
					if math.IsInf(d, 1) || math.IsNaN(d) {
						t.Fatalf("landmarks=%v %v: non-finite distance %v for object %d", landmarks, alg, d, p.Object.ID)
					}
				}
				got = append(got, p.Object.ID)
			}
			if len(got) == 0 {
				t.Fatalf("landmarks=%v %v returned an empty skyline", landmarks, alg)
			}
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			ids = append(ids, got)
		}
		for i := 1; i < len(ids); i++ {
			if len(ids[i]) != len(ids[0]) {
				t.Fatalf("landmarks=%v: algorithms disagree: %v vs %v", landmarks, ids[0], ids[i])
			}
			for j := range ids[i] {
				if ids[i][j] != ids[0][j] {
					t.Fatalf("landmarks=%v: algorithms disagree: %v vs %v", landmarks, ids[0], ids[i])
				}
			}
		}
	}
}

// TestSkylineAllObjectsUnreachable pins the degenerate end of the +Inf
// audit: every object lives in the far component, so each algorithm must
// terminate with an empty skyline rather than loop or report +Inf vectors.
func TestSkylineAllObjectsUnreachable(t *testing.T) {
	n := splitNetwork(t)
	objs := []Object{
		{Loc: Location{Edge: 7, Offset: 0.25}},
		{Loc: Location{Edge: 7, Offset: 0.75}},
	}
	eng, err := NewEngine(n, objs, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	points := []Location{{Edge: 0, Offset: 0.5}, {Edge: 6, Offset: 0.5}}
	for _, alg := range []Algorithm{CEAlg, EDCAlg, LBCAlg} {
		res, err := eng.Skyline(Query{Points: points, Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(res.Points) != 0 {
			t.Fatalf("%v returned %d points for an unreachable object set", alg, len(res.Points))
		}
	}
	if res := paperEDC(t, eng, Query{Points: points}); len(res.Points) != 0 {
		t.Fatalf("the paper's EDC returned %d points for an unreachable object set", len(res.Points))
	}
}
