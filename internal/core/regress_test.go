package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"roadskyline/internal/bruteforce"
	"roadskyline/internal/geom"
	"roadskyline/internal/graph"
	"roadskyline/internal/rtree"
	"roadskyline/internal/testnet"
)

// TestDropDominatedDuplicatesTieChain is the regression test for the
// in-place compaction bug: the function used to shrink res.Skyline while
// the inner dominance loop kept indexing the same backing array, so later
// points were compared against entries the compaction had already
// overwritten. A chain of tied points where survivors and victims
// interleave exercises exactly that aliasing.
func TestDropDominatedDuplicatesTieChain(t *testing.T) {
	pt := func(id int, vec ...float64) SkylinePoint {
		return SkylinePoint{Object: graph.Object{ID: graph.ObjectID(id)}, Vec: vec}
	}
	cases := []struct {
		name string
		in   []SkylinePoint
		want []int
	}{
		{
			// Dominated points sandwiched between survivors: the first
			// drop shifts the array under the remaining comparisons.
			name: "interleaved",
			in: []SkylinePoint{
				pt(0, 1, 9), // survivor
				pt(1, 2, 5), // dominated by 3
				pt(2, 5, 2), // dominated by 4
				pt(3, 2, 4), // survivor (ties 1 on dim 0)
				pt(4, 4, 2), // survivor (ties 2 on dim 1)
			},
			want: []int{0, 3, 4},
		},
		{
			// A tie chain ending in one dominator: every earlier point
			// shares a coordinate with the next and only the last survives.
			name: "tie chain",
			in: []SkylinePoint{
				pt(0, 3, 3),
				pt(1, 3, 2),
				pt(2, 2, 2),
				pt(3, 2, 1),
			},
			want: []int{3},
		},
		{
			// Exact duplicates dominate nothing (no strict improvement);
			// all must survive.
			name: "exact duplicates",
			in: []SkylinePoint{
				pt(0, 1, 2),
				pt(1, 1, 2),
			},
			want: []int{0, 1},
		},
		{
			name: "empty",
			in:   nil,
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := &Result{Skyline: append([]SkylinePoint(nil), tc.in...)}
			dropDominatedDuplicates(res)
			got := make([]int, 0, len(res.Skyline))
			for _, p := range res.Skyline {
				got = append(got, int(p.Object.ID))
			}
			if len(got) != len(tc.want) {
				t.Fatalf("kept %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("kept %v, want %v", got, tc.want)
				}
			}
		})
	}
}

// TestBoundaryOffsets pins the boundary cases of the direct-path handling
// in all three algorithms: objects at offset 0 and at exactly the edge
// length (i.e. sitting on nodes), and a query point co-located with an
// object on the same edge (network distance exactly 0).
func TestBoundaryOffsets(t *testing.T) {
	b := graph.NewBuilder(3, 2)
	b.AddNode(geom.Point{X: 0, Y: 0})
	b.AddNode(geom.Point{X: 5, Y: 0})
	b.AddNode(geom.Point{X: 8, Y: 0})
	e0 := b.AddEdge(0, 1, 5)
	e1 := b.AddEdge(1, 2, 3)
	g := b.MustBuild()
	objs := []graph.Object{
		{ID: 0, Loc: graph.Location{Edge: e0, Offset: 0}},   // on node 0, co-located with q0
		{ID: 1, Loc: graph.Location{Edge: e0, Offset: 5}},   // on node 1
		{ID: 2, Loc: graph.Location{Edge: e1, Offset: 1.5}}, // mid-edge
	}
	env := newTestEnv(t, g, objs)
	q := Query{Points: []graph.Location{
		{Edge: e0, Offset: 0}, // co-located with object 0
		{Edge: e1, Offset: 3}, // on node 2
	}}
	_, matrix := bruteforce.NetworkSkyline(g, objs, q.Points, false)
	for _, alg := range []Algorithm{AlgCE, AlgEDC, AlgLBC} {
		res, err := RunDefault(env, q, alg)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if got := skylineIDs(res); !sameIDs(got, []int{0, 1, 2}) {
			t.Fatalf("%v: skyline %v, want all three objects", alg, got)
		}
		for _, p := range res.Skyline {
			for j := range q.Points {
				if w := matrix[p.Object.ID][j]; math.Abs(p.Dists[j]-w) > 1e-9 {
					t.Fatalf("%v: object %d dist[%d] = %v, oracle %v", alg, p.Object.ID, j, p.Dists[j], w)
				}
			}
		}
		// The co-located pair must resolve to exactly zero, not a rounding
		// residue of the direct-path arithmetic.
		for _, p := range res.Skyline {
			if p.Object.ID == 0 && p.Dists[0] != 0 {
				t.Fatalf("%v: co-located object distance = %v, want exactly 0", alg, p.Dists[0])
			}
		}
	}
}

// TestFarEndTie: two objects on node B, at the far end of A→B and at the far
// end of C→B, are both exactly 0.1 from a query point on A. A far-end
// distance taken as (g+L)-off rather than g+(L-off) put the second at
// 0.1+0.7-0.7 = 0.09999999999999998, where it strictly dominated its twin.
func TestFarEndTie(t *testing.T) {
	b := graph.NewBuilder(3, 2)
	na := b.AddNode(geom.Point{X: 0, Y: 0})
	nb := b.AddNode(geom.Point{X: 0.05, Y: 0})
	nc := b.AddNode(geom.Point{X: 0.5, Y: 0})
	ab, cb := b.AddEdge(na, nb, 0.1), b.AddEdge(nc, nb, 0.7)
	env := newTestEnv(t, b.MustBuild(), []graph.Object{
		{ID: 0, Loc: graph.Location{Edge: ab, Offset: 0.1}},
		{ID: 1, Loc: graph.Location{Edge: cb, Offset: 0.7}},
	})
	q := Query{Points: []graph.Location{{Edge: ab, Offset: 0}}}
	for _, arm := range oracleArms {
		res, err := arm.run(env, q)
		if err != nil {
			t.Fatalf("%v: %v", arm.name, err)
		}
		if got := skylineIDs(res); !sameIDs(got, []int{0, 1}) {
			t.Errorf("%v: skyline %v, want both objects", arm.name, got)
		}
		for _, p := range res.Skyline {
			if p.Dists[0] != 0.1 {
				t.Errorf("%v: object %d at %.17g, want 0.1", arm.name, p.Object.ID, p.Dists[0])
			}
		}
	}
}

// TestAlgorithmsMatchOracleDegenerate cross-validates all three algorithms
// on graphs with self-loops and parallel edges, with object and query
// offsets pushed to the edge boundaries and query points co-located with
// objects. Co-location creates exactly-equal skyline vectors, which the
// engines may legitimately collapse (see the exact-tie caveat in
// docs/ALGORITHMS.md), so the comparison is tie-aware: every reported
// point must be an oracle skyline point with exact distances, and every
// oracle point must be reported or exactly tied with a reported one.
func TestAlgorithmsMatchOracleDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		g := testnet.DegenerateGraph(rng, 8+rng.Intn(30))
		objs := testnet.RandomObjects(rng, g, 1+rng.Intn(20), 0)
		for i := range objs {
			switch rng.Intn(4) {
			case 0:
				objs[i].Loc.Offset = 0
			case 1:
				objs[i].Loc.Offset = g.Edge(objs[i].Loc.Edge).Length
			}
		}
		env := newTestEnv(t, g, objs)
		points := testnet.RandomLocations(rng, g, 1+rng.Intn(3))
		// Co-locate one query point with an object half the time.
		if rng.Intn(2) == 0 {
			points[rng.Intn(len(points))] = objs[rng.Intn(len(objs))].Loc
		}
		q := Query{Points: points}
		wantIdx, matrix := bruteforce.NetworkSkyline(g, objs, q.Points, false)
		inOracle := make(map[int]bool, len(wantIdx))
		for _, i := range wantIdx {
			inOracle[i] = true
		}
		sameVec := func(a, b []float64) bool {
			for k := range a {
				if math.Abs(a[k]-b[k]) > 1e-9 {
					return false
				}
			}
			return true
		}
		for _, arm := range oracleArms {
			alg := arm.name
			res, err := arm.run(env, q)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, alg, err)
			}
			for _, p := range res.Skyline {
				if !sameVec(p.Dists, matrix[p.Object.ID]) {
					t.Fatalf("trial %d %v: object %d dists %v, oracle %v",
						trial, alg, p.Object.ID, p.Dists, matrix[p.Object.ID])
				}
				if inOracle[int(p.Object.ID)] {
					continue
				}
				// Path summation order can differ from the oracle's by an
				// ulp, turning a strict last-place dominance into a tie the
				// engine keeps: accept the extra point only if it ties an
				// oracle skyline vector within tolerance.
				tied := false
				for _, j := range wantIdx {
					if sameVec(matrix[p.Object.ID], matrix[j]) {
						tied = true
						break
					}
				}
				if !tied {
					t.Fatalf("trial %d %v: object %d reported but not in (or tied with) oracle skyline %v",
						trial, alg, p.Object.ID, wantIdx)
				}
			}
			reported := make(map[int][]float64, len(res.Skyline))
			for _, p := range res.Skyline {
				reported[int(p.Object.ID)] = p.Dists
			}
			for _, i := range wantIdx {
				if _, ok := reported[i]; ok {
					continue
				}
				tied := false
				for _, vec := range reported {
					if sameVec(vec, matrix[i]) {
						tied = true
						break
					}
				}
				if !tied {
					t.Fatalf("trial %d %v: oracle skyline object %d (dists %v) missing and untied",
						trial, alg, i, matrix[i])
				}
			}
		}
	}
}

// TestLBCSourceValidation checks that out-of-range LBCSource values are
// rejected with an error instead of being silently clamped to source 0.
func TestLBCSourceValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := testnet.RandomGraph(rng, 40)
	objs := testnet.RandomObjects(rng, g, 10, 0)
	env := newTestEnv(t, g, objs)
	q := Query{Points: testnet.RandomLocations(rng, g, 3)}

	for _, bad := range []int{-1, 3, 17} {
		if _, err := NewLBCIterator(context.Background(), env, q, Options{LBCSource: bad}); err == nil {
			t.Errorf("LBCSource = %d accepted, want error", bad)
		}
		if _, err := Run(context.Background(), env, q, AlgLBC, Options{LBCSource: bad}); err == nil {
			t.Errorf("Run with LBCSource = %d accepted, want error", bad)
		}
		// Alternate mode ignores LBCSource, so it must not reject it.
		if _, err := Run(context.Background(), env, q, AlgLBC, Options{LBCSource: bad, LBCAlternate: true}); err != nil {
			t.Errorf("alternate run rejected ignored LBCSource %d: %v", bad, err)
		}
	}
	for src := 0; src < len(q.Points); src++ {
		if _, err := Run(context.Background(), env, q, AlgLBC, Options{LBCSource: src}); err != nil {
			t.Errorf("valid LBCSource %d rejected: %v", src, err)
		}
	}
}

// TestRunCancelledContext checks that an already-cancelled context aborts
// all three algorithms before any expansion.
func TestRunCancelledContext(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := testnet.RandomGraph(rng, 60)
	objs := testnet.RandomObjects(rng, g, 20, 0)
	env := newTestEnv(t, g, objs)
	q := Query{Points: testnet.RandomLocations(rng, g, 2)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range []Algorithm{AlgCE, AlgEDC, AlgLBC} {
		res, err := Run(ctx, env, q, alg, Options{})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: err = %v, want context.Canceled", alg, err)
		}
		if res != nil {
			t.Errorf("%v: non-nil result under cancelled context", alg)
		}
	}
	if _, err := NewLBCIterator(ctx, env, q, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("NewLBCIterator err = %v, want context.Canceled", err)
	}
}

// TestEDCVectorBuffersIndependent is the regression test for the EDC
// scratch-buffer aliasing hazard: entry scoring and rectangle lower-bound
// scoring used to share one scratch slice, so interleaving them — exactly
// what the best-first traversal does when it scores a leaf entry, descends
// into a sibling subtree, and compares against the earlier entry vector —
// silently clobbered the earlier vector. The seed stream now reads both
// from the window's memo (edcWindow.entryVec and nodeLB); this test
// interleaves the two and checks each result survives the other call.
func TestEDCVectorBuffersIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := testnet.RandomGraph(rng, 40)
	objs := testnet.RandomObjects(rng, g, 10, 2)
	env := newTestEnv(t, g, objs)
	locs := testnet.RandomLocations(rng, g, 3)
	qPts := make([]geom.Point, len(locs))
	for i, l := range locs {
		qPts[i] = g.Point(l)
	}
	dims := env.vectorDims(len(qPts), true)
	w := newEDCWindow(env, qPts, true, make([]bool, len(objs)))
	var entries []rtree.Entry // in leaf order: entries[pos] is at position pos
	env.ObjTree.SearchFunc(func(int, geom.Rect) bool { return true }, func(_ int, leaf []rtree.Entry) bool {
		entries = append(entries, leaf...)
		return true
	})
	root := env.ObjTree.NumNodes() - 1
	rect := env.ObjTree.Bounds()

	v := w.entryVec(0, &entries[0])
	want := append([]float64(nil), v...)
	// Pin the entry vector's contents independently of the helper.
	p := entries[0].Point()
	for i, qp := range qPts {
		if v[i] != p.Dist(qp) {
			t.Fatalf("entry vec dim %d = %v, want Euclidean %v", i, v[i], p.Dist(qp))
		}
	}
	for i, a := range objs[entries[0].ID].Attrs {
		if v[len(qPts)+i] != a {
			t.Fatalf("entry vec attr dim %d = %v, want %v", i, v[len(qPts)+i], a)
		}
	}

	lb := w.nodeLB(root, rect) // with shared scratch this overwrote v in place
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("rect scoring clobbered entry vector: dim %d changed %v -> %v", i, want[i], v[i])
		}
	}
	for i, qp := range qPts {
		if lb[i] != rect.MinDist(qp) {
			t.Fatalf("rect lb dim %d = %v, want %v", i, lb[i], rect.MinDist(qp))
		}
	}
	for i := len(qPts); i < dims; i++ {
		if lb[i] != 0 {
			t.Fatalf("rect lb attr dim %d = %v, want 0", i, lb[i])
		}
	}

	// And the reverse interleaving: an entry score must not disturb a rect
	// lower-bound vector being held across it.
	lbWant := append([]float64(nil), lb...)
	_ = w.entryVec(1, &entries[1])
	for i := range lbWant {
		if lb[i] != lbWant[i] {
			t.Fatalf("entry scoring clobbered rect vector: dim %d changed %v -> %v", i, lbWant[i], lb[i])
		}
	}
}

// The middle layer's key table must hold exactly what the per-probe closure
// it replaced computed, or a network directory built before the table
// existed would open onto the wrong B+-tree keys.
func TestEdgeKeysMatchHilbert(t *testing.T) {
	reference := func(g *graph.Graph) func(graph.EdgeID) int64 {
		bounds := g.Bounds()
		return func(e graph.EdgeID) int64 {
			ed := g.Edge(e)
			mid := g.NodePoint(ed.U).Lerp(g.NodePoint(ed.V), 0.5)
			return int64(geom.HilbertKey(mid, bounds)<<21) | int64(e)
		}
	}
	// Degenerate geometry: every node on one horizontal line (a bounding box
	// of no height), two coincident nodes joined by an edge of no extent, a
	// self-loop, and parallel edges sharing one midpoint.
	b := graph.NewBuilder(4, 6)
	for _, x := range []float64{0, 0.5, 0.5, 1} {
		b.AddNode(geom.Point{X: x, Y: 0.25})
	}
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(1, 2, 1e-9)
	b.AddEdge(2, 2, 0.1)
	b.AddEdge(2, 3, 0.5)
	b.AddEdge(2, 3, 0.7)
	b.AddEdge(0, 3, 1)
	for name, g := range map[string]*graph.Graph{"CA": pinCA.env(t, 0).G, "degenerate": b.MustBuild()} {
		keys, want := edgeKeys(g), reference(g)
		if len(keys) != g.NumEdges() {
			t.Fatalf("%s: %d keys for %d edges", name, len(keys), g.NumEdges())
		}
		seen := make(map[int64]bool, len(keys))
		for e, k := range keys {
			if k != want(graph.EdgeID(e)) {
				t.Fatalf("%s: edge %d keyed %#x, the closure gives %#x", name, e, k, want(graph.EdgeID(e)))
			}
			if seen[k] {
				t.Fatalf("%s: edge %d repeats key %#x", name, e, k)
			}
			seen[k] = true
		}
	}
}
