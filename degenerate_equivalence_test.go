package roadskyline

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"roadskyline/internal/bruteforce"
	"roadskyline/internal/core"
	"roadskyline/internal/graph"
)

// paperEDC answers q with the paper's EDC — every candidate's network vector
// computed in full (core.Options.DisablePLB), an arm the public Query has no
// switch for.
func paperEDC(t *testing.T, e *Engine, q Query) *Result {
	t.Helper()
	cq, opts, _ := e.begin(&q, time.Time{})
	opts.DisablePLB = true
	res, err := core.Run(context.Background(), e.env, cq, core.AlgEDC, opts)
	if err != nil {
		t.Fatalf("the paper's EDC: %v", err)
	}
	out := &Result{Stats: statsFromMetrics(res.Metrics)}
	for _, p := range res.Skyline {
		out.Points = append(out.Points, SkylinePoint{Object: e.objs[p.Object.ID], Distances: p.Dists, Vector: p.Vec})
	}
	return out
}

// degenerateTrial is an equivalence instance over a deliberately hostile
// network: self-loops, parallel edges, objects and query points at boundary
// offsets (0 and the full edge length), and exactly co-located pairs.
type degenerateTrial struct {
	seed   int64
	eng    *Engine
	pts    []Location
	oracle []int32             // oracle skyline ids
	dists  map[int32][]float64 // oracle distance rows for ALL objects
	inSky  map[int32]bool
}

// newDegenerateTrial builds the network through the public NetworkBuilder —
// the same path library users take — so the degenerate-topology support is
// tested end to end.
func newDegenerateTrial(t *testing.T, seed int64) *degenerateTrial {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nodes := 15 + rng.Intn(40)
	nb := NewNetworkBuilder(nodes, 3*nodes)
	pts := make([]Point, nodes)
	for i := range pts {
		pts[i] = Point{X: rng.Float64(), Y: rng.Float64()}
		nb.AddNode(pts[i])
	}
	dist := func(a, b Point) float64 {
		return math.Hypot(a.X-b.X, a.Y-b.Y)
	}
	addEdge := func(u, v int) {
		d := dist(pts[u], pts[v])
		if d == 0 {
			d = 1e-9
		}
		nb.AddEdge(int32(u), int32(v), d*(1+rng.Float64()*0.5))
	}
	for i := 1; i < nodes; i++ {
		addEdge(i, rng.Intn(i))
	}
	for k := 0; k < 2+nodes/8; k++ {
		u := int32(rng.Intn(nodes))
		nb.AddEdge(u, u, 0.05+rng.Float64()*0.3) // self-loop
	}
	for k := 0; k < 2+nodes/8; k++ {
		u := 1 + rng.Intn(nodes-1)
		addEdge(u, rng.Intn(u)) // parallel to an existing tree edge
		addEdge(u, rng.Intn(u))
	}
	n, err := nb.Build()
	if err != nil {
		t.Fatalf("seed %d: building degenerate network: %v", seed, err)
	}

	edgeLen := func(e int32) float64 {
		_, _, l := n.EdgeEnds(e)
		return l
	}
	randLoc := func() Location {
		e := int32(rng.Intn(n.NumEdges()))
		l := edgeLen(e)
		switch rng.Intn(4) {
		case 0:
			return Location{Edge: e, Offset: 0}
		case 1:
			return Location{Edge: e, Offset: l}
		case 2:
			return Location{Edge: e, Offset: l / 2}
		default:
			return Location{Edge: e, Offset: rng.Float64() * l}
		}
	}
	objs := make([]Object, 3+rng.Intn(20))
	for i := range objs {
		objs[i] = Object{Loc: randLoc()}
	}
	// Exactly co-located object pairs: identical vectors, exercising the
	// engines' exact-tie handling.
	if len(objs) >= 2 {
		objs[len(objs)-1].Loc = objs[0].Loc
	}
	qpts := make([]Location, 1+rng.Intn(3))
	for i := range qpts {
		qpts[i] = randLoc()
	}
	// A query point sitting exactly on an object: zero network distance.
	if rng.Intn(2) == 0 {
		qpts[rng.Intn(len(qpts))] = objs[rng.Intn(len(objs))].Loc
	}

	eng, err := NewEngine(n, objs, EngineConfig{})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	gObjs := make([]graph.Object, len(objs))
	for i, o := range objs {
		gObjs[i] = graph.Object{
			ID:  graph.ObjectID(i),
			Loc: graph.Location{Edge: graph.EdgeID(o.Loc.Edge), Offset: o.Loc.Offset},
		}
	}
	gPts := make([]graph.Location, len(qpts))
	for i, p := range qpts {
		gPts[i] = graph.Location{Edge: graph.EdgeID(p.Edge), Offset: p.Offset}
	}
	idx, matrix := bruteforce.NetworkSkyline(eng.net.g, gObjs, gPts, false)
	tr := &degenerateTrial{
		seed:  seed,
		eng:   eng,
		pts:   qpts,
		dists: map[int32][]float64{},
		inSky: map[int32]bool{},
	}
	for i := range gObjs {
		tr.dists[int32(i)] = matrix[i]
	}
	for _, i := range idx {
		tr.oracle = append(tr.oracle, int32(i))
		tr.inSky[int32(i)] = true
	}
	return tr
}

func vecsClose(a, b []float64) bool {
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			return false
		}
	}
	return true
}

// weaklyDominates reports whether a is at least as good as b in every
// dimension, within tolerance.
func weaklyDominates(a, b []float64) bool {
	for i := range a {
		if a[i] > b[i]+1e-9 {
			return false
		}
	}
	return true
}

// clearlyDominates reports whether a dominates b by more than the float
// tolerance: at least as good everywhere and better by > 1e-9 somewhere.
func clearlyDominates(a, b []float64) bool {
	if !weaklyDominates(a, b) {
		return false
	}
	for i := range a {
		if a[i] < b[i]-1e-9 {
			return true
		}
	}
	return false
}

// check is tolerant of ulp-level divergence between the engine's and the
// oracle's path sums, which can flip dominance decisions either way when
// two vectors differ by a few ulp (co-located objects make near-ties
// common here). Every reported distance must still match the oracle row
// within 1e-9; beyond that, a reported extra is acceptable unless some
// oracle skyline vector dominates it by a clear margin, and a missing
// oracle point is acceptable only if a reported vector weakly dominates it
// — i.e. membership may differ only on knife-edge ties.
func (tr *degenerateTrial) check(res *Result, label string) error {
	reported := map[int32][]float64{}
	for _, p := range res.Points {
		oracleRow, ok := tr.dists[p.Object.ID]
		if !ok || !vecsClose(p.Distances, oracleRow) {
			return fmt.Errorf("seed %d %s: object %d distances %v, oracle %v",
				tr.seed, label, p.Object.ID, p.Distances, oracleRow)
		}
		reported[p.Object.ID] = p.Distances
		if tr.inSky[p.Object.ID] {
			continue
		}
		for _, j := range tr.oracle {
			if clearlyDominates(tr.dists[j], oracleRow) {
				return fmt.Errorf("seed %d %s: object %d reported but clearly dominated by oracle skyline object %d",
					tr.seed, label, p.Object.ID, j)
			}
		}
	}
	for _, j := range tr.oracle {
		if _, ok := reported[j]; ok {
			continue
		}
		covered := false
		for _, vec := range reported {
			if weaklyDominates(vec, tr.dists[j]) {
				covered = true
				break
			}
		}
		if !covered {
			return fmt.Errorf("seed %d %s: oracle skyline object %d (dists %v) missing and undominated",
				tr.seed, label, j, tr.dists[j])
		}
	}
	return nil
}

// TestDegenerateTopologyEquivalenceFuzz cross-validates every algorithm and
// LBC mode against the oracle on networks with self-loops, parallel edges
// and boundary offsets.
func TestDegenerateTopologyEquivalenceFuzz(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for seed := int64(0); seed < int64(trials); seed++ {
		tr := newDegenerateTrial(t, 11000+seed)
		qs := []Query{
			{Points: tr.pts, Algorithm: CEAlg},
			{Points: tr.pts, Algorithm: EDCAlg},
			{Points: tr.pts, Algorithm: LBCAlg},
			{Points: tr.pts, Algorithm: LBCAlg, Alternate: true},
		}
		for qi, q := range qs {
			res, err := tr.eng.Skyline(q)
			if err != nil {
				t.Fatalf("seed %d query %d: %v", tr.seed, qi, err)
			}
			if err := tr.check(res, fmt.Sprintf("query %d (%v)", qi, q.Algorithm)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.check(paperEDC(t, tr.eng, qs[1]), "the paper's EDC"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLandmarkEquivalence proves the ALT heuristic changes only the work,
// never the answer: the same queries on an engine with the default landmark
// table and on one built without a table (Landmarks < 0) must return
// identical skylines (same objects, same vectors), with landmarks never
// expanding more nodes and expanding strictly fewer in aggregate.
func TestLandmarkEquivalence(t *testing.T) {
	trials := 8
	if testing.Short() {
		trials = 3
	}
	var withNodes, withoutNodes int
	for seed := int64(0); seed < int64(trials); seed++ {
		tr := newFuzzTrial(t, 12000+seed)
		euclid, err := NewEngine(tr.n, tr.objs, EngineConfig{Landmarks: -1})
		if err != nil {
			t.Fatalf("seed %d: %v", tr.seed, err)
		}
		for _, alg := range []Algorithm{EDCAlg, LBCAlg} {
			on, err := tr.eng.Skyline(Query{Points: tr.pts, UseAttrs: tr.use, Algorithm: alg})
			if err != nil {
				t.Fatalf("seed %d %v landmarks on: %v", tr.seed, alg, err)
			}
			off, err := euclid.Skyline(Query{Points: tr.pts, UseAttrs: tr.use, Algorithm: alg})
			if err != nil {
				t.Fatalf("seed %d %v landmarks off: %v", tr.seed, alg, err)
			}
			onSet := map[int32][]float64{}
			for _, p := range on.Points {
				onSet[p.Object.ID] = p.Vector
			}
			if len(on.Points) != len(off.Points) {
				t.Fatalf("seed %d %v: %d points with landmarks, %d without",
					tr.seed, alg, len(on.Points), len(off.Points))
			}
			for _, p := range off.Points {
				vec, ok := onSet[p.Object.ID]
				if !ok || !vecsClose(vec, p.Vector) {
					t.Fatalf("seed %d %v: object %d differs between landmark settings", tr.seed, alg, p.Object.ID)
				}
			}
			if on.Stats.NodesExpanded > off.Stats.NodesExpanded {
				t.Errorf("seed %d %v: landmarks expanded MORE nodes (%d > %d)",
					tr.seed, alg, on.Stats.NodesExpanded, off.Stats.NodesExpanded)
			}
			if on.Stats.LandmarkWins+on.Stats.EuclidWins == 0 && on.Stats.NodesExpanded > 0 {
				t.Errorf("seed %d %v: heuristic evaluation counters never moved with landmarks on", tr.seed, alg)
			}
			if off.Stats.LandmarkWins != 0 || off.Stats.EuclidWins != 0 {
				t.Errorf("seed %d %v: landmark bound evaluated %d+%d times without a table",
					tr.seed, alg, off.Stats.LandmarkWins, off.Stats.EuclidWins)
			}
			withNodes += on.Stats.NodesExpanded
			withoutNodes += off.Stats.NodesExpanded
		}
	}
	if withNodes >= withoutNodes {
		t.Errorf("landmarks never reduced nodes expanded: %d with vs %d without", withNodes, withoutNodes)
	}
	t.Logf("nodes expanded: %d with landmarks, %d without (%.1f%% saved)",
		withNodes, withoutNodes, 100*(1-float64(withNodes)/float64(withoutNodes)))
}

// BenchmarkLandmarkAblation reports the per-query nodes expanded by LBC
// with the default landmark table and without one on one mid-sized
// network.
func BenchmarkLandmarkAblation(b *testing.B) {
	n, err := Generate(NetworkSpec{Name: "bench", Nodes: 600, Edges: 900, Jitter: 0.3, MaxStretch: 0.2, Seed: 99})
	if err != nil {
		b.Fatal(err)
	}
	objs := n.GenerateObjects(0.5, 0, 99)
	pts := n.GenerateQueryPoints(4, 0.1, 101)
	for _, bench := range []struct {
		name      string
		landmarks int
	}{{"landmarks", 0}, {"euclid", -1}} {
		eng, err := NewEngine(n, objs, EngineConfig{Landmarks: bench.landmarks})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bench.name, func(b *testing.B) {
			nodes := 0
			for i := 0; i < b.N; i++ {
				res, err := eng.Skyline(Query{Points: pts, Algorithm: LBCAlg})
				if err != nil {
					b.Fatal(err)
				}
				nodes += res.Stats.NodesExpanded
			}
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/query")
		})
	}
}
