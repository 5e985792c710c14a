package roadskyline

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"roadskyline/internal/bruteforce"
	"roadskyline/internal/graph"
)

// demoNetwork builds a small hand-checkable network:
//
//	0 --- 1 --- 2
//	|     |     |
//	3 --- 4 --- 5
//
// All edges have length 1 except 4-5, which detours (length 2).
func demoNetwork(t *testing.T) *Network {
	t.Helper()
	nb := NewNetworkBuilder(6, 7)
	coords := []Point{{0, 1}, {1, 1}, {2, 1}, {0, 0}, {1, 0}, {2, 0}}
	for _, p := range coords {
		nb.AddNode(p)
	}
	nb.AddEdge(0, 1, 1) // edge 0
	nb.AddEdge(1, 2, 1) // edge 1
	nb.AddEdge(0, 3, 1) // edge 2
	nb.AddEdge(1, 4, 1) // edge 3
	nb.AddEdge(2, 5, 1) // edge 4
	nb.AddEdge(3, 4, 1) // edge 5
	nb.AddEdge(4, 5, 2) // edge 6 (detour)
	n, err := nb.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return n
}

func TestNetworkBasics(t *testing.T) {
	n := demoNetwork(t)
	if n.NumNodes() != 6 || n.NumEdges() != 7 {
		t.Fatalf("size = (%d,%d)", n.NumNodes(), n.NumEdges())
	}
	if !n.Connected() {
		t.Fatal("demo network disconnected")
	}
	if p := n.NodePoint(5); p != (Point{2, 0}) {
		t.Errorf("NodePoint(5) = %v", p)
	}
	u, v, l := n.EdgeEnds(6)
	if u != 4 || v != 5 || l != 2 {
		t.Errorf("EdgeEnds(6) = (%d,%d,%v)", u, v, l)
	}
	mid := n.PointOf(Location{Edge: 0, Offset: 0.5})
	if mid != (Point{0.5, 1}) {
		t.Errorf("PointOf = %v", mid)
	}
}

// TestGenerateQueryPointsNonPositive: a count of zero or less is an empty
// query point set, not a panic (skylinequery -numq -1 used to crash here).
func TestGenerateQueryPointsNonPositive(t *testing.T) {
	n := demoNetwork(t)
	for _, count := range []int{-1, 0} {
		if pts := n.GenerateQueryPoints(count, 0.1, 1); pts == nil || len(pts) != 0 {
			t.Errorf("GenerateQueryPoints(%d) = %#v, want an empty slice", count, pts)
		}
	}
}

func TestNearestLocation(t *testing.T) {
	n := demoNetwork(t)
	loc, err := n.NearestLocation(Point{0.5, 1.2})
	if err != nil {
		t.Fatal(err)
	}
	if loc.Edge != 0 || math.Abs(loc.Offset-0.5) > 1e-12 {
		t.Errorf("NearestLocation = %+v, want edge 0 offset 0.5", loc)
	}
	// A point right on a node snaps to an incident edge endpoint.
	loc, err = n.NearestLocation(Point{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if p := n.PointOf(loc); p.X != 2 || p.Y != 0 {
		t.Errorf("node snap landed at %v", p)
	}
	// Nothing is nearest to a non-finite coordinate, nor to a finite one
	// whose distance to every edge overflows; both used to snap to edge 0,
	// offset 0 without an error.
	for _, p := range []Point{{math.NaN(), 0.5}, {0.5, math.NaN()}, {math.Inf(1), 0}, {0, math.Inf(-1)},
		{1.7e308, 1.7e308}, {-1.7e308, 1e308}} {
		if loc, err := n.NearestLocation(p); err == nil {
			t.Errorf("NearestLocation(%v) = %+v, want an error", p, loc)
		}
	}
}

func TestReadWriteNetwork(t *testing.T) {
	n := demoNetwork(t)
	var sb strings.Builder
	if err := n.Write(&sb); err != nil {
		t.Fatal(err)
	}
	n2, err := ReadNetwork(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if n2.NumNodes() != 6 || n2.NumEdges() != 7 {
		t.Fatal("roundtrip size mismatch")
	}
}

func TestEngineSkylineHandChecked(t *testing.T) {
	n := demoNetwork(t)
	// Objects: a on edge 0 (near node 0), b on edge 1 (near node 2),
	// c on edge 6 (middle of the detour).
	objs := []Object{
		{Loc: Location{Edge: 0, Offset: 0.2}}, // a
		{Loc: Location{Edge: 1, Offset: 0.8}}, // b
		{Loc: Location{Edge: 6, Offset: 1.0}}, // c
	}
	eng, err := NewEngine(n, objs, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Query points at node 0 (edge 0 offset 0) and node 2 (edge 1 end).
	q := Query{
		Points:    []Location{{Edge: 0, Offset: 0}, {Edge: 1, Offset: 1}},
		Algorithm: LBCAlg,
	}
	res, err := eng.Skyline(q)
	if err != nil {
		t.Fatal(err)
	}
	// Hand computation:
	//   a: d(q0,a)=0.2, d(q1,a)=1.8
	//   b: d(q0,b)=1.8, d(q1,b)=0.2
	//   c: via node 4: d(q0,c)=min(0+..) = d(q0,4)+1 = 2+1=3;
	//      d(q0,4) = min(0->1->4)=2, (0->3->4)=2 -> 3; d(q1,c)= d(2,5)+1=2
	//      c is dominated by b? b=(1.8,0.2), c=(3,2): yes.
	// Skyline = {a, b}.
	var got []int32
	for _, p := range res.Points {
		got = append(got, p.Object.ID)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("skyline ids = %v, want [0 1]", got)
	}
	for _, p := range res.Points {
		switch p.Object.ID {
		case 0:
			if math.Abs(p.Distances[0]-0.2) > 1e-9 || math.Abs(p.Distances[1]-1.8) > 1e-9 {
				t.Errorf("a distances = %v", p.Distances)
			}
		case 1:
			if math.Abs(p.Distances[0]-1.8) > 1e-9 || math.Abs(p.Distances[1]-0.2) > 1e-9 {
				t.Errorf("b distances = %v", p.Distances)
			}
		}
	}
	if res.Stats.NetworkPages <= 0 || res.Stats.Total <= 0 {
		t.Errorf("stats not populated: %+v", res.Stats)
	}
}

func TestEngineAlgorithmsAgree(t *testing.T) {
	n, err := Generate(NetworkSpec{Name: "t", Nodes: 300, Edges: 380,
		NumObstacles: 2, ObstacleSize: 0.2, Jitter: 0.3, MaxStretch: 0.2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	objs := n.GenerateObjects(0.5, 0, 7)
	eng, err := NewEngine(n, objs, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	qp := n.GenerateQueryPoints(4, 0.1, 9)
	var results [][]int32
	for _, alg := range []Algorithm{CEAlg, EDCAlg, LBCAlg} {
		res, err := eng.Skyline(Query{Points: qp, Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		ids := make([]int32, len(res.Points))
		for i, p := range res.Points {
			ids[i] = p.Object.ID
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		results = append(results, ids)
	}
	for i := 1; i < len(results); i++ {
		if len(results[i]) != len(results[0]) {
			t.Fatalf("algorithms disagree: %v vs %v", results[0], results[i])
		}
		for j := range results[i] {
			if results[i][j] != results[0][j] {
				t.Fatalf("algorithms disagree: %v vs %v", results[0], results[i])
			}
		}
	}
}

func TestEngineWithAttributes(t *testing.T) {
	n := demoNetwork(t)
	objs := []Object{
		{Loc: Location{Edge: 0, Offset: 0.2}, Attrs: []float64{100}}, // close, expensive
		{Loc: Location{Edge: 0, Offset: 0.3}, Attrs: []float64{50}},  // a bit farther, cheaper
		{Loc: Location{Edge: 6, Offset: 1.0}, Attrs: []float64{10}},  // far, cheapest
	}
	eng, err := NewEngine(n, objs, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{
		Points:    []Location{{Edge: 0, Offset: 0}},
		UseAttrs:  true,
		Algorithm: LBCAlg,
	}
	res, err := eng.Skyline(q)
	if err != nil {
		t.Fatal(err)
	}
	// All three are skyline points: each improves either distance or price.
	if len(res.Points) != 3 {
		ids := []int32{}
		for _, p := range res.Points {
			ids = append(ids, p.Object.ID)
		}
		t.Fatalf("attr skyline = %v, want all 3 objects", ids)
	}
	for _, p := range res.Points {
		if len(p.Vector) != 2 {
			t.Errorf("vector %v should be [dist, price]", p.Vector)
		}
	}
}

func TestEngineErrors(t *testing.T) {
	n := demoNetwork(t)
	eng, err := NewEngine(n, nil, EngineConfig{FlightRecorder: FlightRecorderConfig{Size: 8}})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(eng, PoolConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	// An empty query fails one check, whichever entry point it takes: the
	// same error text and the same flight-record outcome.
	ctx := context.Background()
	var want FlightRecord
	for i, entry := range []struct {
		name string
		run  func() error
	}{
		{"Engine.Skyline", func() error { _, err := eng.Skyline(Query{}); return err }},
		{"Engine.SkylineIterContext", func() error { _, err := eng.SkylineIterContext(ctx, Query{}); return err }},
		{"Pool.Skyline", func() error { _, err := pool.Skyline(ctx, Query{}); return err }},
		{"Pool.SkylineIter", func() error { _, err := pool.SkylineIter(ctx, Query{}); return err }},
	} {
		err := entry.run()
		if err == nil {
			t.Fatalf("%s: empty query accepted", entry.name)
		}
		rec := eng.FlightRecords()[0]
		if rec.Err != err.Error() {
			t.Errorf("%s: record holds error %q, the caller got %q", entry.name, rec.Err, err)
		}
		if i == 0 {
			want = rec
			continue
		}
		if rec.Err != want.Err || rec.Outcome != want.Outcome {
			t.Errorf("%s: error %q, outcome %q; Engine.Skyline: error %q, outcome %q",
				entry.name, rec.Err, rec.Outcome, want.Err, want.Outcome)
		}
	}
	if _, err := eng.Skyline(Query{Points: []Location{{Edge: 999}}}); err == nil {
		t.Error("bad location accepted")
	}
	bad := []Object{{Loc: Location{Edge: 999}}}
	if _, err := NewEngine(n, bad, EngineConfig{}); err == nil {
		t.Error("bad object accepted")
	}
}

func TestGeneratePresetsExposed(t *testing.T) {
	if CA.Nodes != 3044 || AU.Nodes != 23269 || NA.Nodes != 86318 {
		t.Error("paper presets wrong")
	}
	n, err := Generate(NetworkSpec{Name: "mini", Nodes: 100, Edges: 140,
		Jitter: 0.2, MaxStretch: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if n.NumNodes() != 100 || n.NumEdges() != 140 || !n.Connected() {
		t.Error("generated network wrong")
	}
	if d := n.EstimateDelta(50, 1); d < 1 {
		t.Errorf("delta = %v", d)
	}
}

func TestQueryAlternateFacade(t *testing.T) {
	n, err := Generate(NetworkSpec{Name: "alt", Nodes: 400, Edges: 520,
		Jitter: 0.3, MaxStretch: 0.2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(n, n.GenerateObjects(0.3, 0, 5), EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	qp := n.GenerateQueryPoints(3, 0.1, 7)
	plain, err := eng.Skyline(Query{Points: qp, Algorithm: LBCAlg})
	if err != nil {
		t.Fatal(err)
	}
	alt, err := eng.Skyline(Query{Points: qp, Algorithm: LBCAlg, Alternate: true})
	if err != nil {
		t.Fatal(err)
	}
	ids := func(r *Result) []int32 {
		out := make([]int32, len(r.Points))
		for i, p := range r.Points {
			out[i] = p.Object.ID
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	a, b := ids(plain), ids(alt)
	if len(a) != len(b) {
		t.Fatalf("alternate changed the skyline: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("alternate changed the skyline: %v vs %v", a, b)
		}
	}
}

func TestNormalizeFacade(t *testing.T) {
	nb := NewNetworkBuilder(2, 1)
	nb.AddNode(Point{X: 1000, Y: 2000})
	nb.AddNode(Point{X: 3000, Y: 2000})
	nb.AddEdge(0, 1, 2000)
	n, err := nb.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := n.NormalizeToUnitSquare()
	if p := m.NodePoint(1); math.Abs(p.X-1) > 1e-12 || p.Y != 0 {
		t.Errorf("normalized node 1 = %v", p)
	}
	if _, _, l := m.EdgeEnds(0); math.Abs(l-1) > 1e-12 {
		t.Errorf("normalized length = %v", l)
	}
}

func TestEngineDiskDir(t *testing.T) {
	n := demoNetwork(t)
	objs := []Object{{Loc: Location{Edge: 0, Offset: 0.5}}}
	eng, err := NewEngine(n, objs, EngineConfig{DiskDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Skyline(Query{Points: []Location{{Edge: 1, Offset: 0.5}}, Algorithm: LBCAlg})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("on-disk engine returned %d points", len(res.Points))
	}
}

func TestReadCnodeCedgeFacade(t *testing.T) {
	cnode := "0 0 0\n1 1 0\n"
	cedge := "0 0 1 1\n"
	n, err := ReadCnodeCedge(strings.NewReader(cnode), strings.NewReader(cedge))
	if err != nil {
		t.Fatal(err)
	}
	if n.NumNodes() != 2 || n.NumEdges() != 1 {
		t.Fatalf("size = (%d,%d)", n.NumNodes(), n.NumEdges())
	}
}

func TestSkylineIterFacade(t *testing.T) {
	n := demoNetwork(t)
	objs := []Object{
		{Loc: Location{Edge: 0, Offset: 0.2}},
		{Loc: Location{Edge: 1, Offset: 0.8}},
		{Loc: Location{Edge: 6, Offset: 1.0}},
	}
	eng, err := NewEngine(n, objs, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	qp := []Location{{Edge: 0, Offset: 0}, {Edge: 1, Offset: 1}}
	it, err := eng.SkylineIterContext(context.Background(), Query{Points: qp})
	if err != nil {
		t.Fatal(err)
	}
	var ids []int32
	for {
		p, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		ids = append(ids, p.Object.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Fatalf("iterator skyline = %v, want [0 1]", ids)
	}
	if st := it.Stats(); st.NetworkPages <= 0 || st.Candidates <= 0 {
		t.Errorf("iterator stats not populated: %+v", st)
	}
}

func TestEngineCloneConcurrent(t *testing.T) {
	n, err := Generate(NetworkSpec{Name: "cc", Nodes: 300, Edges: 390,
		Jitter: 0.3, MaxStretch: 0.2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewEngine(n, n.GenerateObjects(0.3, 0, 5), EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	qp := n.GenerateQueryPoints(3, 0.1, 7)
	q := Query{Points: qp, Algorithm: LBCAlg}
	want, err := base.Clone().Skyline(q)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 6)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res, err := base.Clone().Skyline(q)
			if err != nil {
				errs[w] = err
				return
			}
			if len(res.Points) != len(want.Points) {
				errs[w] = fmt.Errorf("worker %d: %d points, want %d", w, len(res.Points), len(want.Points))
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// Facade-level oracle test: the public API's answers must match an
// exhaustive dominance check over the brute-force distance matrix.
func TestFacadeMatchesExhaustiveCheck(t *testing.T) {
	n, err := Generate(NetworkSpec{Name: "oracle", Nodes: 250, Edges: 330,
		NumObstacles: 2, ObstacleSize: 0.15, Jitter: 0.3, MaxStretch: 0.2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	objs := n.GenerateObjects(0.25, 0, 9)
	eng, err := NewEngine(n, objs, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	qp := n.GenerateQueryPoints(3, 0.1, 11)

	gObjs := make([]graph.Object, len(objs))
	for i, o := range objs {
		gObjs[i] = graph.Object{ID: graph.ObjectID(i), Loc: graph.Location{Edge: graph.EdgeID(o.Loc.Edge), Offset: o.Loc.Offset}}
	}
	gPts := make([]graph.Location, len(qp))
	for i, q := range qp {
		gPts[i] = graph.Location{Edge: graph.EdgeID(q.Edge), Offset: q.Offset}
	}
	vecs := bruteforce.DistanceMatrix(n.g, gObjs, gPts)
	dominates := func(a, b []float64) bool {
		strict := false
		for k := range a {
			if a[k] > b[k] {
				return false
			}
			if a[k] < b[k] {
				strict = true
			}
		}
		return strict
	}
	want := map[int32]bool{}
	for i := range vecs {
		dominated := false
		for j := range vecs {
			if i != j && dominates(vecs[j], vecs[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			want[int32(i)] = true
		}
	}

	for _, alg := range []Algorithm{CEAlg, EDCAlg, LBCAlg} {
		res, err := eng.Skyline(Query{Points: qp, Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(res.Points) != len(want) {
			t.Fatalf("%v: %d skyline points, exhaustive check has %d",
				alg, len(res.Points), len(want))
		}
		for _, p := range res.Points {
			if !want[p.Object.ID] {
				t.Fatalf("%v: object %d not in exhaustive skyline", alg, p.Object.ID)
			}
			for j := range qp {
				if math.Abs(p.Distances[j]-vecs[p.Object.ID][j]) > 1e-9 {
					t.Fatalf("%v: object %d dist[%d] = %v, brute force says %v",
						alg, p.Object.ID, j, p.Distances[j], vecs[p.Object.ID][j])
				}
			}
		}
	}
}
