package roadskyline

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"roadskyline/internal/geom"
	"roadskyline/internal/graph"
)

// scanNearest is the oracle for NearestLocation: the scan over every edge
// in index order that the R-tree search replaced, strict `<` so the lowest
// index wins a tie. It also returns the winning distance; when that is not
// finite the scan fell through to edge 0 and NearestLocation must refuse
// the point instead.
func scanNearest(n *Network, p Point) (Location, float64) {
	gp := geom.Point{X: p.X, Y: p.Y}
	best, bestDist, bestT := graph.EdgeID(0), math.Inf(1), 0.0
	for i := 0; i < n.g.NumEdges(); i++ {
		e := n.g.Edge(graph.EdgeID(i))
		d, t := geom.SegmentPointDist(n.g.NodePoint(e.U), n.g.NodePoint(e.V), gp)
		if d < bestDist {
			best, bestDist, bestT = e.ID, d, t
		}
	}
	return Location{Edge: int32(best), Offset: bestT * n.g.Edge(best).Length}, bestDist
}

// checkSnap holds NearestLocation(p) to the oracle: the same edge and the
// same offset bits, or an error exactly where the scan found no finite
// distance.
func checkSnap(t *testing.T, n *Network, p Point) {
	t.Helper()
	want, d := scanNearest(n, p)
	got, err := n.NearestLocation(p)
	switch {
	case math.IsInf(d, 1):
		if err == nil {
			t.Fatalf("NearestLocation(%v) = %+v, want an error (no edge at a finite distance)", p, got)
		}
	case err != nil:
		t.Fatalf("NearestLocation(%v): %v, want %+v", p, err, want)
	case got.Edge != want.Edge || math.Float64bits(got.Offset) != math.Float64bits(want.Offset):
		t.Fatalf("NearestLocation(%v) = %+v, scan says %+v (distance %v)", p, got, want, d)
	}
}

// overflowPoints are finite coordinates whose distance to every edge of a
// unit-square network overflows to +Inf; the scan used to snap them to
// edge 0, offset 0.
var overflowPoints = []Point{{1.7e308, 1.7e308}, {-1.7e308, 1e308}}

// fuzzNetwork builds a small network full of ties from the fuzz input:
// nodes on a coarse grid (so several share a coordinate), parallel and
// reversed duplicate edges, zero-length edges and self-loops, at a scale
// and offset that shift the rounding of every closest point.
func fuzzNetwork(seed int64, size, shape uint8) (*Network, error) {
	rng := rand.New(rand.NewSource(seed))
	scale := []float64{1, 1e-6, 3.7, 1e6}[shape%4]
	origin := []float64{0, 0.1, -250, 1e5}[shape/4%4]
	grid := 2 + int(shape/16%8)
	numNodes := 1 + int(size%48)
	nb := NewNetworkBuilder(numNodes, 2*numNodes)
	pts := make([]Point, numNodes)
	for i := range pts {
		pts[i] = Point{
			origin + scale*float64(rng.Intn(grid))/float64(grid-1),
			origin + scale*float64(rng.Intn(grid))/float64(grid-1),
		}
		if rng.Intn(4) == 0 { // off the grid
			pts[i].X += scale * rng.Float64() / 7
		}
		nb.AddNode(pts[i])
	}
	type pair struct{ u, v int32 }
	var added []pair
	for range 1 + int(size%64) {
		var e pair
		switch k := rng.Intn(10); {
		case k == 0 && len(added) > 0: // parallel duplicate
			e = added[rng.Intn(len(added))]
		case k == 1 && len(added) > 0: // reversed duplicate
			e = added[rng.Intn(len(added))]
			e.u, e.v = e.v, e.u
		case k == 2: // self-loop
			u := int32(rng.Intn(numNodes))
			e = pair{u, u}
		default:
			e = pair{int32(rng.Intn(numNodes)), int32(rng.Intn(numNodes))}
		}
		added = append(added, e)
		euclid := geom.Point(pts[e.u]).Dist(geom.Point(pts[e.v]))
		nb.AddEdge(e.u, e.v, euclid*(1+rng.Float64()/4)+scale/16)
	}
	return nb.Build()
}

// snapProbes returns the points FuzzNearestLocation checks on n besides
// the fuzzer's own: every node, every edge midpoint and far end, points
// just off random segments, points far outside the bounding box, and the
// overflow points.
func snapProbes(n *Network, rng *rand.Rand) []Point {
	var out []Point
	for i := 0; i < n.NumNodes(); i++ {
		out = append(out, n.NodePoint(int32(i)))
	}
	b := n.g.Bounds()
	w := max(b.MaxX-b.MinX, b.MaxY-b.MinY, 1e-9)
	for i := 0; i < n.NumEdges(); i++ {
		_, _, length := n.EdgeEnds(int32(i))
		out = append(out,
			n.PointOf(Location{Edge: int32(i), Offset: length / 2}),
			n.PointOf(Location{Edge: int32(i), Offset: length}))
		p := n.PointOf(Location{Edge: int32(i), Offset: rng.Float64() * length})
		out = append(out, Point{p.X + w*1e-9*rng.NormFloat64(), p.Y + w*1e-9*rng.NormFloat64()})
	}
	for range 8 {
		out = append(out, Point{
			b.MinX + w*(rng.Float64()*3-1),
			b.MinY + w*(rng.Float64()*3-1),
		})
	}
	out = append(out,
		Point{b.MinX - 1e3*w, b.MinY - 1e3*w}, Point{b.MaxX + 1e6*w, (b.MinY + b.MaxY) / 2},
		Point{-1e300, 1e300}, Point{math.MaxFloat64, 0})
	return append(out, overflowPoints...)
}

// FuzzNearestLocation holds the R-tree search to the scan, bit for bit, on
// generated networks full of exact ties and on the fuzzer's coordinates.
//
//	go test -run '^$' -fuzz FuzzNearestLocation -fuzztime 10s .
func FuzzNearestLocation(f *testing.F) {
	f.Add(int64(1), uint8(9), uint8(0), 0.5, 0.5)
	f.Add(int64(2), uint8(40), uint8(3), 1e6, -1e6)
	f.Add(int64(3), uint8(47), uint8(0x21), 0.25, 0.75)
	f.Add(int64(4), uint8(200), uint8(0x76), 1.7e308, 1.7e308)
	f.Add(int64(5), uint8(63), uint8(0x1d), -1.7e308, 1e308)
	f.Add(int64(6), uint8(0), uint8(0), math.NaN(), 0.0)
	// Coordinates near 1e6: a box's MinDist sits above the distance of an
	// edge inside it by more than any slack relative to the distance.
	f.Add(int64(3), uint8(62), uint8(0x17), 34.25, 0.1875)
	f.Fuzz(func(t *testing.T, seed int64, size, shape uint8, x, y float64) {
		n, err := fuzzNetwork(seed, size, shape)
		if err != nil {
			t.Skip(err)
		}
		checkSnap(t, n, Point{x, y})
		for _, p := range snapProbes(n, rand.New(rand.NewSource(seed))) {
			checkSnap(t, n, p)
		}
	})
}

// TestNearestLocationMatchesScan runs the fuzz body over generated road
// networks: jittered grids with the presets' obstacles, where edges cross
// and share endpoints as real roads do.
func TestNearestLocationMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		n, err := Generate(NetworkSpec{Name: "snap", Nodes: 300, Edges: 390, Jitter: 0.3, MaxStretch: 0.2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for _, p := range snapProbes(n, rng) {
			checkSnap(t, n, p)
		}
		for range 500 {
			checkSnap(t, n, Point{rng.Float64(), rng.Float64()})
		}
	}
}

// TestNearestLocationNonFiniteNodes: the builder and the text format take
// NaN and infinite node coordinates. An edge touching one is at a NaN or
// infinite distance from every point, so it is never nearest, and a
// network of nothing else has no nearest edge at all.
func TestNearestLocationNonFiniteNodes(t *testing.T) {
	for _, withRoad := range []bool{false, true} {
		nb := NewNetworkBuilder(4, 5)
		a := nb.AddNode(Point{0, 0})
		b := nb.AddNode(Point{1, 0})
		nan := nb.AddNode(Point{math.NaN(), 0.5})
		inf := nb.AddNode(Point{0.5, math.Inf(1)})
		nb.AddEdge(nan, a, 1)
		nb.AddEdge(inf, inf, 1)
		nb.AddEdge(nan, nan, 1)
		nb.AddEdge(b, nan, 1)
		if withRoad {
			nb.AddEdge(b, a, 1)
		}
		n, err := nb.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []Point{{0, 0}, {0.5, 0.5}, {-3, 1e9}, {0.5, math.MaxFloat64}} {
			checkSnap(t, n, p)
		}
	}
}

// TestNearestLocationFirstCallsRace: 32 goroutines make the first calls on
// a fresh network, so they race to build the edge index; every answer
// must still be the scan's. Run it under -race.
func TestNearestLocationFirstCallsRace(t *testing.T) {
	n, err := Generate(NetworkSpec{Name: "snap", Nodes: 300, Edges: 390, Jitter: 0.3, MaxStretch: 0.2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	pts := make([]Point, 32)
	want := make([]Location, len(pts))
	for i := range pts {
		pts[i] = Point{rng.Float64(), rng.Float64()}
		want[i], _ = scanNearest(n, pts[i])
	}
	got := make([]Location, len(pts))
	errs := make([]error, len(pts))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range pts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i], errs[i] = n.NearestLocation(pts[i])
		}()
	}
	close(start)
	wg.Wait()
	for i := range pts {
		if errs[i] != nil || got[i] != want[i] {
			t.Errorf("goroutine %d: NearestLocation(%v) = %+v, %v; scan says %+v", i, pts[i], got[i], errs[i], want[i])
		}
	}
}

// BenchmarkNearestLocation times one snap of a uniform point in the unit
// square by the scan and by the edge index, on CA and NA. The tree arm
// also reports first-call-ms: the first NearestLocation on a fresh
// network, which builds the index.
//
//	go test -run '^$' -bench NearestLocation .
func BenchmarkNearestLocation(b *testing.B) {
	for _, spec := range []NetworkSpec{CA, NA} {
		b.Run(spec.Name, func(b *testing.B) {
			n, err := Generate(spec)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			pts := make([]Point, 1024)
			for i := range pts {
				pts[i] = Point{rng.Float64(), rng.Float64()}
			}
			b.Run("scan", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					scanNearest(n, pts[i%len(pts)])
				}
			})
			b.Run("tree", func(b *testing.B) {
				fresh := &Network{g: n.g}
				start := time.Now()
				if _, err := fresh.NearestLocation(pts[0]); err != nil {
					b.Fatal(err)
				}
				first := time.Since(start)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fresh.NearestLocation(pts[i%len(pts)])
				}
				b.ReportMetric(float64(first.Microseconds())/1e3, "first-call-ms")
			})
		})
	}
}
