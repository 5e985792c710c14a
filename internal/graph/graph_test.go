package graph

import (
	"math"
	"strings"
	"testing"

	"roadskyline/internal/geom"
)

// triangle builds the 3-node triangle used by several tests:
//
//	0 --(1.0)-- 1
//	 \         /
//	 (2.0) (1.5)
//	   \     /
//	     2
func triangle(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(3, 3)
	b.AddNode(geom.Point{X: 0, Y: 0})
	b.AddNode(geom.Point{X: 1, Y: 0})
	b.AddNode(geom.Point{X: 0.5, Y: 1})
	b.AddEdge(0, 1, 1.0)
	b.AddEdge(0, 2, 2.0)
	b.AddEdge(1, 2, 1.5)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBuilderBasics(t *testing.T) {
	g := triangle(t)
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("size = (%d,%d)", g.NumNodes(), g.NumEdges())
	}
	if g.NodePoint(2) != (geom.Point{X: 0.5, Y: 1}) {
		t.Errorf("NodePoint(2) = %v", g.NodePoint(2))
	}
	if e := g.Edge(1); e.U != 0 || e.V != 2 || e.Length != 2.0 {
		t.Errorf("Edge(1) = %+v", e)
	}
	if g.Adj(0).Len() != 2 || g.Adj(1).Len() != 2 || g.Adj(2).Len() != 2 {
		t.Errorf("adjacency degrees wrong")
	}
	if g.Adj(0).Len() != 2 || g.Adj(1).Len() != 2 || g.Adj(2).Len() != 2 {
		t.Errorf("Degree disagrees with Adj")
	}
	// Adjacency must mirror edges in both directions.
	found := false
	for he := range g.Adj(2).All() {
		if he.To == 0 && he.Edge == 1 && he.Length == 2.0 {
			found = true
		}
	}
	if !found {
		t.Error("reverse halfedge 2->0 missing")
	}
	want := geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	if g.Bounds() != want {
		t.Errorf("Bounds = %v, want %v", g.Bounds(), want)
	}
}

// TestAdjViewImmutable pins the read-only contract of Adj: callers get
// halfedge values (via At or All), so mutating a materialized copy must not
// alter what subsequent Adj calls observe. A previous version of Adj handed
// out the graph's internal slice, letting callers corrupt shared state.
func TestAdjViewImmutable(t *testing.T) {
	g := triangle(t)
	adj := g.Adj(0)
	before := make([]Halfedge, 0, adj.Len())
	for he := range adj.All() {
		before = append(before, he)
	}
	// Mutate the copy every way a caller plausibly could have mutated the
	// old shared slice: overwrite entries, append past its length.
	cp := append([]Halfedge(nil), before...)
	for i := range cp {
		cp[i] = Halfedge{To: 99, Edge: 99, Length: 1e9}
	}
	_ = append(cp, Halfedge{To: 77})
	// Values read through At must be copies too.
	he := g.Adj(0).At(0)
	he.Length = -1
	after := g.Adj(0)
	if after.Len() != len(before) {
		t.Fatalf("Adj length changed: %d -> %d", len(before), after.Len())
	}
	for i := range before {
		if after.At(i) != before[i] {
			t.Fatalf("halfedge %d changed: %+v -> %+v", i, before[i], after.At(i))
		}
	}
	// Edge endpoints seen through the view must stay consistent with the
	// edge table (a corrupted slab would break this invariant).
	for i := 0; i < after.Len(); i++ {
		e := g.Edge(after.At(i).Edge)
		if e.U != 0 && e.V != 0 {
			t.Fatalf("halfedge %d references edge %d not incident to node 0", i, after.At(i).Edge)
		}
	}
}

func TestBuildRejectsBadEdges(t *testing.T) {
	mk := func() *Builder {
		b := NewBuilder(2, 1)
		b.AddNode(geom.Point{X: 0, Y: 0})
		b.AddNode(geom.Point{X: 3, Y: 4})
		return b
	}
	cases := []struct {
		name string
		prep func(*Builder)
	}{
		{"missing node", func(b *Builder) { b.AddEdge(0, 7, 10) }},
		{"negative node", func(b *Builder) { b.AddEdge(-1, 0, 10) }},
		{"zero length", func(b *Builder) { b.AddEdge(0, 1, 0) }},
		{"negative length", func(b *Builder) { b.AddEdge(0, 1, -2) }},
		{"NaN length", func(b *Builder) { b.AddEdge(0, 1, math.NaN()) }},
		{"shorter than euclidean", func(b *Builder) { b.AddEdge(0, 1, 4.9) }},
	}
	for _, c := range cases {
		b := mk()
		c.prep(b)
		if _, err := b.Build(); err == nil {
			t.Errorf("%s: Build succeeded, want error", c.name)
		}
	}
	// Exactly the Euclidean length is fine.
	b := mk()
	b.AddEdge(0, 1, 5.0)
	if _, err := b.Build(); err != nil {
		t.Errorf("euclidean-length edge rejected: %v", err)
	}
}

// TestBuildDegenerateTopology checks that self-loops and parallel edges are
// accepted and produce the expected adjacency: a self-loop appears exactly
// once in its node's list (traversal returns to the same node), parallel
// edges appear as distinct halfedges on both endpoints.
func TestBuildDegenerateTopology(t *testing.T) {
	b := NewBuilder(2, 3)
	b.AddNode(geom.Point{X: 0, Y: 0})
	b.AddNode(geom.Point{X: 3, Y: 4})
	loop := b.AddEdge(1, 1, 10)
	p1 := b.AddEdge(0, 1, 5)
	p2 := b.AddEdge(0, 1, 7) // parallel to p1, longer detour
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	loops := 0
	for he := range g.Adj(1).All() {
		if he.Edge == loop {
			loops++
			if he.To != 1 || he.Length != 10 {
				t.Errorf("self-loop halfedge = %+v", he)
			}
		}
	}
	if loops != 1 {
		t.Errorf("self-loop appears %d times in adjacency, want 1", loops)
	}
	for _, node := range []NodeID{0, 1} {
		seen := map[EdgeID]bool{}
		for he := range g.Adj(node).All() {
			if he.Edge == p1 || he.Edge == p2 {
				seen[he.Edge] = true
			}
		}
		if !seen[p1] || !seen[p2] {
			t.Errorf("node %d adjacency misses a parallel edge: %v", node, seen)
		}
	}
}

func TestPointAt(t *testing.T) {
	g := triangle(t)
	// Edge 0 is 0->1, straight, length 1.
	if p := g.PointAt(0, 0); p != (geom.Point{X: 0, Y: 0}) {
		t.Errorf("PointAt(0,0) = %v", p)
	}
	if p := g.PointAt(0, 1); p != (geom.Point{X: 1, Y: 0}) {
		t.Errorf("PointAt(0,len) = %v", p)
	}
	if p := g.PointAt(0, 0.25); p != (geom.Point{X: 0.25, Y: 0}) {
		t.Errorf("PointAt(0,0.25) = %v", p)
	}
	// Edge 1 has travel length 2 but Euclidean span ~1.118: interpolation is
	// by the fraction of travel length.
	mid := g.PointAt(1, 1.0)
	want := geom.Point{X: 0.25, Y: 0.5}
	if mid.Dist(want) > 1e-12 {
		t.Errorf("PointAt(1,1.0) = %v, want %v", mid, want)
	}
	// Out-of-range offsets clamp.
	if p := g.PointAt(0, 99); p != (geom.Point{X: 1, Y: 0}) {
		t.Errorf("clamped PointAt = %v", p)
	}
	// The far end is node V exactly: 0.5 + (0.05-0.5)*1 rounds to
	// 0.04999999999999999.
	b := NewBuilder(2, 1)
	b.AddNode(geom.Point{X: 0.5, Y: 0})
	b.AddNode(geom.Point{X: 0.05, Y: 0})
	b.AddEdge(0, 1, 0.7)
	if p := b.MustBuild().PointAt(0, 0.7); p != (geom.Point{X: 0.05, Y: 0}) {
		t.Errorf("PointAt(e, len) = %v, want node V (0.05, 0)", p)
	}
}

func TestValidateLocation(t *testing.T) {
	g := triangle(t)
	if err := g.ValidateLocation(Location{Edge: 0, Offset: 0.5}); err != nil {
		t.Errorf("valid location rejected: %v", err)
	}
	if err := g.ValidateLocation(Location{Edge: 9, Offset: 0}); err == nil {
		t.Error("missing edge accepted")
	}
	if err := g.ValidateLocation(Location{Edge: 0, Offset: 1.5}); err == nil {
		t.Error("offset beyond edge length accepted")
	}
	if err := g.ValidateLocation(Location{Edge: 0, Offset: -0.1}); err == nil {
		t.Error("negative offset accepted")
	}
}

func TestComponents(t *testing.T) {
	b := NewBuilder(5, 2)
	for i := 0; i < 5; i++ {
		b.AddNode(geom.Point{X: float64(i), Y: 0})
	}
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	g := b.MustBuild()
	labels, n := g.Components()
	if n != 3 {
		t.Fatalf("components = %d, want 3", n)
	}
	if labels[0] != labels[1] || labels[2] != labels[3] {
		t.Error("connected nodes got different labels")
	}
	if labels[0] == labels[2] || labels[0] == labels[4] || labels[2] == labels[4] {
		t.Error("disconnected nodes share a label")
	}
	if g.Connected() {
		t.Error("disconnected graph reported connected")
	}
	if !triangle(t).Connected() {
		t.Error("triangle reported disconnected")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	g := triangle(t)
	var sb strings.Builder
	if err := g.Write(&sb); err != nil {
		t.Fatalf("Write: %v", err)
	}
	g2, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("roundtrip size mismatch")
	}
	for i := 0; i < g.NumNodes(); i++ {
		if g.NodePoint(NodeID(i)) != g2.NodePoint(NodeID(i)) {
			t.Errorf("node %d: %v != %v", i, g.NodePoint(NodeID(i)), g2.NodePoint(NodeID(i)))
		}
	}
	for i := 0; i < g.NumEdges(); i++ {
		if g.Edge(EdgeID(i)) != g2.Edge(EdgeID(i)) {
			t.Errorf("edge %d: %+v != %+v", i, g.Edge(EdgeID(i)), g2.Edge(EdgeID(i)))
		}
	}
}

func TestReadCommentsAndBlankLines(t *testing.T) {
	input := `# generated by test
roadnet 1

nodes 2
# first node
0 0
1 0
edges 1
0 1 1
`
	g, err := Read(strings.NewReader(input))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("size = (%d,%d)", g.NumNodes(), g.NumEdges())
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"bad magic", "roadmap 1\nnodes 0\nedges 0\n"},
		{"bad version", "roadnet 9\nnodes 0\nedges 0\n"},
		{"truncated nodes", "roadnet 1\nnodes 2\n0 0\n"},
		{"bad node fields", "roadnet 1\nnodes 1\n0 0 0\nedges 0\n"},
		{"bad node float", "roadnet 1\nnodes 1\nx y\nedges 0\n"},
		{"truncated edges", "roadnet 1\nnodes 2\n0 0\n1 0\nedges 1\n"},
		{"bad edge fields", "roadnet 1\nnodes 2\n0 0\n1 0\nedges 1\n0 1\n"},
		{"invalid edge", "roadnet 1\nnodes 2\n0 0\n1 0\nedges 1\n0 5 1\n"},
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: Read succeeded, want error", c.name)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0, 0).MustBuild()
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatal("empty graph not empty")
	}
	if !g.Connected() {
		t.Error("empty graph should count as connected")
	}
	var sb strings.Builder
	if err := g.Write(&sb); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if _, err := Read(strings.NewReader(sb.String())); err != nil {
		t.Fatalf("Read empty: %v", err)
	}
}

func TestNormalizeToUnitSquare(t *testing.T) {
	b := NewBuilder(3, 2)
	b.AddNode(geom.Point{X: 100, Y: 200})
	b.AddNode(geom.Point{X: 300, Y: 200})
	b.AddNode(geom.Point{X: 100, Y: 300})
	b.AddEdge(0, 1, 250) // stretched edge
	b.AddEdge(0, 2, 100)
	g := b.MustBuild()
	ng := g.NormalizeToUnitSquare()
	nb := ng.Bounds()
	if nb.MinX != 0 || nb.MinY != 0 {
		t.Errorf("normalized bounds not anchored: %v", nb)
	}
	if nb.MaxX > 1+1e-12 || nb.MaxY > 1+1e-12 {
		t.Errorf("normalized bounds exceed unit square: %v", nb)
	}
	// Uniform scaling preserves length ratios and validity.
	if math.Abs(ng.Edge(0).Length/ng.Edge(1).Length-2.5) > 1e-12 {
		t.Errorf("length ratio not preserved: %v / %v", ng.Edge(0).Length, ng.Edge(1).Length)
	}
	// Span 200 in x -> scale 1/200: edge 0 length 250 -> 1.25.
	if math.Abs(ng.Edge(0).Length-1.25) > 1e-12 {
		t.Errorf("edge 0 length = %v, want 1.25", ng.Edge(0).Length)
	}
	// Degenerate graph (single point) must not divide by zero.
	b2 := NewBuilder(1, 0)
	b2.AddNode(geom.Point{X: 5, Y: 5})
	if g2 := b2.MustBuild().NormalizeToUnitSquare(); g2.NumNodes() != 1 {
		t.Error("degenerate normalize failed")
	}
}

func TestReadCnodeCedge(t *testing.T) {
	cnode := `# node file
2 10 0
0 0 0
1 10 10
`
	cedge := `# edge file
0 0 2 10
1 2 1 9.9
`
	g, err := ReadCnodeCedge(strings.NewReader(cnode), strings.NewReader(cedge))
	if err != nil {
		t.Fatalf("ReadCnodeCedge: %v", err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("size = (%d,%d)", g.NumNodes(), g.NumEdges())
	}
	if g.NodePoint(2) != (geom.Point{X: 10, Y: 0}) {
		t.Errorf("node 2 = %v", g.NodePoint(2))
	}
	// Edge 1's stated length 9.9 is below the Euclidean span 10 and must be
	// raised to it.
	if e := g.Edge(1); e.Length != 10 {
		t.Errorf("edge 1 length = %v, want raised to 10", e.Length)
	}
}

func TestReadCnodeCedgeErrors(t *testing.T) {
	good := "0 0 0\n1 1 1\n"
	cases := []struct{ name, cn, ce string }{
		{"bad node fields", "0 0\n", ""},
		{"duplicate node", "0 0 0\n0 1 1\n", ""},
		{"sparse ids", "0 0 0\n2 1 1\n", ""},
		{"bad edge fields", good, "0 0 1\n"},
		{"edge out of range", good, "0 0 9 1\n"},
		{"bad edge number", good, "0 0 x 1\n"},
	}
	for _, c := range cases {
		if _, err := ReadCnodeCedge(strings.NewReader(c.cn), strings.NewReader(c.ce)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
