package main

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"roadskyline"
)

// buildNetwork builds a network from node coordinates and (u, v, length)
// edges.
func buildNetwork(t *testing.T, nodes []roadskyline.Point, edges [][3]float64) *roadskyline.Network {
	t.Helper()
	nb := roadskyline.NewNetworkBuilder(len(nodes), len(edges))
	for _, p := range nodes {
		nb.AddNode(p)
	}
	for _, e := range edges {
		nb.AddEdge(int32(e[0]), int32(e[1]), e[2])
	}
	n, err := nb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestWriteQueryPlot(t *testing.T) {
	// A 3x2 street grid whose bottom-right street detours.
	n := buildNetwork(t,
		[]roadskyline.Point{{X: 0, Y: 1}, {X: 1, Y: 1}, {X: 2, Y: 1}, {X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}},
		[][3]float64{{0, 1, 1}, {1, 2, 1}, {0, 3, 1}, {1, 4, 1}, {2, 5, 1}, {3, 4, 1}, {4, 5, 2}})
	objs := []roadskyline.Object{
		{ID: 0, Loc: roadskyline.Location{Edge: 0, Offset: 0.2}},
		{ID: 1, Loc: roadskyline.Location{Edge: 1, Offset: 0.8}},
		{ID: 2, Loc: roadskyline.Location{Edge: 6, Offset: 1.0}},
	}
	eng, err := roadskyline.NewEngine(n, objs, roadskyline.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	qp := []roadskyline.Location{{Edge: 0, Offset: 0}, {Edge: 1, Offset: 1}}
	res, err := eng.Skyline(roadskyline.Query{Points: qp, Algorithm: roadskyline.LBCAlg})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := writeQueryPlot(&sb, n, objs, qp, res); err != nil {
		t.Fatal(err)
	}
	svg := sb.String()
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(svg, "</svg>\n") {
		t.Errorf("not one svg element:\n%s", svg)
	}
	for _, want := range []string{"<path", ">q0</text>", ">q1</text>"} {
		if !strings.Contains(svg, want) {
			t.Errorf("plot missing %q", want)
		}
	}
	// One move command per edge; every object and query point drawn once,
	// the skyline in red.
	for _, c := range []struct {
		what string
		want int
	}{
		{"M", n.NumEdges()},
		{"<circle", len(objs) + len(qp)},
		{`fill="#d5473c"`, len(res.Points)},
		{`fill="#c2c8cd"`, len(objs) - len(res.Points)},
		{`fill="#2868c8"`, len(qp)},
	} {
		if got := strings.Count(svg, c.what); got != c.want {
			t.Errorf("%d of %q, want %d", got, c.what, c.want)
		}
	}
}

// A random network drawn without a skyline: every edge, object and query
// point still appears, and no object is marked red.
func TestPlotBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nodes := make([]roadskyline.Point, 30)
	for i := range nodes {
		nodes[i] = roadskyline.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	length := func(u, v int) float64 {
		return math.Hypot(nodes[u].X-nodes[v].X, nodes[u].Y-nodes[v].Y) + 0.01
	}
	var edges [][3]float64
	for v := 1; v < len(nodes); v++ {
		u := rng.Intn(v)
		edges = append(edges, [3]float64{float64(u), float64(v), length(u, v)})
	}
	n := buildNetwork(t, nodes, edges)
	var objs []roadskyline.Object
	for i := range int32(10) {
		e := rng.Int31n(int32(n.NumEdges()))
		_, _, l := n.EdgeEnds(e)
		objs = append(objs, roadskyline.Object{ID: i, Loc: roadskyline.Location{Edge: e, Offset: rng.Float64() * l}})
	}
	qp := []roadskyline.Location{{Edge: 0, Offset: 0}, {Edge: 3, Offset: 0}, {Edge: 7, Offset: 0}}
	var sb strings.Builder
	if err := writeQueryPlot(&sb, n, objs, qp, nil); err != nil {
		t.Fatal(err)
	}
	svg := sb.String()
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(svg, "</svg>\n") {
		t.Errorf("not one svg element:\n%s", svg)
	}
	for _, want := range []string{"<path", ">q0</text>", ">q1</text>", ">q2</text>"} {
		if !strings.Contains(svg, want) {
			t.Errorf("plot missing %q", want)
		}
	}
	for _, c := range []struct {
		what string
		want int
	}{
		{"M", n.NumEdges()},
		{"<circle", len(objs) + len(qp)},
		{`fill="#d5473c"`, 0},
		{`fill="#c2c8cd"`, len(objs)},
		{`fill="#2868c8"`, len(qp)},
	} {
		if got := strings.Count(svg, c.what); got != c.want {
			t.Errorf("%d of %q, want %d", got, c.what, c.want)
		}
	}
}

// Coordinates must stay inside the canvas for any network bounds.
func TestPlotTransformInBounds(t *testing.T) {
	n := buildNetwork(t,
		[]roadskyline.Point{{X: -500, Y: 1000}, {X: 2500, Y: 1000}, {X: 0, Y: 3000}},
		[][3]float64{{0, 1, 3000}, {0, 2, 2200}})
	f := newFrame(n, 200)
	for v := range int32(n.NumNodes()) {
		x, y := f.at(n.NodePoint(v))
		if x < 0 || x > 200 || y < 0 || y > 200 {
			t.Errorf("node %d maps to (%v,%v) outside canvas", v, x, y)
		}
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{
		1.0:    "1",
		1.5:    "1.5",
		1.25:   "1.25",
		1.2345: "1.23",
		100:    "100",
	}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Errorf("trimFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
