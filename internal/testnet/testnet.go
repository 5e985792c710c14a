// Package testnet builds small randomized road networks and in-memory Net
// implementations for tests. It is independent of the production generator
// (internal/gen) so that generator and engine validate each other rather
// than sharing bugs.
package testnet

import (
	"math"
	"math/rand"

	"roadskyline/internal/diskgraph"
	"roadskyline/internal/geom"
	"roadskyline/internal/graph"
	"roadskyline/internal/middlelayer"
)

// RandomGraph returns a connected random graph with n nodes: a random
// spanning tree over uniform points plus extra short edges. Edge lengths
// are the Euclidean distance times a random detour factor in [1, 1.5].
func RandomGraph(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder(n, 2*n)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
		b.AddNode(pts[i])
	}
	addEdge := func(u, v int) {
		d := pts[u].Dist(pts[v])
		if d == 0 {
			d = 1e-9 // coincident points still need a positive length
		}
		b.AddEdge(graph.NodeID(u), graph.NodeID(v), d*(1+rng.Float64()*0.5))
	}
	// Random spanning tree: connect node i to a random earlier node.
	for i := 1; i < n; i++ {
		addEdge(i, rng.Intn(i))
	}
	// Extra edges for alternative routes.
	extra := n / 2
	for k := 0; k < extra; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			addEdge(u, v)
		}
	}
	return b.MustBuild()
}

// DegenerateGraph returns a connected random graph laced with the
// topology engines tend to mishandle: self-loops and parallel edges on
// random nodes, in addition to the spanning tree and shortcut edges of
// RandomGraph.
func DegenerateGraph(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder(n, 3*n)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
		b.AddNode(pts[i])
	}
	addEdge := func(u, v int) {
		d := pts[u].Dist(pts[v])
		if d == 0 {
			d = 1e-9
		}
		b.AddEdge(graph.NodeID(u), graph.NodeID(v), d*(1+rng.Float64()*0.5))
	}
	for i := 1; i < n; i++ {
		addEdge(i, rng.Intn(i))
	}
	// Self-loops: positive length, no displacement.
	for k := 0; k < 1+n/8; k++ {
		u := rng.Intn(n)
		b.AddEdge(graph.NodeID(u), graph.NodeID(u), 0.05+rng.Float64()*0.3)
	}
	// Parallel edges: duplicate a tree edge with a different length, so
	// both a shorter and a longer alternative exist between the same pair.
	for k := 0; k < 1+n/8; k++ {
		u := 1 + rng.Intn(n-1)
		v := rng.Intn(u)
		addEdge(u, v)
		addEdge(u, v)
	}
	return b.MustBuild()
}

// RandomObjects places m objects at uniform positions on random edges.
// When numAttrs > 0, each object gets that many random static attributes
// in [0, 100).
func RandomObjects(rng *rand.Rand, g *graph.Graph, m, numAttrs int) []graph.Object {
	objs := make([]graph.Object, m)
	for i := range objs {
		e := g.Edge(graph.EdgeID(rng.Intn(g.NumEdges())))
		objs[i] = graph.Object{
			ID:  graph.ObjectID(i),
			Loc: graph.Location{Edge: e.ID, Offset: rng.Float64() * e.Length},
		}
		if numAttrs > 0 {
			attrs := make([]float64, numAttrs)
			for a := range attrs {
				attrs[a] = math.Floor(rng.Float64() * 100)
			}
			objs[i].Attrs = attrs
		}
	}
	return objs
}

// RandomLocations returns k uniform random locations on edges of g.
func RandomLocations(rng *rand.Rand, g *graph.Graph, k int) []graph.Location {
	locs := make([]graph.Location, k)
	for i := range locs {
		e := g.Edge(graph.EdgeID(rng.Intn(g.NumEdges())))
		locs[i] = graph.Location{Edge: e.ID, Offset: rng.Float64() * e.Length}
	}
	return locs
}

// PlaceTies moves objs and pts onto the exact ties a continuous placement
// makes with probability zero: each offset snaps to 0 or its edge's length
// with probability 1/2, a third of the objects take another object's
// location, and the first query point sits on an object. It returns the
// graph they now lie on: g itself, or with tight set a copy of g in which
// every edge is exactly as long as the straight line between its ends (as
// graph.ReadCnodeCedge makes an edge it lengthens), the offsets scaled
// with their edges before they snap. On a tight edge the Euclidean bound
// of a point meets its network distance.
func PlaceTies(rng *rand.Rand, g *graph.Graph, objs []graph.Object, pts []graph.Location, tight bool) *graph.Graph {
	if tight {
		g = tighten(g, objs, pts)
	}
	snap := func(l *graph.Location) {
		if rng.Intn(2) == 0 {
			l.Offset = float64(rng.Intn(2)) * g.Edge(l.Edge).Length
		}
	}
	for i := range objs {
		snap(&objs[i].Loc)
	}
	for i := range pts {
		snap(&pts[i])
	}
	for i := range objs {
		if rng.Intn(3) == 0 {
			objs[i].Loc = objs[rng.Intn(len(objs))].Loc
		}
	}
	pts[0] = objs[rng.Intn(len(objs))].Loc
	return g
}

// tighten returns g with every edge as long as the straight line between
// its ends (coincident ends keep a length of 1e-9, as RandomGraph gives
// them), and moves objs and pts to the same fraction of their edges.
func tighten(g *graph.Graph, objs []graph.Object, pts []graph.Location) *graph.Graph {
	b := graph.NewBuilder(g.NumNodes(), g.NumEdges())
	for i := range g.NumNodes() {
		b.AddNode(g.NodePoint(graph.NodeID(i)))
	}
	for i := range g.NumEdges() {
		e := g.Edge(graph.EdgeID(i))
		l := g.NodePoint(e.U).Dist(g.NodePoint(e.V))
		if l == 0 {
			l = 1e-9
		}
		b.AddEdge(e.U, e.V, l)
	}
	tg := b.MustBuild()
	scale := func(l *graph.Location) {
		to := tg.Edge(l.Edge).Length
		l.Offset = min(l.Offset/g.Edge(l.Edge).Length*to, to)
	}
	for i := range objs {
		scale(&objs[i].Loc)
	}
	for i := range pts {
		scale(&pts[i])
	}
	return tg
}

// MemNet is an uncounted in-memory implementation of the sp.Net interface
// shape, backed directly by a Graph and an object list.
type MemNet struct {
	G      *graph.Graph
	byEdge map[graph.EdgeID][]middlelayer.ObjRef
	// numObjects is the dense object id-space size (max id + 1).
	numObjects int
	// Counters mirror what disk-backed nets measure, for rough comparisons.
	NeighborCalls int
	ObjectCalls   int
}

// NewMemNet indexes objs by edge over g.
func NewMemNet(g *graph.Graph, objs []graph.Object) *MemNet {
	n := &MemNet{G: g, byEdge: make(map[graph.EdgeID][]middlelayer.ObjRef)}
	for _, o := range objs {
		n.byEdge[o.Loc.Edge] = append(n.byEdge[o.Loc.Edge], middlelayer.ObjRef{ID: o.ID, Offset: o.Loc.Offset})
		if int(o.ID)+1 > n.numObjects {
			n.numObjects = int(o.ID) + 1
		}
	}
	return n
}

// Neighbors implements the Net interface.
func (n *MemNet) Neighbors(id graph.NodeID, buf []diskgraph.Neighbor) ([]diskgraph.Neighbor, error) {
	n.NeighborCalls++
	for he := range n.G.Adj(id).All() {
		buf = append(buf, diskgraph.Neighbor{
			To:     he.To,
			ToPt:   n.G.NodePoint(he.To),
			Edge:   he.Edge,
			Length: he.Length,
		})
	}
	return buf, nil
}

// NodePoint implements the Net interface.
func (n *MemNet) NodePoint(id graph.NodeID) (geom.Point, error) {
	return n.G.NodePoint(id), nil
}

// ObjectsOn implements the Net interface.
func (n *MemNet) ObjectsOn(e graph.EdgeID, buf []middlelayer.ObjRef) ([]middlelayer.ObjRef, error) {
	n.ObjectCalls++
	return append(buf, n.byEdge[e]...), nil
}

// Edge implements the Net interface.
func (n *MemNet) Edge(e graph.EdgeID) graph.Edge { return n.G.Edge(e) }

// NumNodes implements the Net interface.
func (n *MemNet) NumNodes() int { return n.G.NumNodes() }

// NumObjects implements the Net interface.
func (n *MemNet) NumObjects() int { return n.numObjects }
