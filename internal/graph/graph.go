// Package graph models a road network as an undirected graph embedded in
// the plane: nodes are road junctions with coordinates, edges are road
// segments with a travel length, and data objects / query points live on
// edges at an offset from one endpoint (paper Section 3).
package graph

import (
	"fmt"
	"iter"
	"math"

	"roadskyline/internal/geom"
)

// NodeID identifies a node. Node ids are dense: 0..NumNodes-1.
type NodeID int32

// EdgeID identifies an edge. Edge ids are dense: 0..NumEdges-1.
type EdgeID int32

// ObjectID identifies a data object. Object ids are dense: 0..len(D)-1.
type ObjectID int32

// Node is a road junction.
type Node struct {
	ID NodeID
	Pt geom.Point
}

// Edge is an undirected road segment between nodes U and V. Length is the
// travel distance along the segment and must be at least the Euclidean
// distance between the endpoints (a polyline is never shorter than the
// straight line), which keeps the A* heuristic admissible. Self-loops
// (U == V, e.g. a cul-de-sac circle) and parallel edges between the same
// node pair are allowed.
type Edge struct {
	ID     EdgeID
	U, V   NodeID
	Length float64
}

// Halfedge is one direction of an edge as seen from a node's adjacency list.
type Halfedge struct {
	To     NodeID
	Edge   EdgeID
	Length float64
}

// Graph is an in-memory road network. Construct it with NewBuilder. A Graph
// is immutable after Build and safe for concurrent readers.
//
// The adjacency is stored in CSR (compressed sparse row) form: one packed
// halfedge slab indexed by per-node offsets. Node ids are dense, so a
// node's halfedges are the slab range adjOff[id]..adjOff[id+1] — one
// contiguous cache-friendly block, with no per-node slice headers or
// pointer chasing.
type Graph struct {
	nodes     []Node
	edges     []Edge
	adjOff    []int32    // len NumNodes+1; node id's halfedges live at halfedges[adjOff[id]:adjOff[id+1]]
	halfedges []Halfedge // CSR slab, grouped by owning node
	bounds    geom.Rect
}

// AdjList is a read-only view of one node's adjacency range in the CSR
// slab. Adj used to return the internal slice; a caller appending to or
// sorting that slice would have corrupted the shared state of a graph that
// is documented as immutable and is shared across engine clones. The view
// exposes the halfedges without handing out the backing array.
type AdjList struct {
	hs []Halfedge
}

// Len returns the number of halfedges in the list.
func (l AdjList) Len() int { return len(l.hs) }

// At returns the i-th halfedge.
func (l AdjList) At(i int) Halfedge { return l.hs[i] }

// All iterates over the halfedges in slab order.
func (l AdjList) All() iter.Seq[Halfedge] {
	return func(yield func(Halfedge) bool) {
		for _, he := range l.hs {
			if !yield(he) {
				return
			}
		}
	}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// NodePoint returns the coordinates of the node with the given id.
func (g *Graph) NodePoint(id NodeID) geom.Point { return g.nodes[id].Pt }

// Edge returns the edge with the given id.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// Adj returns a read-only view of node id's adjacency list.
func (g *Graph) Adj(id NodeID) AdjList {
	return AdjList{hs: g.halfedges[g.adjOff[id]:g.adjOff[id+1]]}
}

// Bounds returns the bounding rectangle of all node coordinates.
func (g *Graph) Bounds() geom.Rect { return g.bounds }

// PointAt returns the planar position at distance offset from edge e's U
// endpoint, measured along the edge. The position interpolates linearly
// between the endpoints (edges are drawn as straight lines even when their
// travel length exceeds the Euclidean length).
func (g *Graph) PointAt(e EdgeID, offset float64) geom.Point {
	ed := g.edges[e]
	if ed.Length == 0 {
		return g.nodes[ed.U].Pt
	}
	t := offset / ed.Length
	if t < 0 {
		t = 0
	} else if t >= 1 {
		// The far end is node V itself: Lerp at t = 1 can land an ulp off
		// it, and a Euclidean bound from there can exceed a network
		// distance of zero.
		return g.nodes[ed.V].Pt
	}
	return g.nodes[ed.U].Pt.Lerp(g.nodes[ed.V].Pt, t)
}

// Location is a position on the network: an edge plus the distance from the
// edge's U endpoint along the edge. Both data objects and query points are
// Locations.
type Location struct {
	Edge   EdgeID
	Offset float64
}

// Point returns the planar position of loc on graph g.
func (g *Graph) Point(loc Location) geom.Point {
	return g.PointAt(loc.Edge, loc.Offset)
}

// Object is a data object on the network. Attrs holds optional static
// non-spatial attributes (e.g. hotel price); they become extra skyline
// dimensions when the query enables them.
type Object struct {
	ID    ObjectID
	Loc   Location
	Attrs []float64
}

// Builder accumulates nodes and edges and validates them into a Graph.
type Builder struct {
	nodes []Node
	edges []Edge
}

// NewBuilder returns a Builder with capacity hints.
func NewBuilder(nodes, edges int) *Builder {
	return &Builder{
		nodes: make([]Node, 0, nodes),
		edges: make([]Edge, 0, edges),
	}
}

// AddNode appends a node and returns its id.
func (b *Builder) AddNode(pt geom.Point) NodeID {
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, Node{ID: id, Pt: pt})
	return id
}

// AddEdge appends an edge between u and v with the given travel length and
// returns its id. Length may exceed the Euclidean distance (polylines) but
// must not be shorter; Build validates this.
func (b *Builder) AddEdge(u, v NodeID, length float64) EdgeID {
	id := EdgeID(len(b.edges))
	b.edges = append(b.edges, Edge{ID: id, U: u, V: v, Length: length})
	return id
}

// Build validates the accumulated nodes and edges and returns the Graph.
func (b *Builder) Build() (*Graph, error) {
	g := &Graph{
		nodes:  b.nodes,
		edges:  b.edges,
		bounds: boundsOf(b.nodes),
	}
	n := NodeID(len(g.nodes))
	deg := make([]int32, len(g.nodes))
	total := 0
	for _, e := range g.edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("graph: edge %d references missing node (%d-%d, have %d nodes)", e.ID, e.U, e.V, n)
		}
		if e.Length <= 0 || math.IsNaN(e.Length) || math.IsInf(e.Length, 0) {
			return nil, fmt.Errorf("graph: edge %d has invalid length %v", e.ID, e.Length)
		}
		euclid := g.nodes[e.U].Pt.Dist(g.nodes[e.V].Pt)
		if e.Length < euclid-1e-9 {
			return nil, fmt.Errorf("graph: edge %d length %v shorter than Euclidean distance %v", e.ID, e.Length, euclid)
		}
		deg[e.U]++
		total++
		// A self-loop contributes a single halfedge: traversing it returns
		// to the same node, but the edge must still appear in the adjacency
		// list so wavefronts scan it for data objects.
		if e.U != e.V {
			deg[e.V]++
			total++
		}
	}
	// CSR layout: prefix-sum the degrees into offsets, then fill the slab
	// with a per-node write cursor.
	g.adjOff = make([]int32, len(g.nodes)+1)
	for i, d := range deg {
		g.adjOff[i+1] = g.adjOff[i] + d
	}
	g.halfedges = make([]Halfedge, total)
	cursor := make([]int32, len(g.nodes))
	copy(cursor, g.adjOff[:len(g.nodes)])
	place := func(at NodeID, he Halfedge) {
		g.halfedges[cursor[at]] = he
		cursor[at]++
	}
	for _, e := range g.edges {
		place(e.U, Halfedge{To: e.V, Edge: e.ID, Length: e.Length})
		if e.U != e.V {
			place(e.V, Halfedge{To: e.U, Edge: e.ID, Length: e.Length})
		}
	}
	return g, nil
}

// boundsOf is the bounding rectangle of the nodes' coordinates, which a
// graph computes on construction rather than keeps.
func boundsOf(nodes []Node) geom.Rect {
	r := geom.EmptyRect()
	for _, n := range nodes {
		r = r.Union(geom.RectFromPoint(n.Pt))
	}
	return r
}

// MustBuild is Build but panics on error; intended for tests and generators
// whose construction is correct by design.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// NormalizeToUnitSquare returns a copy of g with node coordinates scaled
// uniformly (and edge lengths with them) so the bounding box fits the unit
// square anchored at the origin — the paper's normalization of every road
// network into a 1 km x 1 km region.
func (g *Graph) NormalizeToUnitSquare() *Graph {
	b := g.bounds
	w := b.MaxX - b.MinX
	h := b.MaxY - b.MinY
	scale := 1.0
	if m := math.Max(w, h); m > 0 {
		scale = 1 / m
	}
	nb := NewBuilder(len(g.nodes), len(g.edges))
	for _, n := range g.nodes {
		nb.AddNode(geom.Point{X: (n.Pt.X - b.MinX) * scale, Y: (n.Pt.Y - b.MinY) * scale})
	}
	for _, e := range g.edges {
		nb.AddEdge(e.U, e.V, e.Length*scale)
	}
	return nb.MustBuild()
}

// ValidateLocation reports an error when loc does not identify a valid
// position on g (unknown edge or offset outside [0, length]).
func (g *Graph) ValidateLocation(loc Location) error {
	if loc.Edge < 0 || int(loc.Edge) >= len(g.edges) {
		return fmt.Errorf("graph: location references missing edge %d", loc.Edge)
	}
	if l := g.edges[loc.Edge].Length; !(loc.Offset >= 0 && loc.Offset <= l+1e-9) { // also rejects NaN
		return fmt.Errorf("graph: location offset %v outside edge %d of length %v", loc.Offset, loc.Edge, l)
	}
	return nil
}
