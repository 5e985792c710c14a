// Package roadskyline answers multi-source relative skyline queries in road
// networks. Given a road network, a set of data objects located on its
// edges (optionally carrying static attributes such as price), and a set of
// query locations, it finds every object whose vector of network
// (shortest-path) distances to the query points is not dominated by any
// other object's — "hotels that are close to the University, the Botanic
// Garden and Chinatown, all at once".
//
// It is an implementation of Deng, Zhou, Shen: "Multi-source Skyline Query
// Processing in Road Networks" (ICDE 2007), including all three of the
// paper's algorithms:
//
//   - CE, Collaborative Expansion: Dijkstra wavefronts around every query
//     point expanded collaboratively;
//   - EDC, Euclidean Distance Constraint: Euclidean-space skyline seeds
//     directing A* network expansion;
//   - LBC, Lower-Bound Constraint: incremental network nearest neighbors
//     with path-distance-lower-bound dominance checking, instance-optimal
//     in network page accesses.
//
// The typical flow is: build or generate a Network, attach Objects with
// NewEngine, and call Engine.Skyline. The engine simulates the paper's
// storage stack (4 KB pages, LRU buffering, Hilbert-clustered adjacency,
// a B+-tree middle layer and an object R-tree), so result Stats carry
// faithful disk-access metrics alongside the answer.
package roadskyline

import (
	"fmt"
	"io"
	"math"
	"sync"

	"roadskyline/internal/gen"
	"roadskyline/internal/geom"
	"roadskyline/internal/graph"
	"roadskyline/internal/rtree"
)

// Point is a planar coordinate in the network's embedding (the paper
// normalizes networks into a 1 km x 1 km region, so coordinates are
// usually in [0, 1]).
type Point struct {
	X, Y float64
}

// Location is a position on the network: an edge index plus the distance
// from the edge's U endpoint along the edge.
type Location struct {
	Edge   int32
	Offset float64
}

// Object is a data object on the network. ID is assigned by NewEngine
// (dense, in input order). Attrs are optional static attributes that become
// extra skyline dimensions when Query.UseAttrs is set; like distances, they
// are minimized.
type Object struct {
	ID    int32
	Loc   Location
	Attrs []float64
}

// Network is an immutable road network.
type Network struct {
	g     *graph.Graph
	edges edgeIndex // built by the first NearestLocation
}

// NetworkBuilder accumulates nodes and edges.
type NetworkBuilder struct {
	b *graph.Builder
}

// NewNetworkBuilder returns a builder with capacity hints.
func NewNetworkBuilder(nodes, edges int) *NetworkBuilder {
	return &NetworkBuilder{b: graph.NewBuilder(nodes, edges)}
}

// AddNode appends a road junction and returns its index.
func (nb *NetworkBuilder) AddNode(p Point) int32 {
	return int32(nb.b.AddNode(geom.Point{X: p.X, Y: p.Y}))
}

// AddEdge appends a road segment between nodes u and v with the given
// travel length (at least the Euclidean distance between the endpoints) and
// returns its index.
func (nb *NetworkBuilder) AddEdge(u, v int32, length float64) int32 {
	return int32(nb.b.AddEdge(graph.NodeID(u), graph.NodeID(v), length))
}

// Build validates the accumulated network.
func (nb *NetworkBuilder) Build() (*Network, error) {
	g, err := nb.b.Build()
	if err != nil {
		return nil, err
	}
	return &Network{g: g}, nil
}

// NumNodes returns the number of road junctions.
func (n *Network) NumNodes() int { return n.g.NumNodes() }

// NumEdges returns the number of road segments.
func (n *Network) NumEdges() int { return n.g.NumEdges() }

// NodePoint returns the coordinates of node id.
func (n *Network) NodePoint(id int32) Point {
	p := n.g.NodePoint(graph.NodeID(id))
	return Point{p.X, p.Y}
}

// EdgeEnds returns edge e's endpoints and travel length.
func (n *Network) EdgeEnds(e int32) (u, v int32, length float64) {
	ed := n.g.Edge(graph.EdgeID(e))
	return int32(ed.U), int32(ed.V), ed.Length
}

// PointOf returns the planar position of a location.
func (n *Network) PointOf(loc Location) Point {
	p := n.g.Point(graph.Location{Edge: graph.EdgeID(loc.Edge), Offset: loc.Offset})
	return Point{p.X, p.Y}
}

// Connected reports whether the network is a single connected component.
func (n *Network) Connected() bool { return n.g.Connected() }

// NearestLocation maps an arbitrary coordinate to the closest position on
// the network (a point on the nearest edge). It is how applications anchor
// "the hotel at (x, y)" onto the road graph.
//
// The search runs best-first over an STR-packed R-tree of edge bounding
// boxes, so a snap reads the edges near p rather than all of them (on a
// 2-CPU x86-64 box, ~9 µs on CA where a scan of every edge takes ~130 µs).
// The tree is built on the first call (~2.5 ms on CA, ~0.1 s on NA) and
// shared by every later one; concurrent first calls wait for one build. Among edges at the same distance the lowest edge index wins,
// exactly as a scan over all edges in index order would choose.
//
// NaN and infinite coordinates are an error: nothing is nearest to them.
// So is a finite coordinate so far out that its distance to every edge
// overflows.
func (n *Network) NearestLocation(p Point) (Location, error) {
	if n.g.NumEdges() == 0 {
		return Location{}, fmt.Errorf("roadskyline: network has no edges")
	}
	if math.IsNaN(p.X+p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
		return Location{}, fmt.Errorf("roadskyline: coordinate (%g, %g) is not finite", p.X, p.Y)
	}
	gp := geom.Point{X: p.X, Y: p.Y}
	ix := n.edgeIndex()
	it := ix.tree.NewBestFirst(
		func(_ int, r geom.Rect) float64 { return r.MinDist(gp) },
		func(_ int, e rtree.Entry) float64 {
			// A NaN distance is never nearest; +Inf keeps the heap
			// ordered and loses the same way.
			if d, _ := n.segmentDist(graph.EdgeID(e.ID), gp); !math.IsNaN(d) {
				return d
			}
			return math.Inf(1)
		},
		nil, nil)
	best, bestDist := graph.EdgeID(-1), math.Inf(1)
	for {
		e, d, ok := it.Next()
		// Everything still queued lies at least floor(d) away: once that
		// clears bestDist nothing left can beat or tie it.
		if !ok || ix.floor(d) > bestDist {
			break
		}
		if id := graph.EdgeID(e.ID); d < bestDist || d == bestDist && id < best {
			best, bestDist = id, d
		}
	}
	if best < 0 {
		return Location{}, fmt.Errorf("roadskyline: coordinate (%g, %g) is not at a finite distance from any edge", p.X, p.Y)
	}
	_, t := n.segmentDist(best, gp)
	return Location{Edge: int32(best), Offset: t * n.g.Edge(best).Length}, nil
}

// snapFanout is the edge index's node capacity: the fastest of 4, 8, 16
// and 32 in BenchmarkNearestLocation (medians of six on a 2-CPU x86-64
// box: 9.1, 9.9, 12.2 and 18 µs per snap on CA). Small nodes win because a
// snap reads every entry of each node it opens.
const snapFanout = 4

// edgeIndex is NearestLocation's R-tree over edge bounding boxes.
type edgeIndex struct {
	once sync.Once
	tree *rtree.Tree
	// slack is the absolute part of floor: a segment's computed distance
	// can sit below its box's MinDist by the rounding of the closest
	// point, which scales with the coordinates, not with the distance.
	slack float64
}

// floor returns a value no greater than the distance of any edge inside a
// box whose MinDist is d (the same relative margin as sp.BoundFloor).
func (ix *edgeIndex) floor(d float64) float64 {
	return float64(d*(1-1e-12)) - ix.slack
}

// edgeIndex returns the network's edge index, building it on first use.
// An edge with a non-finite endpoint is left out: its distance to any
// finite point is NaN or +Inf, so it could never be nearest.
func (n *Network) edgeIndex() *edgeIndex {
	ix := &n.edges
	ix.once.Do(func() {
		entries := make([]rtree.Entry, 0, n.g.NumEdges())
		scale := 0.0
		for i := 0; i < n.g.NumEdges(); i++ {
			e := n.g.Edge(graph.EdgeID(i))
			r := geom.RectFromPoints(n.g.NodePoint(e.U), n.g.NodePoint(e.V))
			m := max(-r.MinX, r.MaxX, -r.MinY, r.MaxY)
			if math.IsNaN(m) || math.IsInf(m, 0) {
				continue
			}
			scale = max(scale, m)
			entries = append(entries, rtree.Entry{Rect: r, ID: int32(i)})
		}
		ix.tree = rtree.BulkLoad(entries, snapFanout)
		ix.slack = 1e-12 * scale
	})
	return ix
}

// segmentDist is geom.SegmentPointDist from edge e to p.
func (n *Network) segmentDist(e graph.EdgeID, p geom.Point) (dist, t float64) {
	ed := n.g.Edge(e)
	return geom.SegmentPointDist(n.g.NodePoint(ed.U), n.g.NodePoint(ed.V), p)
}

// NormalizeToUnitSquare returns a copy of the network scaled uniformly so
// its bounding box fits the unit square anchored at the origin (the
// paper's 1 km x 1 km normalization). Useful after loading real-world
// data with large coordinates.
func (n *Network) NormalizeToUnitSquare() *Network {
	return &Network{g: n.g.NormalizeToUnitSquare()}
}

// Write serializes the network in the roadnet text format.
func (n *Network) Write(w io.Writer) error { return n.g.Write(w) }

// ReadNetwork parses a network in the roadnet text format (see cmd/netgen).
func ReadNetwork(r io.Reader) (*Network, error) {
	g, err := graph.Read(r)
	if err != nil {
		return nil, err
	}
	return &Network{g: g}, nil
}

// ReadCnodeCedge parses a network in the classic cnode/cedge distribution
// format used by the spatial-database road datasets: node lines are
// "<id> <x> <y>", edge lines "<id> <u> <v> <length>". See cmd/roadconv.
func ReadCnodeCedge(nodes, edges io.Reader) (*Network, error) {
	g, err := graph.ReadCnodeCedge(nodes, edges)
	if err != nil {
		return nil, err
	}
	return &Network{g: g}, nil
}

// NetworkSpec describes a synthetic network for Generate: a jittered grid
// in the unit square with rectangular obstacles carved out to control the
// detour ratio delta = avg(dN/dE).
type NetworkSpec = gen.Spec

// The paper's three evaluation networks (Section 6.1): identical node and
// edge counts, with obstacle intensity tuned so delta decreases with
// density as the paper observed.
var (
	CA = gen.CA
	AU = gen.AU
	NA = gen.NA
)

// Generate builds a synthetic network from a spec.
func Generate(spec NetworkSpec) (*Network, error) {
	g, err := gen.Generate(spec)
	if err != nil {
		return nil, err
	}
	return &Network{g: g}, nil
}

// GenerateObjects places round(omega * NumEdges) objects uniformly on the
// network's edges with numAttrs uniform attributes each, seeded. As with
// GenerateQueryPoints' count, a negative, NaN or infinite omega yields an
// empty slice.
func (n *Network) GenerateObjects(omega float64, numAttrs int, seed int64) []Object {
	objs := gen.Objects(n.g, omega, numAttrs, seed)
	out := make([]Object, len(objs))
	for i, o := range objs {
		out[i] = Object{ID: int32(o.ID), Loc: Location{Edge: int32(o.Loc.Edge), Offset: o.Loc.Offset}, Attrs: o.Attrs}
	}
	return out
}

// GenerateQueryPoints picks count query locations inside a random
// sub-region covering regionFrac of the network area (the paper uses 0.1).
// A count of zero or less yields an empty slice.
func (n *Network) GenerateQueryPoints(count int, regionFrac float64, seed int64) []Location {
	locs := gen.QueryPoints(n.g, count, regionFrac, seed)
	out := make([]Location, len(locs))
	for i, l := range locs {
		out[i] = Location{Edge: int32(l.Edge), Offset: l.Offset}
	}
	return out
}

// EstimateDelta samples node pairs and returns the network's average ratio
// of network to Euclidean distance.
func (n *Network) EstimateDelta(samples int, seed int64) float64 {
	return gen.EstimateDelta(n.g, samples, seed)
}
