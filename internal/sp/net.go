// Package sp implements the network expansion engine of the paper: AStar, a
// resumable A* searcher rooted at one source location, in two modes chosen
// by its constructor:
//
//   - sessions (NewAStarWith): per-target sessions expose the path distance
//     lower bound (plb), the monotone bound that LBC uses to abandon network
//     distance computations early (paper Sections 4.2-4.3);
//   - the object stream (NewDijkstraWith): NextObject reports data objects
//     in ascending network distance from the source (incremental network
//     nearest neighbors; the engine behind CE, paper Section 4.1). It is A*
//     with the heuristic at zero, a resumable Dijkstra wavefront.
//
// Both modes keep their wavefront (settled set plus frontier) across
// requests, matching the experimental setup of paper Section 6.1: "the
// frontier nodes on the wavefront are maintained such that the expansion
// can continue from a previous state".
package sp

import (
	"math"

	"roadskyline/internal/diskgraph"
	"roadskyline/internal/geom"
	"roadskyline/internal/graph"
	"roadskyline/internal/middlelayer"
)

// Net is the engine's view of the road network and its object mapping.
// Implementations route Neighbors and ObjectsOn through disk-backed,
// I/O-counted structures; Edge and NodePoint may be served from small
// in-memory tables.
type Net interface {
	// Neighbors appends node id's adjacency entries to buf.
	Neighbors(id graph.NodeID, buf []diskgraph.Neighbor) ([]diskgraph.Neighbor, error)
	// NodePoint returns the coordinates of a node.
	NodePoint(id graph.NodeID) (geom.Point, error)
	// ObjectsOn appends the data objects lying on edge e to buf.
	ObjectsOn(e graph.EdgeID, buf []middlelayer.ObjRef) ([]middlelayer.ObjRef, error)
	// Edge returns edge e's endpoints and length.
	Edge(e graph.EdgeID) graph.Edge
	// NumNodes returns the size of the dense node-id space. The searchers
	// size their epoch-stamped scratch arrays by it.
	NumNodes() int
	// NumObjects returns the size of the dense object-id space.
	NumObjects() int
}

// offsetFrom returns the distance from node u along edge e to a point at
// offset off from e.U. On a self-loop both edge ends meet at u, so the
// point is reachable from either side and the shorter one counts.
func offsetFrom(e graph.Edge, u graph.NodeID, off float64) float64 {
	if e.U == e.V {
		return math.Min(off, e.Length-off)
	}
	if u == e.U {
		return off
	}
	return e.Length - off
}
