// Package bruteforce computes multi-source network skylines by exhaustive
// Dijkstra over the in-memory graph. It is deliberately independent of the
// engine's disk-backed expansion code so the two can cross-validate; tests
// use it as the ground-truth oracle. It is exact but touches the whole
// network, so it is not part of the query engine proper.
package bruteforce

import (
	"math"

	"roadskyline/internal/graph"
	"roadskyline/internal/pqueue"
	"roadskyline/internal/skyline"
)

// NodeDistances returns the network distance from src to every node
// (+Inf where unreachable).
func NodeDistances(g *graph.Graph, src graph.Location) []float64 {
	dist := make([]float64, g.NumNodes())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	if g.NumNodes() == 0 {
		return dist
	}
	h := pqueue.New[graph.NodeID](64)
	e := g.Edge(src.Edge)
	h.Push(e.U, src.Offset)
	h.Push(e.V, e.Length-src.Offset)
	for h.Len() > 0 {
		u, d := h.Pop()
		if d >= dist[u] {
			continue
		}
		dist[u] = d
		for he := range g.Adj(u).All() {
			if nd := d + he.Length; nd < dist[he.To] {
				h.Push(he.To, nd)
			}
		}
	}
	return dist
}

// ObjectDistances returns the network distance from src to every object in
// objs (+Inf where unreachable). Objects on the source edge may be reached
// directly along the edge as well as via the endpoints.
func ObjectDistances(g *graph.Graph, objs []graph.Object, src graph.Location) []float64 {
	nodeDist := NodeDistances(g, src)
	out := make([]float64, len(objs))
	for i, o := range objs {
		e := g.Edge(o.Loc.Edge)
		d := math.Min(nodeDist[e.U]+o.Loc.Offset, nodeDist[e.V]+(e.Length-o.Loc.Offset))
		if o.Loc.Edge == src.Edge {
			d = math.Min(d, math.Abs(o.Loc.Offset-src.Offset))
		}
		out[i] = d
	}
	return out
}

// DistanceMatrix returns the |objs| x |qs| matrix of network distances.
func DistanceMatrix(g *graph.Graph, objs []graph.Object, qs []graph.Location) [][]float64 {
	m := make([][]float64, len(objs))
	for i := range m {
		m[i] = make([]float64, len(qs))
	}
	for j, q := range qs {
		col := ObjectDistances(g, objs, q)
		for i := range m {
			m[i][j] = col[i]
		}
	}
	return m
}

// NetworkSkyline returns the indices of the multi-source network skyline
// objects (ascending) together with the full distance matrix. When
// withAttrs is true, each object's static attributes extend its vector.
func NetworkSkyline(g *graph.Graph, objs []graph.Object, qs []graph.Location, withAttrs bool) ([]int, [][]float64) {
	m := DistanceMatrix(g, objs, qs)
	vecs := m
	if withAttrs {
		vecs = make([][]float64, len(objs))
		for i := range vecs {
			vecs[i] = append(append([]float64(nil), m[i]...), objs[i].Attrs...)
		}
	}
	return skyline.Skyline(vecs), m
}
