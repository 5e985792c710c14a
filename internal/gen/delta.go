package gen

import (
	"math"
	"math/rand"

	"roadskyline/internal/graph"
	"roadskyline/internal/pqueue"
)

// EstimateDelta samples node pairs and returns the average ratio of network
// distance to Euclidean distance (the paper's delta). Unreachable or
// coincident pairs are skipped. delta drives the EDC/LBC candidate-space
// behaviour analyzed in paper Section 5.
func EstimateDelta(g *graph.Graph, samples int, seed int64) float64 {
	if g.NumNodes() < 2 {
		return 1
	}
	rng := rand.New(rand.NewSource(seed))
	sum, count := 0.0, 0
	dist := make([]float64, g.NumNodes())
	h := pqueue.NewDense()
	h.Grow(g.NumNodes())
	for s := 0; s < samples; s++ {
		src := graph.NodeID(rng.Intn(g.NumNodes()))
		dst := graph.NodeID(rng.Intn(g.NumNodes()))
		de := g.NodePoint(src).Dist(g.NodePoint(dst))
		if src == dst || de == 0 {
			continue
		}
		dn := nodeDist(g, src, dst, dist, h)
		if math.IsInf(dn, 1) {
			continue
		}
		sum += dn / de
		count++
	}
	if count == 0 {
		return 1
	}
	return sum / float64(count)
}

// nodeDist is a plain node-to-node Dijkstra using dist and h (grown to the
// graph's node count) as scratch space.
func nodeDist(g *graph.Graph, src, dst graph.NodeID, dist []float64, h *pqueue.Dense) float64 {
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	h.Reset()
	h.Push(int32(src), 0)
	for h.Len() > 0 {
		id, d := h.Pop()
		u := graph.NodeID(id)
		if d >= dist[u] {
			continue
		}
		dist[u] = d
		if u == dst {
			return d
		}
		for he := range g.Adj(u).All() {
			if nd := d + he.Length; nd < dist[he.To] {
				h.Push(int32(he.To), nd)
			}
		}
	}
	return math.Inf(1)
}
