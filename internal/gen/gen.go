// Package gen generates synthetic road networks, object datasets and query
// workloads matching the experimental setup of the paper (Section 6.1).
//
// The paper evaluates on three real road networks from the Digital Chart of
// the World (California, Australia, North America), unified into a
// 1 km x 1 km region. Those files are not redistributable here, so the
// generator produces seeded synthetic networks with the same node/edge
// counts and the same qualitative density behaviour: a jittered
// intersection lattice with rectangular obstacles carved out, whose edges
// are subdivided by degree-2 shape points down to the target node count
// (mirroring the polyline shape points that dominate real road data).
// Obstacles force detours, raising delta = avg(dN/dE); sparse networks
// (CA) get large obstacles and a tree-like junction graph, dense ones (NA)
// a well-connected lattice, reproducing the paper's observation that delta
// falls as network density rises.
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"roadskyline/internal/geom"
	"roadskyline/internal/graph"
)

// Spec describes a synthetic network.
type Spec struct {
	Name  string
	Nodes int
	Edges int // must be >= Nodes-1
	// Obstacles are carved from the unit square; edges crossing one are
	// removed (unless needed for connectivity).
	NumObstacles int
	ObstacleSize float64 // side length of each square obstacle
	// Jitter displaces each grid node by up to this fraction of the cell
	// size in each axis.
	Jitter float64
	// MaxStretch makes each edge's travel length its Euclidean length
	// times a uniform factor in [1, 1+MaxStretch].
	MaxStretch float64
	// Diagonals adds diagonal grid neighbors to the candidate edge pool.
	// Dense real road networks offer near-straight routes in most
	// directions; diagonals lower delta toward the paper's dense-network
	// behaviour.
	Diagonals bool
	// IntersectionRatio is the edge/node ratio of the underlying
	// intersection graph, before degree-2 shape nodes are added. Real road
	// data (including the paper's DCW networks) has edge/node ratios near
	// 1.2 only because most nodes are polyline shape points; the actual
	// junction graph is much denser. Values near 1.9 give well-connected
	// lattices (low delta), values near 1.2 give tree-like networks (high
	// delta). Zero defaults to 1.9.
	IntersectionRatio float64
	Seed              int64
}

// The paper's three networks. Node and edge counts match Section 6.1
// exactly; obstacle intensity decreases with density so that delta
// (avg dN/dE) falls from CA to NA as observed in the paper.
var (
	// CA is the California network: 3,044 nodes, 3,607 edges (sparse).
	CA = Spec{Name: "CA", Nodes: 3044, Edges: 3607,
		NumObstacles: 10, ObstacleSize: 0.13, Jitter: 0.3, MaxStretch: 0.2,
		IntersectionRatio: 1.35, Seed: 1}
	// AU is the Australia network: 23,269 nodes, 30,289 edges (medium).
	AU = Spec{Name: "AU", Nodes: 23269, Edges: 30289,
		NumObstacles: 8, ObstacleSize: 0.11, Jitter: 0.3, MaxStretch: 0.15,
		Diagonals: true, IntersectionRatio: 1.6, Seed: 2}
	// NA is the North America network: 86,318 nodes, 103,042 edges (dense).
	NA = Spec{Name: "NA", Nodes: 86318, Edges: 103042,
		NumObstacles: 3, ObstacleSize: 0.05, Jitter: 0.3, MaxStretch: 0.08,
		Diagonals: true, IntersectionRatio: 1.9, Seed: 3}
)

// Paper is the list of paper networks in increasing density order.
var Paper = []Spec{CA, AU, NA}

// Generate builds the network described by spec. The result is connected,
// has exactly spec.Nodes nodes and spec.Edges edges, and lives in the unit
// square (the paper's normalized 1 km x 1 km region).
func Generate(spec Spec) (*graph.Graph, error) {
	if spec.Nodes < 2 {
		return nil, fmt.Errorf("gen: need at least 2 nodes, got %d", spec.Nodes)
	}
	if spec.Edges < spec.Nodes-1 {
		return nil, fmt.Errorf("gen: %d edges cannot connect %d nodes", spec.Edges, spec.Nodes)
	}
	rng := rand.New(rand.NewSource(spec.Seed))

	// Two-level structure: an intersection lattice of m junction nodes
	// carries the connectivity; the remaining spec.Nodes - m nodes are
	// degree-2 shape points subdividing its edges. Real road data (the
	// paper's DCW networks included) owes its low edge/node ratio to such
	// shape points — the junction graph itself is much denser.
	ratio := spec.IntersectionRatio
	if ratio <= 1 {
		ratio = 1.9
	}
	m := int(math.Round(float64(spec.Edges-spec.Nodes) / (ratio - 1)))
	if min := 2 + spec.Nodes/10; m < min {
		m = min
	}
	// A lattice of m nodes supports at most ~1.7m straight (or ~3.2m with
	// diagonals) candidate edges after boundary effects; grow m until the
	// required intersection edges fit.
	capacity := 1.7
	if spec.Diagonals {
		capacity = 3.2
	}
	if need := int(math.Ceil(float64(spec.Edges-spec.Nodes) / (capacity - 1))); m < need {
		m = need
	}
	if m > spec.Nodes {
		m = spec.Nodes
	}
	subdivisions := spec.Nodes - m
	interEdges := spec.Edges - subdivisions // >= m-1 because Edges >= Nodes-1

	side := int(math.Ceil(math.Sqrt(float64(m))))

	// Intersection positions: jittered grid cells, row-major, first m.
	pts := make([]geom.Point, m, spec.Nodes)
	cell := 1.0 / float64(side)
	for i := range pts {
		x, y := i%side, i/side
		pts[i] = geom.Point{
			X: (float64(x)+0.5)*cell + (rng.Float64()*2-1)*spec.Jitter*cell,
			Y: (float64(y)+0.5)*cell + (rng.Float64()*2-1)*spec.Jitter*cell,
		}
	}

	// Obstacles.
	obstacles := make([]geom.Rect, spec.NumObstacles)
	for i := range obstacles {
		s := spec.ObstacleSize * (0.6 + 0.8*rng.Float64())
		ox := rng.Float64() * (1 - s)
		oy := rng.Float64() * (1 - s)
		obstacles[i] = geom.Rect{MinX: ox, MinY: oy, MaxX: ox + s, MaxY: oy + s}
	}
	crosses := func(u, v int) bool {
		for _, ob := range obstacles {
			if geom.SegmentIntersectsRect(pts[u], pts[v], ob) {
				return true
			}
		}
		return false
	}

	// Candidate edges: grid neighbors (right and down).
	type cand struct{ u, v int }
	var clear, blocked []cand
	addCand := func(u, v int) {
		if v >= m {
			return
		}
		if crosses(u, v) {
			blocked = append(blocked, cand{u, v})
		} else {
			clear = append(clear, cand{u, v})
		}
	}
	for i := 0; i < m; i++ {
		x, y := i%side, i/side
		if x+1 < side {
			addCand(i, i+1)
		}
		if y+1 < side {
			addCand(i, i+side)
		}
		if spec.Diagonals && y+1 < side {
			if x+1 < side {
				addCand(i, i+side+1)
			}
			if x > 0 {
				addCand(i, i+side-1)
			}
		}
	}

	// Spanning forest over obstacle-free candidates, then stitch the
	// remaining components together with the cheapest blocked candidates
	// ("mountain passes").
	uf := newUnionFind(m)
	var treeEdges []cand
	shuffled := append([]cand(nil), clear...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	var pool []cand // non-tree obstacle-free candidates
	for _, c := range shuffled {
		if uf.union(c.u, c.v) {
			treeEdges = append(treeEdges, c)
		} else {
			pool = append(pool, c)
		}
	}
	if uf.components > 1 {
		// Sort blocked candidates by length so passes are short.
		sort.Slice(blocked, func(i, j int) bool {
			return pts[blocked[i].u].DistSq(pts[blocked[i].v]) < pts[blocked[j].u].DistSq(pts[blocked[j].v])
		})
		for _, c := range blocked {
			if uf.components == 1 {
				break
			}
			if uf.union(c.u, c.v) {
				treeEdges = append(treeEdges, c)
			}
		}
	}
	if uf.components > 1 {
		return nil, fmt.Errorf("gen: grid candidates cannot connect the network (%d components)", uf.components)
	}

	// Top up to the exact intersection-edge count from the obstacle-free
	// pool.
	extra := interEdges - len(treeEdges)
	if extra < 0 {
		return nil, fmt.Errorf("gen: edge budget %d below spanning tree size %d", interEdges, len(treeEdges))
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if extra > len(pool) {
		// Small networks or heavy carving: top up with blocked candidates
		// ("tunnels") rather than failing; obstacles stay mostly intact.
		used := make(map[cand]bool, len(treeEdges))
		for _, c := range treeEdges {
			used[c] = true
		}
		for _, c := range blocked {
			if len(pool) >= extra {
				break
			}
			if !used[c] {
				pool = append(pool, c)
			}
		}
		if extra > len(pool) {
			return nil, fmt.Errorf("gen: edge budget %d exceeds available candidates %d", interEdges, len(treeEdges)+len(pool))
		}
	}
	chosen := append(treeEdges, pool[:extra]...)

	// Apply travel-length stretch, then subdivide random edges with
	// degree-2 shape points until the exact node count is reached. Splits
	// are collinear, so sub-segment travel lengths stay proportional and
	// never undercut the Euclidean distance.
	type fedge struct {
		u, v   int
		length float64
	}
	edges := make([]fedge, 0, spec.Edges)
	for _, c := range chosen {
		d := pts[c.u].Dist(pts[c.v])
		edges = append(edges, fedge{c.u, c.v, d * (1 + rng.Float64()*spec.MaxStretch)})
	}
	for k := 0; k < subdivisions; k++ {
		i := rng.Intn(len(edges))
		e := edges[i]
		t := 0.25 + 0.5*rng.Float64()
		w := len(pts)
		pts = append(pts, pts[e.u].Lerp(pts[e.v], t))
		edges[i] = fedge{e.u, w, e.length * t}
		edges = append(edges, fedge{w, e.v, e.length * (1 - t)})
	}

	b := graph.NewBuilder(spec.Nodes, len(edges))
	for _, p := range pts {
		b.AddNode(p)
	}
	for _, e := range edges {
		b.AddEdge(graph.NodeID(e.u), graph.NodeID(e.v), e.length)
	}
	return b.Build()
}

// Objects extracts count = round(omega * |E|) data objects placed uniformly
// on edges (an edge drawn uniformly, an offset drawn uniformly along it),
// matching the paper's object density omega = |D| / |E|. When numAttrs > 0
// each object carries that many uniform attributes in [0, 100).
func Objects(g *graph.Graph, omega float64, numAttrs int, seed int64) []graph.Object {
	rng := rand.New(rand.NewSource(seed))
	count := int(math.Round(omega * float64(g.NumEdges())))
	objs := make([]graph.Object, count)
	for i := range objs {
		e := g.Edge(graph.EdgeID(rng.Intn(g.NumEdges())))
		objs[i] = graph.Object{
			ID:  graph.ObjectID(i),
			Loc: graph.Location{Edge: e.ID, Offset: rng.Float64() * e.Length},
		}
		if numAttrs > 0 {
			attrs := make([]float64, numAttrs)
			for a := range attrs {
				attrs[a] = rng.Float64() * 100
			}
			objs[i].Attrs = attrs
		}
	}
	return objs
}

// QueryPoints picks count query locations inside a random sub-region
// covering regionFrac of the network's bounding box area (the paper uses
// 10%, keeping the search region inside the network). The region is grown
// if it contains too few edges. A count of zero or less yields none.
func QueryPoints(g *graph.Graph, count int, regionFrac float64, seed int64) []graph.Location {
	if count <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	bounds := g.Bounds()
	w := bounds.MaxX - bounds.MinX
	h := bounds.MaxY - bounds.MinY
	frac := math.Sqrt(regionFrac)
	for {
		rw, rh := w*frac, h*frac
		ox := bounds.MinX + rng.Float64()*(w-rw)
		oy := bounds.MinY + rng.Float64()*(h-rh)
		region := geom.Rect{MinX: ox, MinY: oy, MaxX: ox + rw, MaxY: oy + rh}
		var inside []graph.EdgeID
		for i := 0; i < g.NumEdges(); i++ {
			e := g.Edge(graph.EdgeID(i))
			mid := g.NodePoint(e.U).Lerp(g.NodePoint(e.V), 0.5)
			if region.Contains(mid) {
				inside = append(inside, e.ID)
			}
		}
		if len(inside) < count && frac < 1 {
			frac = math.Min(1, frac*1.5)
			continue
		}
		if len(inside) == 0 {
			// Degenerate network: fall back to any edges.
			for i := 0; i < g.NumEdges(); i++ {
				inside = append(inside, graph.EdgeID(i))
			}
		}
		locs := make([]graph.Location, count)
		for i := range locs {
			e := g.Edge(inside[rng.Intn(len(inside))])
			locs[i] = graph.Location{Edge: e.ID, Offset: rng.Float64() * e.Length}
		}
		return locs
	}
}

// unionFind is a weighted quick-union structure used to build spanning
// forests.
type unionFind struct {
	parent     []int32
	rank       []int8
	components int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int32, n), rank: make([]int8, n), components: n}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
	}
	return uf
}

func (uf *unionFind) find(x int) int32 {
	r := int32(x)
	for uf.parent[r] != r {
		uf.parent[r] = uf.parent[uf.parent[r]]
		r = uf.parent[r]
	}
	return r
}

// union merges the sets of a and b, reporting whether they were distinct.
func (uf *unionFind) union(a, b int) bool {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return false
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
	uf.components--
	return true
}
