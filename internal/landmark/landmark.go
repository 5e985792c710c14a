// Package landmark implements ALT (A*, Landmarks, Triangle inequality)
// lower bounds for road-network distances: a small set of landmark nodes is
// selected at build time by farthest-point sampling, exact Dijkstra
// distance tables are precomputed from each, and the triangle inequality
// turns the tables into an admissible consistent lower bound
//
//	lb(u, t) = max over landmarks L of |d(L, u) - d(L, t)|
//
// on the network distance between any two nodes. Composed with the paper's
// Euclidean heuristic as max(dE, lb), it tightens the expansion order of
// the A* searchers and — because the searchers' session bounds feed LBC's
// dominance tests and EDC's shifted-vector windows — the per-query-point
// path distance lower bounds that those algorithms prune with.
//
// Unlike the Euclidean bound, the ALT bound reflects actual detours
// (rivers, obstacle fields, sparse regions), so it is strongest exactly
// where the Euclidean bound is weakest. The table is built once per
// network from the in-memory graph (Build) — a network directory keeps it
// beside the page files and reopens it with Load — and is immutable
// afterwards, so engine clones share it without synchronization.
package landmark

import (
	"fmt"
	"math"

	"roadskyline/internal/geom"
	"roadskyline/internal/graph"
	"roadskyline/internal/pqueue"
	"roadskyline/internal/sp"
)

// DefaultK is the default number of landmarks. Eight covers the unit-square
// networks of the paper's evaluation well; more landmarks tighten bounds
// with diminishing returns and linear memory cost (8 bytes per node each).
const DefaultK = 8

// Table holds the landmark nodes and their exact distance tables. It is
// immutable after Build and safe for concurrent use; it implements
// sp.HeuristicSource.
//
// The distances are stored node-major: node v's distances to all k
// landmarks occupy the contiguous row flat[v*k : (v+1)*k]. The hot Bound
// path folds every landmark for one node, so a row is a single cache-line
// scan where a landmark-major layout would touch k cache lines n slots
// apart.
type Table struct {
	g     *graph.Graph
	nodes []graph.NodeID // selected landmark nodes
	flat  []float64      // flat[v*k+l] = network distance from nodes[l] to v
	// finite records that no table entry is +Inf — every landmark reaches
	// every node, as on any connected network — which lets Bound skip the
	// component guards.
	finite bool
}

// Build selects up to k landmarks on g by farthest-point sampling (the
// first landmark is node 0; each next one maximizes the distance to the
// already-selected set, seeding unreached components first) and computes
// their distance tables. It returns nil when k <= 0 or the graph has no
// nodes; fewer than k landmarks are selected when the graph runs out of
// distinct positions to cover.
func Build(g *graph.Graph, k int) *Table {
	n := g.NumNodes()
	if k <= 0 || n == 0 {
		return nil
	}
	if k > n {
		k = n
	}
	t := &Table{g: g}
	// Selection works on landmark-major rows (each Dijkstra produces one);
	// they are transposed into the node-major flat layout once the final
	// landmark count is known.
	var rows [][]float64
	// minDist[v] = distance from v to the closest selected landmark.
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = math.Inf(1)
	}
	h := pqueue.NewDense()
	h.Grow(n)
	next := graph.NodeID(0)
	for len(t.nodes) < k {
		d := nodeDistances(g, next, h)
		t.nodes = append(t.nodes, next)
		rows = append(rows, d)
		// Farthest-point step: pick the node worst covered by the selected
		// set. +Inf (an unreached component) beats every finite distance,
		// so isolated components get their own landmark before refinement
		// continues elsewhere.
		worst := -1.0
		pick := graph.NodeID(-1)
		for v := 0; v < n; v++ {
			if d[v] < minDist[v] {
				minDist[v] = d[v]
			}
			if minDist[v] > worst {
				worst = minDist[v]
				pick = graph.NodeID(v)
			}
		}
		if pick < 0 || worst == 0 {
			break // every node is a landmark already
		}
		next = pick
	}
	kk := len(t.nodes)
	t.flat = make([]float64, n*kk)
	t.finite = true
	for l, d := range rows {
		for v, dv := range d {
			t.flat[v*kk+l] = dv
			if math.IsInf(dv, 1) {
				t.finite = false
			}
		}
	}
	return t
}

// nodeDistances runs a full Dijkstra over the in-memory graph from node
// src and returns the distance to every node (+Inf where unreachable).
// h is the caller's heap, grown to the graph's node count; it is reset
// here.
func nodeDistances(g *graph.Graph, src graph.NodeID, h *pqueue.Dense) []float64 {
	dist := make([]float64, g.NumNodes())
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
		for he := range g.Adj(u).All() {
			if nd := d + he.Length; nd < dist[he.To] {
				h.Push(int32(he.To), nd)
			}
		}
	}
	return dist
}

// Load returns the table over distances computed earlier: nodes are the
// landmark nodes and flat the node-major distances exactly as Flat returned
// them (finite likewise). The table keeps both slices — flat may alias a
// read-only mapping — and computes nothing; it rejects dimensions that do
// not fit g, so a Bound never indexes outside flat.
func Load(g *graph.Graph, nodes []graph.NodeID, flat []float64, finite bool) (*Table, error) {
	n, k := g.NumNodes(), len(nodes)
	if k == 0 || k > n || len(flat) != n*k {
		return nil, fmt.Errorf("landmark: %d landmarks with %d distances do not fit %d nodes", k, len(flat), n)
	}
	for _, v := range nodes {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("landmark: landmark node %d outside %d nodes", v, n)
		}
	}
	return &Table{g: g, nodes: nodes, flat: flat, finite: finite}, nil
}

// Flat returns the node-major distance table: node v's distances to the K
// landmarks are Flat()[v*K : (v+1)*K]. The slice is owned by the table and
// must not be modified.
func (t *Table) Flat() []float64 { return t.flat }

// Finite reports that no distance in the table is +Inf.
func (t *Table) Finite() bool { return t.finite }

// K returns the number of selected landmarks.
func (t *Table) K() int { return len(t.nodes) }

// Nodes returns the landmark nodes. The slice is owned by the table and
// must not be modified.
func (t *Table) Nodes() []graph.NodeID { return t.nodes }

// target is the per-session heuristic toward one location: the min over
// the location's edge endpoints of (node bound + along-edge offset), which
// lower-bounds the distance to the location because every network path
// enters the edge through an endpoint. The node bound between nodes u and v
// is the max over landmarks L of |d(L,u) - d(L,v)|. Min preserves consistency
// (|min(a,b)(u) - min(a,b)(v)| <= max of the per-side differences), so the
// composed bound stays safe for the no-reopen A*. Per-landmark distances to
// the two endpoints are cached here so the hot Bound path is one scan over
// the node's contiguous landmark row.
type target struct {
	flat       []float64 // shared node-major landmark table
	k          int       // landmarks per row
	finite     bool      // Table.finite: no +Inf anywhere in flat
	du, dv     []float64 // du[l] = distance from landmark l to dest edge U, dv to V
	offU, offV float64   // along-edge offsets from each endpoint
	// rows backs du and dv up to DefaultK landmarks, so a session's target
	// is one allocation.
	rows [2 * DefaultK]float64
}

// ForTarget implements sp.HeuristicSource.
func (t *Table) ForTarget(dest graph.Location, destPt geom.Point) sp.TargetHeuristic {
	e := t.g.Edge(dest.Edge)
	k := len(t.nodes)
	tg := &target{
		flat:   t.flat,
		k:      k,
		finite: t.finite,
		offU:   dest.Offset,
		offV:   e.Length - dest.Offset,
	}
	rows := tg.rows[:]
	if 2*k > len(rows) {
		rows = make([]float64, 2*k)
	}
	tg.du, tg.dv = rows[:k:k], rows[k:2*k]
	if e.U == e.V {
		// Self-loop destination edge: one entry node, two entry offsets.
		tg.offU = math.Min(tg.offU, tg.offV)
		tg.offV = tg.offU
	}
	copy(tg.du, t.flat[int(e.U)*k:int(e.U)*k+k])
	copy(tg.dv, t.flat[int(e.V)*k:int(e.V)*k+k])
	return tg
}

// Bound implements sp.TargetHeuristic.
func (tg *target) Bound(n graph.NodeID) float64 {
	row := tg.flat[int(n)*tg.k : int(n)*tg.k+tg.k]
	du, dv := tg.du[:len(row)], tg.dv[:len(row)]
	bu, bv := 0.0, 0.0
	if tg.finite {
		// No +Inf in the table: sideBound's guards never fire and the fold
		// is a plain running max of |dn - dt|.
		for l, dn := range row {
			bu = max(bu, math.Abs(dn-du[l]))
			bv = max(bv, math.Abs(dn-dv[l]))
		}
		return math.Min(bu+tg.offU, bv+tg.offV)
	}
	for l, dn := range row {
		bu = sideBound(bu, dn, du[l])
		bv = sideBound(bv, dn, dv[l])
	}
	return math.Min(bu+tg.offU, bv+tg.offV)
}

// sideBound folds one landmark's triangle bound |dn - dt| into the running
// max for one endpoint, with the component guards: a landmark that reaches
// exactly one of the two nodes proves them in different components (+Inf
// result); a landmark that reaches neither contributes nothing.
func sideBound(best, dn, dt float64) float64 {
	if math.IsInf(dn, 1) || math.IsInf(dt, 1) {
		if math.IsInf(dn, 1) != math.IsInf(dt, 1) {
			return math.Inf(1)
		}
		return best
	}
	if b := math.Abs(dn - dt); b > best {
		return b
	}
	return best
}
