package sp

// This file preserves the pre-CSR map-based Dijkstra and A* implementations
// verbatim (modulo renames) as a differential-testing oracle. The dense
// epoch-stamped searchers in dijkstra.go/astar.go must report identical
// objects, distances, work counters and expansion order; equivalence_test.go
// fuzzes the two against each other and against internal/bruteforce.
//
// The oracle is test-only code: it never ships in the query path.

import (
	"context"
	"fmt"
	"math"

	"roadskyline/internal/diskgraph"
	"roadskyline/internal/geom"
	"roadskyline/internal/graph"
	"roadskyline/internal/middlelayer"
	"roadskyline/internal/pqueue"
)

// mapDijkstra is the map-based resumable Dijkstra wavefront.
type mapDijkstra struct {
	ctx      context.Context
	net      Net
	src      graph.Location
	settled  map[graph.NodeID]float64
	frontier *pqueue.Indexed[graph.NodeID]

	objBest map[graph.ObjectID]float64
	objDone map[graph.ObjectID]bool
	objHeap *pqueue.Queue[graph.ObjectID]

	nodesExpanded int
	nbuf          []diskgraph.Neighbor
	obuf          []middlelayer.ObjRef
}

func newMapDijkstra(ctx context.Context, net Net, src graph.Location) (*mapDijkstra, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	d := &mapDijkstra{
		ctx:      ctx,
		net:      net,
		src:      src,
		settled:  make(map[graph.NodeID]float64),
		frontier: pqueue.NewIndexed[graph.NodeID](64),
		objBest:  make(map[graph.ObjectID]float64),
		objDone:  make(map[graph.ObjectID]bool),
		objHeap:  pqueue.New[graph.ObjectID](64),
	}
	e := net.Edge(src.Edge)
	d.frontier.Push(e.U, src.Offset)
	d.frontier.Push(e.V, e.Length-src.Offset)
	var err error
	d.obuf, err = net.ObjectsOn(src.Edge, d.obuf[:0])
	if err != nil {
		return nil, fmt.Errorf("sp: seeding source edge: %w", err)
	}
	for _, r := range d.obuf {
		d.improveObject(r.ID, math.Abs(r.Offset-src.Offset))
	}
	return d, nil
}

func (d *mapDijkstra) NodesExpanded() int { return d.nodesExpanded }

func (d *mapDijkstra) improveObject(id graph.ObjectID, dist float64) {
	if best, ok := d.objBest[id]; ok && best <= dist {
		return
	}
	d.objBest[id] = dist
	d.objHeap.Push(id, dist)
}

func (d *mapDijkstra) frontierMin() float64 {
	if d.frontier.Len() == 0 {
		return math.Inf(1)
	}
	return d.frontier.MinKey()
}

func (d *mapDijkstra) NextObject() (hit ObjectHit, ok bool, err error) {
	for {
		for d.objHeap.Len() > 0 {
			id, key := d.objHeap.Peek()
			if d.objDone[id] || key > d.objBest[id] {
				d.objHeap.Pop()
				continue
			}
			if key <= d.frontierMin() {
				d.objHeap.Pop()
				d.objDone[id] = true
				return ObjectHit{ID: id, Dist: key}, true, nil
			}
			break
		}
		if d.frontier.Len() == 0 {
			return ObjectHit{}, false, nil
		}
		if err := d.expandOne(); err != nil {
			return ObjectHit{}, false, err
		}
	}
}

func (d *mapDijkstra) expandOne() error {
	u, dist := d.frontier.Pop()
	d.settled[u] = dist
	d.nodesExpanded++
	if d.nodesExpanded%cancelCheckEvery == 0 {
		if err := d.ctx.Err(); err != nil {
			return err
		}
	}
	var err error
	d.nbuf, err = d.net.Neighbors(u, d.nbuf[:0])
	if err != nil {
		return fmt.Errorf("sp: expanding node %d: %w", u, err)
	}
	for _, nb := range d.nbuf {
		d.obuf, err = d.net.ObjectsOn(nb.Edge, d.obuf[:0])
		if err != nil {
			return fmt.Errorf("sp: scanning edge %d: %w", nb.Edge, err)
		}
		if len(d.obuf) > 0 {
			e := d.net.Edge(nb.Edge)
			for _, r := range d.obuf {
				d.improveObject(r.ID, dist+offsetFrom(e, u, r.Offset))
			}
		}
		if _, settled := d.settled[nb.To]; settled {
			continue
		}
		d.frontier.Push(nb.To, dist+nb.Length)
	}
	return nil
}

func (d *mapDijkstra) SettledDist(id graph.NodeID) (float64, bool) {
	dist, ok := d.settled[id]
	return dist, ok
}

// mapAStar is the map-based resumable A* searcher.
type mapAStar struct {
	ctx      context.Context
	net      Net
	src      graph.Location
	srcPt    geom.Point
	settled  map[graph.NodeID]float64
	frontier map[graph.NodeID]mapFrontierEntry
	seq      int
	noHeur   bool
	hs       HeuristicSource

	nodesExpanded int
	landmarkWins  int
	euclidWins    int
	nbuf          []diskgraph.Neighbor
}

type mapFrontierEntry struct {
	g  float64
	pt geom.Point
}

func newMapAStar(ctx context.Context, net Net, src graph.Location, srcPt geom.Point) (*mapAStar, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	a := &mapAStar{
		ctx:      ctx,
		net:      net,
		src:      src,
		srcPt:    srcPt,
		settled:  make(map[graph.NodeID]float64),
		frontier: make(map[graph.NodeID]mapFrontierEntry),
	}
	e := net.Edge(src.Edge)
	uPt, err := net.NodePoint(e.U)
	if err != nil {
		return nil, fmt.Errorf("sp: source edge endpoint: %w", err)
	}
	vPt, err := net.NodePoint(e.V)
	if err != nil {
		return nil, fmt.Errorf("sp: source edge endpoint: %w", err)
	}
	seed := func(id graph.NodeID, g float64, pt geom.Point) {
		if cur, ok := a.frontier[id]; ok && cur.g <= g {
			return
		}
		a.frontier[id] = mapFrontierEntry{g: g, pt: pt}
	}
	seed(e.U, src.Offset, uPt)
	seed(e.V, e.Length-src.Offset, vPt)
	return a, nil
}

func (a *mapAStar) DisableHeuristic()                     { a.noHeur = true }
func (a *mapAStar) UseHeuristicSource(hs HeuristicSource) { a.hs = hs }
func (a *mapAStar) NodesExpanded() int                    { return a.nodesExpanded }

// mapSession mirrors Session for the oracle searcher.
type mapSession struct {
	a      *mapAStar
	seq    int
	dest   graph.Location
	destPt geom.Point
	destE  graph.Edge
	th     TargetHeuristic
	heap   *pqueue.Indexed[graph.NodeID]
	tent   float64
	plb    float64
	done   bool
}

func (a *mapAStar) NewSession(dest graph.Location, destPt geom.Point) *mapSession {
	a.seq++
	s := &mapSession{
		a:      a,
		seq:    a.seq,
		dest:   dest,
		destPt: destPt,
		destE:  a.net.Edge(dest.Edge),
		heap:   pqueue.NewIndexed[graph.NodeID](len(a.frontier) + 16),
		tent:   math.Inf(1),
	}
	if a.hs != nil && !a.noHeur {
		s.th = a.hs.ForTarget(dest, destPt)
	}
	if dest.Edge == a.src.Edge {
		s.tent = math.Abs(dest.Offset - a.src.Offset)
	}
	dU, okU := a.settled[s.destE.U]
	dV, okV := a.settled[s.destE.V]
	if okU && dU+dest.Offset < s.tent {
		s.tent = dU + dest.Offset
	}
	if okV && dV+(s.destE.Length-dest.Offset) < s.tent {
		s.tent = dV + (s.destE.Length - dest.Offset)
	}
	if okU && okV {
		s.finish()
		return s
	}
	for id, fe := range a.frontier {
		s.heap.Push(id, fe.g+s.h(id, fe.pt))
	}
	s.plb = math.Min(s.minF(), s.tent)
	if s.minF() >= s.tent {
		s.finish()
	}
	return s
}

func (s *mapSession) h(u graph.NodeID, pt geom.Point) float64 {
	a := s.a
	if a.noHeur {
		return 0
	}
	h := pt.Dist(s.destPt)
	if s.th != nil {
		if lb := s.th.Bound(u); lb > h {
			a.landmarkWins++
			return lb
		}
		a.euclidWins++
	}
	return h
}

func (s *mapSession) minF() float64 {
	if s.heap.Len() == 0 {
		return math.Inf(1)
	}
	return s.heap.MinKey()
}

func (s *mapSession) finish() {
	s.done = true
	s.plb = s.tent
}

func (s *mapSession) Done() bool   { return s.done }
func (s *mapSession) PLB() float64 { return s.plb }

func (s *mapSession) Advance() (plb float64, done bool, err error) {
	if s.done {
		return s.plb, true, nil
	}
	if s.seq != s.a.seq {
		return 0, false, ErrStaleSession
	}
	a := s.a
	if a.nodesExpanded%cancelCheckEvery == cancelCheckEvery-1 {
		if err := a.ctx.Err(); err != nil {
			return 0, false, err
		}
	}
	u, _ := s.heap.Pop()
	fe := a.frontier[u]
	delete(a.frontier, u)
	a.settled[u] = fe.g
	a.nodesExpanded++

	if u == s.destE.U && fe.g+s.dest.Offset < s.tent {
		s.tent = fe.g + s.dest.Offset
	}
	if u == s.destE.V && fe.g+(s.destE.Length-s.dest.Offset) < s.tent {
		s.tent = fe.g + (s.destE.Length - s.dest.Offset)
	}

	a.nbuf, err = a.net.Neighbors(u, a.nbuf[:0])
	if err != nil {
		return 0, false, fmt.Errorf("sp: expanding node %d: %w", u, err)
	}
	for _, nb := range a.nbuf {
		if _, ok := a.settled[nb.To]; ok {
			continue
		}
		newg := fe.g + nb.Length
		if cur, ok := a.frontier[nb.To]; ok && cur.g <= newg {
			continue
		}
		a.frontier[nb.To] = mapFrontierEntry{g: newg, pt: nb.ToPt}
		s.heap.Push(nb.To, newg+s.h(nb.To, nb.ToPt))
	}

	if lb := math.Min(s.minF(), s.tent); lb > s.plb {
		s.plb = lb
	}
	if s.minF() >= s.tent {
		s.finish()
	} else if _, okU := a.settled[s.destE.U]; okU {
		if _, okV := a.settled[s.destE.V]; okV {
			s.finish()
		}
	}
	return s.plb, s.done, nil
}

func (s *mapSession) Run() (float64, error) {
	for !s.done {
		if _, _, err := s.Advance(); err != nil {
			return 0, err
		}
	}
	return s.tent, nil
}

func (a *mapAStar) DistanceTo(dest graph.Location, destPt geom.Point) (float64, error) {
	return a.NewSession(dest, destPt).Run()
}
