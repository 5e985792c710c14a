package core

import (
	"roadskyline/internal/geom"
	"roadskyline/internal/graph"
	"roadskyline/internal/pqueue"
	"roadskyline/internal/rtree"
	"roadskyline/internal/skyline"
	"roadskyline/internal/sp"
)

// nnStream yields a query point's data objects in ascending network
// distance using the IER pattern (paper step 1): a dominance-pruned
// Euclidean NN stream whose heads are confirmed by A* network distances.
// An object is emitted once the smallest confirmed network distance is at
// most the next unconfirmed Euclidean distance (dE lower-bounds dN).
type nnStream struct {
	env           *Env
	q             Query
	qPts          []geom.Point
	src           int
	astar         *sp.AStar
	skyVecs       *[][]float64 // shared, grows as skyline points are found
	euclid        *rtree.BestFirst
	euclidEOF     bool
	hasLookahead  bool
	lookahead     rtree.Entry // the next unconfirmed Euclidean head, valid with hasLookahead
	lookaheadDist float64
	heap          *pqueue.Queue[srcCand]
	confirmed     int // objects whose source network distance was computed
	scratch       []float64
}

// srcCand is an object with its confirmed network distance to the stream's
// source query point.
type srcCand struct {
	id   graph.ObjectID
	dist float64
}

// newNNStream builds a stream from query point src. skyVecs points at the
// caller's growing skyline set: regions it dominates are pruned from the
// Euclidean stream at pop time.
func newNNStream(env *Env, q Query, qPts []geom.Point, src int, astar *sp.AStar, skyVecs *[][]float64) *nnStream {
	n := len(qPts)
	dims := env.vectorDims(n, q.UseAttrs)
	s := &nnStream{
		env:     env,
		q:       q,
		qPts:    qPts,
		src:     src,
		astar:   astar,
		skyVecs: skyVecs,
		heap:    pqueue.New[srcCand](16),
		scratch: make([]float64, dims),
	}
	pruneRect := func(r geom.Rect) bool {
		for i, qp := range qPts {
			s.scratch[i] = r.MinDist(qp)
		}
		for i := n; i < dims; i++ {
			s.scratch[i] = 0
		}
		return skyline.DominatedBy(s.scratch, *skyVecs)
	}
	pruneEntry := func(e rtree.Entry) bool {
		p := e.Point()
		for i, qp := range qPts {
			s.scratch[i] = p.Dist(qp)
		}
		env.fillAttrs(s.scratch, n, graph.ObjectID(e.ID), q.UseAttrs)
		return skyline.DominatedBy(s.scratch, *skyVecs)
	}
	s.euclid = env.ObjTree.NewBestFirst(
		func(r geom.Rect) float64 { return r.MinDist(qPts[src]) },
		func(e rtree.Entry) float64 { return e.Point().Dist(qPts[src]) },
		pruneRect,
		pruneEntry,
	)
	return s
}

// peekDist returns the network distance of the stream's next object without
// consuming it, confirming Euclidean heads as needed. ok is false when the
// stream is exhausted.
func (s *nnStream) peekDist() (float64, bool, error) {
	if err := s.fill(); err != nil {
		return 0, false, err
	}
	if s.heap.Len() == 0 {
		return 0, false, nil
	}
	return s.heap.MinKey(), true, nil
}

// next returns the stream's next network nearest neighbor.
func (s *nnStream) next() (srcCand, bool, error) {
	if err := s.fill(); err != nil {
		return srcCand{}, false, err
	}
	if s.heap.Len() == 0 {
		return srcCand{}, false, nil
	}
	c, _ := s.heap.Pop()
	return c, true, nil
}

// fill confirms Euclidean heads until the top of the confirmation heap is
// guaranteed to be the next network NN (paper step 1.2: once some
// confirmed dN is at most the next unconfirmed dE, it cannot be beaten).
func (s *nnStream) fill() error {
	for {
		if !s.euclidEOF && !s.hasLookahead {
			s.lookahead, s.lookaheadDist, s.hasLookahead = s.euclid.Next()
			s.euclidEOF = !s.hasLookahead
		}
		if s.euclidEOF {
			return nil // heap order is final
		}
		if s.heap.Len() > 0 && s.heap.MinKey() <= s.lookaheadDist {
			return nil
		}
		id := graph.ObjectID(s.lookahead.ID)
		s.hasLookahead = false
		o := s.env.Objects[id]
		d, err := s.astar.DistanceTo(o.Loc, s.env.G.Point(o.Loc))
		if err != nil {
			return err
		}
		s.confirmed++
		// An unreachable head (+Inf) still enters the heap: with a single
		// stream it is the only path into the dominance tests for objects
		// that other query points do reach. Objects unreachable from every
		// query point are rejected in the iterator's check step.
		s.heap.Push(srcCand{id: id, dist: d}, d)
	}
}
