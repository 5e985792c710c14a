package core

import (
	"math"
	"slices"

	"roadskyline/internal/geom"
	"roadskyline/internal/graph"
	"roadskyline/internal/pqueue"
	"roadskyline/internal/rtree"
	"roadskyline/internal/skyline"
	"roadskyline/internal/sp"
)

// nnStream yields a query point's data objects in ascending network
// distance (paper step 1). The paper's IER confirms every head of a
// dominance-pruned Euclidean NN stream with an A* run; here a head leaving
// the R-tree is first parked in a pending heap under the floor of the source
// searcher's frontier-free bound (sp.AStar.Bound — a table lookup, no page),
// and only the pending minimum is ever confirmed, once no unpopped R-tree
// entry can undercut it. Three sets of objects are alive at any time:
//
//   - unpopped, in the R-tree: at network distance >= the look-ahead's
//     Euclidean distance;
//   - pending: at network distance >= its key;
//   - confirmed: network distance known.
//
// The confirmed minimum is emitted once it is at most both lower bounds, so
// objects leave in non-decreasing network distance. Before a pending entry
// is confirmed, the floors of its bounds from every query point are tested
// against the skyline known then: a dominated entry's network vector is
// dominated too (same argument as the R-tree prunes, which see Euclidean
// vectors only), so it is dropped without an A* session ever opened for it.
//
// Without landmarks the bound is the Euclidean distance (0 without a
// heuristic): a head's key never exceeds the next head's distance, the
// pending heap holds one entry at a time and the stream confirms in the
// paper's order.
type nnStream struct {
	env           *Env
	q             Query
	qPts          []geom.Point
	src           int
	astars        []*sp.AStar  // one per query point; astars[src] confirms
	skyVecs       *[][]float64 // shared, grows as skyline points are found
	euclid        *rtree.BestFirst
	euclidEOF     bool
	hasLookahead  bool
	lookahead     rtree.Entry // the next unparked Euclidean head, valid with hasLookahead
	lookaheadDist float64
	pending       *pqueue.Queue[pendingCand]
	heap          *pqueue.Queue[srcCand]
	confirmed     int       // objects whose source network distance was computed
	dropped       int       // pending entries dropped on their bounds, never confirmed
	scratch       []float64 // the vector under a dominance test
	bounds        []float64 // confirm's raw bound vector
	noneExact     []bool    // floorBounds: every distance entry of bounds is a bound
}

// pendingCand is an object popped from the R-tree and not yet confirmed,
// keyed in the pending heap by sp.BoundFloor(bound).
type pendingCand struct {
	id     graph.ObjectID
	target sp.Target
	bound  float64 // the source searcher's Bound toward target
}

// srcCand is a pending entry that was confirmed: an object with its network
// distance to the stream's source query point. It carries what confirming it
// prepared for the iterator's check: the target (its heuristic built) and the
// frontier-free bounds from every query point.
type srcCand struct {
	pendingCand
	dist   float64
	bounds []float64
}

// newNNStream builds a stream from query point src, whose searcher is
// astars[src]. skyVecs points at the caller's growing skyline set: regions
// it dominates are pruned from the Euclidean stream at pop time, pending
// entries when they come up for confirmation.
func newNNStream(env *Env, q Query, qPts []geom.Point, src int, astars []*sp.AStar, skyVecs *[][]float64) *nnStream {
	n := len(qPts)
	dims := env.vectorDims(n, q.UseAttrs)
	s := &nnStream{
		env:       env,
		q:         q,
		qPts:      qPts,
		src:       src,
		astars:    astars,
		skyVecs:   skyVecs,
		pending:   pqueue.New[pendingCand](16),
		heap:      pqueue.New[srcCand](16),
		scratch:   make([]float64, dims),
		bounds:    make([]float64, dims),
		noneExact: make([]bool, n),
	}
	// The prunes test the floors of the Euclidean distances: on an edge
	// exactly as long as the straight line between its ends the Euclidean
	// distance meets the network distance, and computed raw it can come out
	// ulps above it, making a point tied with a skyline point look
	// dominated.
	pruneRect := func(_ int, r geom.Rect) bool {
		for i, qp := range qPts {
			s.scratch[i] = sp.BoundFloor(r.MinDist(qp))
		}
		for i := n; i < dims; i++ {
			s.scratch[i] = 0
		}
		return skyline.DominatedBy(s.scratch, *skyVecs)
	}
	pruneEntry := func(_ int, e rtree.Entry) bool {
		p := e.Point()
		for i, qp := range qPts {
			s.scratch[i] = sp.BoundFloor(p.Dist(qp))
		}
		env.fillAttrs(s.scratch, n, graph.ObjectID(e.ID), q.UseAttrs)
		return skyline.DominatedBy(s.scratch, *skyVecs)
	}
	s.euclid = env.ObjTree.NewBestFirst(
		func(_ int, r geom.Rect) float64 { return r.MinDist(qPts[src]) },
		func(_ int, e rtree.Entry) float64 { return e.Point().Dist(qPts[src]) },
		pruneRect,
		pruneEntry,
	)
	return s
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

// fill works until the top of the confirmed heap is guaranteed to be the
// next network NN, or the stream is exhausted: it parks R-tree heads while
// the next one's Euclidean distance is below the smallest pending key, and
// otherwise confirms (or drops) the pending minimum.
func (s *nnStream) fill() error {
	for {
		if !s.euclidEOF && !s.hasLookahead {
			s.lookahead, s.lookaheadDist, s.hasLookahead = s.euclid.Next()
			s.euclidEOF = !s.hasLookahead
		}
		// No unconfirmed object is nearer than horizon: an unpopped one is
		// at least the look-ahead's Euclidean distance away, a pending one
		// at least its key.
		horizon, parkNext := math.Inf(1), false
		if s.hasLookahead {
			horizon, parkNext = s.lookaheadDist, true
		}
		if s.pending.Len() > 0 && s.pending.MinKey() <= horizon {
			horizon, parkNext = s.pending.MinKey(), false
		}
		if s.heap.Len() > 0 && s.heap.MinKey() <= horizon {
			return nil
		}
		switch {
		case parkNext:
			s.park()
		case s.pending.Len() > 0:
			if err := s.confirm(); err != nil {
				return err
			}
		default:
			return nil // nothing unconfirmed is left: heap order is final
		}
	}
}

// park moves the look-ahead into the pending heap.
func (s *nnStream) park() {
	id := graph.ObjectID(s.lookahead.ID)
	s.hasLookahead = false
	// The entry's point is the object's, bit for bit: the tree was loaded
	// from G.Point(o.Loc).
	p := pendingCand{id: id, target: sp.Target{Loc: s.env.Objects[id].Loc, Pt: s.lookahead.Point()}}
	p.bound = s.astars[s.src].Bound(&p.target)
	s.pending.Push(p, sp.BoundFloor(p.bound))
}

// confirm takes the pending minimum, drops it if the skyline dominates the
// floors of its bounds, and otherwise computes its network distance from the
// source. The bounds are constants of the query and are computed here, once;
// check resumes from them (boundVec.refine).
func (s *nnStream) confirm() error {
	p, _ := s.pending.Pop()
	n := len(s.astars)
	for i, a := range s.astars {
		if i == s.src {
			s.bounds[i] = p.bound
		} else {
			s.bounds[i] = a.Bound(&p.target)
		}
	}
	s.env.fillAttrs(s.bounds, n, p.id, s.q.UseAttrs)
	if skyline.DominatedBy(floorBounds(s.scratch, s.bounds, s.noneExact), *s.skyVecs) {
		s.dropped++
		return nil
	}
	d, err := s.astars[s.src].OpenSession(&p.target).Run()
	if err != nil {
		return err
	}
	s.confirmed++
	// An unreachable object (+Inf) still enters the heap: with a single
	// stream it is the only path into the dominance tests for objects that
	// other query points do reach. Objects unreachable from every query point
	// are rejected in the iterator's check step.
	s.heap.Push(srcCand{pendingCand: p, dist: d, bounds: slices.Clone(s.bounds[:n])}, d)
	return nil
}
