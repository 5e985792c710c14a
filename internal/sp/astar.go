package sp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"roadskyline/internal/geom"
	"roadskyline/internal/graph"
	"roadskyline/internal/pqueue"
)

// ErrStaleSession is returned by Session.Advance after a newer session has
// been opened on the same searcher.
var ErrStaleSession = errors.New("sp: session superseded by a newer session on the same searcher")

// cancelCheckEvery is how many node settlements a searcher performs between
// context cancellation checks. Checking per settlement would put a
// synchronized load on the hottest loop in the engine; every K settlements
// bounds cancellation latency to K page reads while keeping the loop tight.
const cancelCheckEvery = 64

// ObjectHit is a data object reported by the incremental NN search with its
// final network distance from the source.
type ObjectHit struct {
	ID   graph.ObjectID
	Dist float64
}

// AStar is a resumable A* searcher rooted at one source location. Its
// settled set and frontier persist across targets; each target gets a
// Session, which re-keys the shared frontier with the target's heuristic
// (the heuristic changes with the destination, the wavefront does not —
// paper Sections 3 and 4.2).
//
// A searcher built by NewDijkstraWith or NewDijkstraFromWith runs in object
// mode instead: NextObject reports data objects in ascending network
// distance (CE's incremental network expansion, paper Section 4.1). That is
// A* at h = 0 (Dechter & Pearl): the frontier is keyed by g in one heap kept
// across calls, and every settled node's edges are also scanned for objects.
// Each mode has a step of its own over the shared scratch (Session.Advance,
// expandObjects), so that neither pays for the other's keys, list or object
// scan. An object-mode searcher opens no sessions.
//
// All working state lives in an epoch-stamped Scratch of dense arrays:
// settled/frontier membership, g-values and frontier coordinates are
// per-node array slots validated by the scratch epoch, the frontier is
// additionally a compact list (session mode), and the f-keyed heap is the
// scratch's dense heap, Reset (O(1)) by each NewSession. Steady-state
// expansions allocate nothing.
//
// Only the most recently opened session may be advanced: sessions share
// the searcher's wavefront, so interleaving would corrupt the expansion.
// Abandoning a session (LBC drops a candidate once it is dominated) is
// free — the wavefront stays valid.
type AStar struct {
	ctx    context.Context
	net    Net
	src    graph.Location
	srcPt  geom.Point
	sc     *Scratch
	seq    int  // generation counter for session invalidation
	noHeur bool // ablation: zero heuristic degrades A* to resumable Dijkstra
	// objects selects object mode: NextObject over a g-keyed heap that
	// persists across calls and is the frontier's only list. h = 0 reads no
	// coordinates; relaxations keep them for Fork.
	objects bool
	// hs, when set, strengthens every session's heuristic to
	// max(Euclidean, hs bound); see UseHeuristicSource.
	hs HeuristicSource

	nodesExpanded int
	// landmarkWins / euclidWins count the HeuristicSource evaluations
	// actually performed (sessions evaluate lazily, see Session) by whether
	// the source's bound or the Euclidean bound was the larger.
	landmarkWins int
	euclidWins   int
	// progress, when set, fires with the searcher's settlement total at
	// the cancellation-check stride (see OnProgress).
	progress func(nodesExpanded int)
}

// NewAStarWith creates a searcher rooted at src. srcPt must be the planar
// position of src (callers have it from the query point). The context
// bounds every session's expansion: once it is cancelled, Advance fails
// with ctx.Err() within cancelCheckEvery settlements; a nil context means
// context.Background(). A nil scratch allocates a fresh one; otherwise the
// searcher claims sc exclusively until the caller stops using the searcher
// and recycles sc.
func NewAStarWith(ctx context.Context, net Net, src graph.Location, srcPt geom.Point, sc *Scratch) (*AStar, error) {
	a := newSearcher(ctx, net, src, srcPt, sc)
	e := net.Edge(src.Edge)
	uPt, err := net.NodePoint(e.U)
	if err != nil {
		return nil, fmt.Errorf("sp: source edge endpoint: %w", err)
	}
	vPt, err := net.NodePoint(e.V)
	if err != nil {
		return nil, fmt.Errorf("sp: source edge endpoint: %w", err)
	}
	a.seedFrontier(e.U, src.Offset, uPt)
	a.seedFrontier(e.V, e.Length-src.Offset, vPt)
	return a, nil
}

// NewDijkstraWith creates a searcher in object mode rooted at src: NextObject
// reports the data objects in ascending network distance from src. The
// context and scratch are as for NewAStarWith. The seeds carry no
// coordinates: h = 0 never reads them, and reading them would cost two
// NodePoint page requests per searcher (Fork reads those still on the
// frontier).
func NewDijkstraWith(ctx context.Context, net Net, src graph.Location, sc *Scratch) (*AStar, error) {
	a := newSearcher(ctx, net, src, geom.Point{}, sc)
	e := net.Edge(src.Edge)
	a.seedFrontier(e.U, src.Offset, geom.Point{})
	a.seedFrontier(e.V, e.Length-src.Offset, geom.Point{})
	// Objects on the source edge are reachable directly along the edge.
	// Shorter routes that leave the edge and re-enter it through an
	// endpoint (the common case on self-loops) are found when the endpoint
	// settles and the edge is rescanned.
	var err error
	a.sc.obuf, err = net.ObjectsOn(src.Edge, a.sc.obuf[:0])
	if err != nil {
		return nil, fmt.Errorf("sp: seeding source edge: %w", err)
	}
	for _, r := range a.sc.obuf {
		a.sc.improveObject(r.ID, math.Abs(r.Offset-src.Offset))
	}
	a.streamObjects()
	return a, nil
}

// newSearcher claims a scratch (a fresh one when sc is nil) for an empty
// searcher rooted at src.
func newSearcher(ctx context.Context, net Net, src graph.Location, srcPt geom.Point, sc *Scratch) *AStar {
	if ctx == nil {
		ctx = context.Background()
	}
	if sc == nil {
		sc = NewScratch()
	}
	sc.begin(net.NumNodes(), net.NumObjects())
	return &AStar{ctx: ctx, net: net, src: src, srcPt: srcPt, sc: sc}
}

// streamObjects switches the searcher to object mode: the heap, loaded here
// with every frontier node keyed by its g (h = 0), persists across
// NextObject calls and is from now on the frontier's only list.
func (a *AStar) streamObjects() {
	a.objects = true
	sc := a.sc
	for _, id := range sc.front {
		sc.frontier.Fill(int32(id), sc.g[id])
	}
	sc.frontier.Heapify()
	sc.front = sc.front[:0]
}

// seedFrontier places a source seed on the frontier, keeping the smaller g
// on duplicate seeds: on a self-loop source edge (e.U == e.V) both seeds land
// on one node, and an unconditional write would let the second side
// overwrite the shorter first one.
func (a *AStar) seedFrontier(id graph.NodeID, g float64, pt geom.Point) {
	sc := a.sc
	st := sc.nodeState(id)
	if st == stateFrontier && sc.g[id] <= g {
		return
	}
	sc.enterFrontier(id, st)
	sc.g[id] = g
	sc.pt[id] = pt
}

// Scratch returns the searcher's scratch, so callers that own a pool can
// recycle it once the searcher is no longer used.
func (a *AStar) Scratch() *Scratch { return a.sc }

// DisableHeuristic zeroes the heuristic (Euclidean and any heuristic
// source), degrading the searcher to a resumable Dijkstra. It exists for
// the paper's A*-vs-Dijkstra ablation and must be called before any
// session is opened.
func (a *AStar) DisableHeuristic() { a.noHeur = true }

// UseHeuristicSource strengthens the searcher's sessions to key the
// frontier by max(Euclidean, hs bound). The source must produce admissible
// consistent bounds (see HeuristicSource); it must be installed before any
// session is opened. A nil source leaves the pure Euclidean heuristic.
func (a *AStar) UseHeuristicSource(hs HeuristicSource) { a.hs = hs }

// NodesExpanded returns the number of nodes settled so far across all
// sessions.
func (a *AStar) NodesExpanded() int { return a.nodesExpanded }

// OnProgress installs a callback fired with the searcher's running
// settlement count every cancelCheckEvery settlements — the expansion
// progress tick of the observability layer. It shares the cancellation
// check's stride so the hot loop gains no extra branch; a nil callback
// (the default) costs nothing.
func (a *AStar) OnProgress(fn func(nodesExpanded int)) { a.progress = fn }

// BoundWins returns how many evaluations of the installed heuristic source
// were won by its bound versus the Euclidean bound. Sessions evaluate the
// source only for nodes that reach the top of the frontier or are relaxed,
// so the sum is the number of evaluations performed, not frontier nodes
// times sessions. Both are zero when no source is installed.
func (a *AStar) BoundWins() (landmark, euclid int) { return a.landmarkWins, a.euclidWins }

// settledDist returns the exact distance to id when it is settled.
func (a *AStar) settledDist(id graph.NodeID) (float64, bool) {
	if a.sc.nodeState(id) != stateSettled {
		return 0, false
	}
	return a.sc.g[id], true
}

// Session is an A* run from the searcher's source toward one destination.
// Advance performs one wavefront expansion step and reports the path
// distance lower bound: a monotonically non-decreasing value that never
// exceeds the true network distance and equals it on completion.
//
// The session's key for frontier node v is g(v) + max(Euclidean, source
// bound). Keys are computed lazily: the frontier is loaded with Euclid-only
// keys, and the heuristic source is evaluated only for the node at the top
// of the heap, whose key is then raised in place, until the top is exact
// (exactTop). A Euclid-only key never exceeds the full key, so once the top
// (k, t) is exact every other node v holds a key k' with (k', v) > (k, t)
// in the heap's (key, id) order and a full key >= k' — (k, t) is the exact
// minimum of the fully keyed frontier, ties included. Every PLB and every
// pop is therefore what keying the whole frontier up front would produce.
// Without a heuristic source (or under DisableHeuristic) the Euclid-only
// key is the full key and there is nothing to refine.
type Session struct {
	a       *AStar
	seq     int
	dest    graph.Location
	destPt  geom.Point
	destE   graph.Edge
	th      TargetHeuristic // per-target bound from the searcher's source, nil without one
	heap    *pqueue.Dense   // the scratch heap; valid while this session is newest
	ordered bool            // heap has been Heapified (first Advance)
	tent    float64         // best known complete path to dest
	plb     float64
	done    bool
}

// Target is one destination prepared for sessions from several searchers:
// LBC and EDC measure each candidate object from every query point, and
// the per-target heuristic (two landmark-table rows and the along-edge
// offsets) is the same for all of them. The heuristic is built at most
// once, by the first Bound or OpenSession that needs it, so a Target may
// only be shared by searchers with the same heuristic source. The zero
// heuristic of a fresh Target{Loc, Pt} is valid.
type Target struct {
	Loc graph.Location
	Pt  geom.Point
	th  TargetHeuristic
}

// heuristic returns t's per-target heuristic under the searcher's source,
// building it on first use; nil without a source or under DisableHeuristic.
func (a *AStar) heuristic(t *Target) TargetHeuristic {
	if a.hs == nil || a.noHeur {
		return nil
	}
	if t.th == nil {
		t.th = a.hs.ForTarget(t.Loc, t.Pt)
	}
	return t.th
}

// Resolved reports whether both endpoints of t's edge are settled: a session
// toward t then completes at opening with the exact distance, without
// reading the frontier.
func (a *AStar) Resolved(t *Target) bool {
	e := a.net.Edge(t.Loc.Edge)
	_, okU := a.settledDist(e.U)
	_, okV := a.settledDist(e.V)
	return okU && okV
}

// Bound returns a lower bound on the network distance to t that reads
// neither the frontier nor the settled set, so it costs the same however
// far the wavefront has spread: max(Euclidean distance, the heuristic
// source's bound from the source location), where the latter is the min
// over the source edge's endpoints of the along-edge offset plus the
// per-target bound at that endpoint — every path leaves the source edge
// through an endpoint, except the one along a shared edge, whose length
// caps the result. It is 0 under DisableHeuristic. By consistency of the
// heuristic every frontier key of a session toward t is at least this
// bound; in floating point it may exceed the session's PLB (and the
// distance itself) by a few ulps, because the landmark table's rows and the
// searcher's g-values are different sums of the same edge lengths.
func (a *AStar) Bound(t *Target) float64 {
	if a.noHeur {
		return 0
	}
	b := a.srcPt.Dist(t.Pt)
	if th := a.heuristic(t); th != nil {
		e := a.net.Edge(a.src.Edge)
		b = math.Max(b, math.Min(a.src.Offset+th.Bound(e.U), e.Length-a.src.Offset+th.Bound(e.V)))
	}
	if t.Loc.Edge == a.src.Edge {
		b = math.Min(b, math.Abs(t.Loc.Offset-a.src.Offset))
	}
	return b
}

// BoundFloor returns a value no greater than the network distance, given a
// lower bound b on it from Bound or a session's PLB. In exact arithmetic that
// is b itself; in floating point a bound may sit above the distance by a
// relative 1e-12 plus an absolute 1e-15 (TestAStarBound), which matters to a
// caller that must not mistake an object tied with another for a worse one.
func BoundFloor(b float64) float64 {
	return math.Max(0, float64(b*(1-1e-12))-1e-15)
}

// NextObject returns the next unreported object in ascending network
// distance; ok is false when no reachable object remains. It is valid only
// in object mode.
func (a *AStar) NextObject() (hit ObjectHit, ok bool, err error) {
	sc := a.sc
	for {
		// Report an object once no shorter path to it can exist: its
		// tentative distance is at most the smallest frontier key.
		for sc.objHeap.Len() > 0 {
			id, key := sc.objHeap.Peek()
			if sc.objState[id] == objDone || key > sc.objDist[id] {
				sc.objHeap.Pop() // stale or duplicate heap entry
				continue
			}
			if sc.frontier.Len() == 0 || key <= sc.frontier.MinKey() {
				sc.objHeap.Pop()
				sc.objState[id] = objDone
				return ObjectHit{ID: id, Dist: key}, true, nil
			}
			break
		}
		if sc.frontier.Len() == 0 {
			return ObjectHit{}, false, nil
		}
		if err := a.expandObjects(); err != nil {
			return ObjectHit{}, false, err
		}
	}
}

// NewSession opens a session toward dest located at destPt. Opening a
// session invalidates any previously opened session on this searcher.
func (a *AStar) NewSession(dest graph.Location, destPt geom.Point) *Session {
	t := Target{Loc: dest, Pt: destPt}
	return a.OpenSession(&t)
}

// OpenSession is NewSession toward a prepared target, whose heuristic it
// shares with every other session and Bound the target is handed to. The
// session keeps no reference to t.
func (a *AStar) OpenSession(t *Target) *Session {
	dest, destPt := t.Loc, t.Pt
	a.seq++
	sc := a.sc
	sc.frontier.Reset()
	sc.newSession()
	s := &Session{
		a:      a,
		seq:    a.seq,
		dest:   dest,
		destPt: destPt,
		destE:  a.net.Edge(dest.Edge),
		heap:   sc.frontier,
		tent:   math.Inf(1),
	}
	// Same-edge shortcut: the path along the shared edge is always valid.
	if dest.Edge == a.src.Edge {
		s.tent = math.Abs(dest.Offset - a.src.Offset)
	}
	// Settled endpoints of the destination edge already give complete
	// paths. Every network path to a point on an edge enters via one of
	// the edge's endpoints, so once both are settled the distance is exact
	// and the session completes without touching the frontier at all.
	// A self-loop destination edge degenerates cleanly: both checks read
	// the same node and the min over its two entry offsets survives.
	dU, okU := a.settledDist(s.destE.U)
	dV, okV := a.settledDist(s.destE.V)
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
	s.th = a.heuristic(t)
	// Re-key the shared frontier with this destination's heuristic: load
	// the heap with Euclid-only keys, unordered (most sessions are dropped
	// or finish on this opening bound, so ordering waits for the first
	// Advance), and take the opening bound min(smallest full key, tent) by
	// scanning. Only an entry whose Euclid-only key undercuts the best
	// bound so far can lower it, so only those are made exact. The heap's
	// (key, id) order makes the expansion independent of the list's order,
	// so identical queries always expand identically.
	best := s.tent
	for _, id := range sc.front {
		g := sc.g[id]
		key := g + s.euclid(sc.pt[id])
		if key < best {
			key = s.exactKey(id, g, key)
			if key < best {
				best = key
			}
		}
		s.heap.Fill(int32(id), key)
	}
	s.plb = best
	if !(best < s.tent) { // no frontier key below tent
		s.finish()
	}
	return s
}

// euclid returns the Euclidean part of the session's heuristic at pt.
func (s *Session) euclid(pt geom.Point) float64 {
	if s.a.noHeur {
		return 0
	}
	return pt.Dist(s.destPt)
}

// exactKey raises the Euclid-only key of node u, whose tentative distance
// is g, to the session's full key g + max(Euclidean, source bound) and marks
// u exact. Floating-point addition is monotone, so comparing the two sums
// selects the same value as adding g to the larger bound.
func (s *Session) exactKey(u graph.NodeID, g, key float64) float64 {
	if s.th == nil {
		return key
	}
	a := s.a
	a.sc.exact[u] = a.sc.session
	if k := g + s.th.Bound(u); k > key {
		a.landmarkWins++
		return k
	}
	a.euclidWins++
	return key
}

// exactTop makes the key at the top of the heap exact, raising Euclid-only
// keys in place until an exact one surfaces. It must run before MinKey or
// Pop is read (see Session for why an exact top is the true minimum).
func (s *Session) exactTop() {
	if s.th == nil {
		return
	}
	sc := s.a.sc
	for s.heap.Len() > 0 {
		id, key := s.heap.Min()
		if sc.exact[id] == sc.session {
			return
		}
		if k := s.exactKey(graph.NodeID(id), sc.g[id], key); k > key {
			s.heap.Update(id, k)
		}
	}
}

// minF returns the smallest full key on the frontier; the top of the heap
// must be exact.
func (s *Session) minF() float64 {
	if s.heap.Len() == 0 {
		return math.Inf(1)
	}
	return s.heap.MinKey()
}

func (s *Session) finish() {
	s.done = true
	s.plb = s.tent
}

// Done reports whether the network distance has been fully determined.
func (s *Session) Done() bool { return s.done }

// PLB returns the current path distance lower bound. It never exceeds the
// true network distance, never decreases, and equals the network distance
// once Done.
func (s *Session) PLB() float64 { return s.plb }

// Advance performs one expansion step (settles one node) and returns the
// updated lower bound. Calling Advance on a completed session is a no-op.
func (s *Session) Advance() (plb float64, done bool, err error) {
	if s.done {
		return s.plb, true, nil
	}
	if s.seq != s.a.seq {
		return 0, false, ErrStaleSession
	}
	a := s.a
	sc := a.sc
	if a.nodesExpanded%cancelCheckEvery == cancelCheckEvery-1 {
		if err := a.ctx.Err(); err != nil {
			return 0, false, err
		}
		if a.progress != nil {
			a.progress(a.nodesExpanded)
		}
	}
	if !s.ordered {
		s.ordered = true
		s.heap.Heapify()
		s.exactTop()
	}
	u32, _ := s.heap.Pop()
	u := graph.NodeID(u32)
	g := sc.g[u]
	sc.settle(u)
	a.nodesExpanded++

	if u == s.destE.U && g+s.dest.Offset < s.tent {
		s.tent = g + s.dest.Offset
	}
	if u == s.destE.V && g+(s.destE.Length-s.dest.Offset) < s.tent {
		s.tent = g + (s.destE.Length - s.dest.Offset)
	}

	sc.nbuf, err = a.net.Neighbors(u, sc.nbuf[:0])
	if err != nil {
		return 0, false, fmt.Errorf("sp: expanding node %d: %w", u, err)
	}
	for _, nb := range sc.nbuf {
		st := sc.nodeState(nb.To)
		if st == stateSettled {
			continue
		}
		newg := g + nb.Length
		if st == stateFrontier && sc.g[nb.To] <= newg {
			continue
		}
		sc.enterFrontier(nb.To, st)
		sc.g[nb.To] = newg
		sc.pt[nb.To] = nb.ToPt
		// Relaxed nodes are the ones about to be popped: key them in full
		// now. Update, not Push: the node may be queued under a Euclid-only
		// key smaller than its new full key.
		s.heap.Update(int32(nb.To), s.exactKey(nb.To, newg, newg+s.euclid(nb.ToPt)))
	}
	s.exactTop()

	if lb := math.Min(s.minF(), s.tent); lb > s.plb {
		s.plb = lb
	}
	if s.minF() >= s.tent {
		s.finish()
	} else if _, okU := a.settledDist(s.destE.U); okU {
		// Both endpoints settled: the distance is exact (see NewSession).
		if _, okV := a.settledDist(s.destE.V); okV {
			s.finish()
		}
	}
	return s.plb, s.done, nil
}

// expandObjects is object mode's step, Session.Advance at h = 0 without a
// destination: it settles the top of the g-keyed heap, whose key is the
// node's g, relaxes its edges (keeping no frontier list, which only sessions
// read) and then scans the same edges for objects.
func (a *AStar) expandObjects() error {
	sc := a.sc
	if a.nodesExpanded%cancelCheckEvery == cancelCheckEvery-1 {
		if err := a.ctx.Err(); err != nil {
			return err
		}
		if a.progress != nil {
			a.progress(a.nodesExpanded)
		}
	}
	u32, g := sc.frontier.Pop()
	u := graph.NodeID(u32)
	sc.state[u] = stateSettled // no frontier list to leave
	a.nodesExpanded++
	var err error
	sc.nbuf, err = a.net.Neighbors(u, sc.nbuf[:0])
	if err != nil {
		return fmt.Errorf("sp: expanding node %d: %w", u, err)
	}
	for _, nb := range sc.nbuf {
		st := sc.nodeState(nb.To)
		if st == stateSettled {
			continue
		}
		newg := g + nb.Length
		if st == stateFrontier && sc.g[nb.To] <= newg {
			continue
		}
		sc.touch(nb.To, stateFrontier)
		sc.g[nb.To] = newg
		sc.pt[nb.To] = nb.ToPt
		sc.frontier.Update(int32(nb.To), newg)
	}
	for _, nb := range sc.nbuf {
		// Scan the edge whatever the neighbour's state: a settlement on this
		// side can still improve objects on the edge.
		sc.obuf, err = a.net.ObjectsOn(nb.Edge, sc.obuf[:0])
		if err != nil {
			return fmt.Errorf("sp: scanning edge %d: %w", nb.Edge, err)
		}
		if len(sc.obuf) > 0 {
			e := a.net.Edge(nb.Edge)
			for _, r := range sc.obuf {
				sc.improveObject(r.ID, g+offsetFrom(e, u, r.Offset))
			}
		}
	}
	return nil
}

// Run advances the session to completion and returns the network distance
// (+Inf when unreachable).
func (s *Session) Run() (float64, error) {
	for !s.done {
		if _, _, err := s.Advance(); err != nil {
			return 0, err
		}
	}
	return s.tent, nil
}
