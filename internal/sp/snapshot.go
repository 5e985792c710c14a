package sp

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"roadskyline/internal/distcache"
	"roadskyline/internal/geom"
	"roadskyline/internal/graph"
)

// This file connects the searcher to the cross-query distance cache:
// Snapshot captures a wavefront's state at query completion, and the
// NewAStarFromWith/NewDijkstraFromWith constructors rebuild a searcher from a
// cached snapshot instead of seeding a fresh wavefront.
//
// Resuming is sound because a wavefront between expansion steps is fully
// described by (settled, frontier): settled distances are exact, and every
// frontier entry is the best tentative distance through a settled neighbor.
// That invariant does not depend on the heuristic that ordered the
// expansion, so a snapshot taken under one admissible consistent heuristic
// restores correctly under any other — the heuristic only re-keys the
// frontier per session. The distance cache still keys snapshots by kind and
// heuristic flavor so ablation counters (landmark vs Euclidean wins,
// expansion totals) stay comparable within a configuration.
//
// The cache's State is map-shaped while the searcher runs on dense
// epoch-stamped arrays; these conversions are the boundary. Snapshot
// enumerates the scratch's touched list (every stamped node) rather than
// scanning the id space, so its cost tracks the wavefront size, not the
// network size.

// Snapshot captures the searcher's resumable state: the settled set and the
// frontier with its coordinates, and in object mode the tentative object
// distances. The returned maps are fresh copies decoupled from the
// searcher's scratch: the snapshot stays valid after the searcher keeps
// expanding (or its scratch is recycled), as the cache requires of its
// immutable entries.
func (a *AStar) Snapshot() *distcache.State {
	sc := a.sc
	nf := len(sc.front)
	if a.objects {
		nf = sc.frontier.Len()
	}
	st := &distcache.State{
		Src:      a.src,
		Settled:  make(map[graph.NodeID]float64, len(sc.touched)-nf),
		Frontier: make(map[graph.NodeID]distcache.Frontier, nf),
	}
	for _, id := range sc.touched {
		switch {
		case sc.state[id] == stateSettled:
			st.Settled[id] = sc.g[id]
		default:
			st.Frontier[id] = distcache.Frontier{G: sc.g[id], Pt: sc.pt[id]}
		}
	}
	if a.objects {
		st.ObjBest = make(map[graph.ObjectID]float64, len(sc.objList))
		for _, o := range sc.objList {
			st.ObjBest[o] = sc.objDist[o]
		}
	}
	return st
}

// NewAStarFromWith rebuilds a searcher from a cached snapshot, filling a
// fresh epoch of the scratch (a fresh scratch when sc is nil) so the shared
// cache entry stays immutable. srcPt must be the planar position of st.Src
// (callers have it from the query point, as with NewAStarWith).
// DisableHeuristic/UseHeuristicSource apply as usual before the first
// session.
func NewAStarFromWith(ctx context.Context, net Net, st *distcache.State, srcPt geom.Point, sc *Scratch) *AStar {
	a := newSearcher(ctx, net, st.Src, srcPt, sc)
	sc = a.sc
	for id, dist := range st.Settled {
		sc.touch(id, stateSettled)
		sc.g[id] = dist
	}
	for id, fe := range st.Frontier {
		sc.touch(id, stateFrontier)
		sc.g[id] = fe.G
		sc.pt[id] = fe.Pt
		sc.mark[id>>6] |= 1 << (id & 63)
	}
	// The frontier list is filled in id order, not map order: which nodes a
	// session's opening scan makes exact depends on the list's order, and
	// the bound-win counters must repeat from run to run. Sweeping a bitset
	// of the ids orders them in O(frontier + nodes/64), well under a sort.
	for w, word := range sc.mark {
		if word == 0 {
			continue
		}
		sc.mark[w] = 0
		for ; word != 0; word &= word - 1 {
			sc.appendFront(graph.NodeID(w<<6 | bits.TrailingZeros64(word)))
		}
	}
	return a
}

// NewDijkstraFromWith rebuilds an object-mode searcher from a snapshot an
// object-mode searcher took. The restored searcher reports every reachable
// object again from the start (the snapshot carries tentative object
// distances, not the reported set), so a new query sees exactly the stream a
// fresh searcher would produce — without re-settling the snapshot's nodes.
func NewDijkstraFromWith(ctx context.Context, net Net, st *distcache.State, sc *Scratch) *AStar {
	a := NewAStarFromWith(ctx, net, st, geom.Point{}, sc)
	// The object heap has no id tie-break, so push in id order to keep the
	// reporting order of equal-distance objects identical from run to run.
	ids := make([]graph.ObjectID, 0, len(st.ObjBest))
	for id := range st.ObjBest {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		a.sc.improveObject(id, st.ObjBest[id])
	}
	a.streamObjects()
	return a
}

// Fork returns a session-mode searcher that resumes a's wavefront, whatever
// a's mode: the same settled set at the same distances and the same
// frontier, so a session settles nothing a has settled. srcPt must be the
// planar position of a's source. Over a's own scratch the fork takes the
// wavefront over in place and a must not be used again; over another (a
// fresh one when sc is nil) it copies the wavefront and a is left as it
// was. An object-mode seed carries no coordinates, so a source-edge endpoint
// still on the frontier is read from the network.
func (a *AStar) Fork(srcPt geom.Point, sc *Scratch) (*AStar, error) {
	f := &AStar{ctx: a.ctx, net: a.net, src: a.src, srcPt: srcPt, sc: sc}
	if sc != a.sc {
		f = newSearcher(a.ctx, a.net, a.src, srcPt, sc)
		for _, id := range a.sc.touched {
			f.sc.touch(id, a.sc.state[id])
			f.sc.g[id], f.sc.pt[id] = a.sc.g[id], a.sc.pt[id]
		}
	}
	to := f.sc
	to.front = to.front[:0]
	for _, id := range to.touched {
		if to.state[id] == stateFrontier {
			to.appendFront(id)
		}
	}
	e := a.net.Edge(a.src.Edge)
	for _, id := range []graph.NodeID{e.U, e.V} {
		if a.objects && to.nodeState(id) == stateFrontier {
			pt, err := a.net.NodePoint(id)
			if err != nil {
				return nil, fmt.Errorf("sp: source edge endpoint: %w", err)
			}
			to.pt[id] = pt
		}
	}
	return f, nil
}
