package sp

import (
	"context"
	"math/bits"
	"slices"

	"roadskyline/internal/distcache"
	"roadskyline/internal/geom"
	"roadskyline/internal/graph"
)

// This file connects the resumable searchers to the cross-query distance
// cache: Snapshot captures a wavefront's state at query completion, and the
// NewDijkstraFrom/NewAStarFrom constructors rebuild a searcher from a
// cached snapshot instead of seeding a fresh wavefront.
//
// Resuming is sound because a wavefront between expansion steps is fully
// described by (settled, frontier): settled distances are exact, and every
// frontier entry is the best tentative distance through a settled neighbor.
// That invariant does not depend on the heuristic that ordered the
// expansion, so a snapshot taken under one admissible consistent heuristic
// restores correctly under any other — the heuristic only re-keys the
// frontier per session. The distance cache still keys snapshots by
// heuristic flavor so ablation counters (landmark vs Euclidean wins,
// expansion totals) stay comparable within a configuration.
//
// The cache's State is map-shaped while the searchers run on dense
// epoch-stamped arrays; these conversions are the boundary. Snapshot
// enumerates the scratch's touched list (every stamped node) rather than
// scanning the id space, so its cost tracks the wavefront size, not the
// network size.

// Snapshot captures the wavefront's resumable state. The returned maps are
// fresh copies decoupled from the searcher's scratch: the snapshot stays
// valid after the searcher keeps expanding (or its scratch is recycled), as
// the cache requires of its immutable entries.
func (d *Dijkstra) Snapshot() *distcache.State {
	sc := d.sc
	st := &distcache.State{
		Src:      d.src,
		Settled:  make(map[graph.NodeID]float64, len(sc.touched)),
		Frontier: make(map[graph.NodeID]distcache.Frontier, sc.frontier.Len()),
		ObjBest:  make(map[graph.ObjectID]float64, len(sc.objList)),
	}
	for _, id := range sc.touched {
		if sc.state[id] == stateSettled {
			st.Settled[id] = sc.g[id]
		}
	}
	sc.frontier.Each(func(id int32, key float64) {
		st.Frontier[graph.NodeID(id)] = distcache.Frontier{G: key}
	})
	for _, o := range sc.objList {
		st.ObjBest[o] = sc.objDist[o]
	}
	return st
}

// NewDijkstraFrom rebuilds a wavefront from a cached snapshot, filling a
// fresh epoch of the scratch so the shared cache entry stays immutable. The
// restored wavefront reports every reachable object again from the start
// (the snapshot carries tentative object distances, not the reported set),
// so a new query sees exactly the stream a fresh searcher would produce —
// without re-settling the snapshot's nodes.
func NewDijkstraFrom(ctx context.Context, net Net, st *distcache.State) *Dijkstra {
	return NewDijkstraFromWith(ctx, net, st, nil)
}

// NewDijkstraFromWith is NewDijkstraFrom reusing a pooled scratch. A nil
// scratch allocates a fresh one.
func NewDijkstraFromWith(ctx context.Context, net Net, st *distcache.State, sc *Scratch) *Dijkstra {
	if ctx == nil {
		ctx = context.Background()
	}
	if sc == nil {
		sc = NewScratch()
	}
	sc.begin(net.NumNodes(), net.NumObjects())
	d := &Dijkstra{ctx: ctx, net: net, src: st.Src, sc: sc}
	for id, dist := range st.Settled {
		sc.touch(id, stateSettled)
		sc.g[id] = dist
	}
	for id, fe := range st.Frontier {
		d.pushFrontier(id, fe.G)
	}
	// The object heap has no id tie-break, so push in id order to keep the
	// reporting order of equal-distance objects identical from run to run.
	ids := make([]graph.ObjectID, 0, len(st.ObjBest))
	for id := range st.ObjBest {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		d.improveObject(id, st.ObjBest[id])
	}
	return d
}

// Snapshot captures the searcher's resumable state: the settled set and the
// frontier with its coordinates. The returned maps are fresh copies
// decoupled from the searcher's scratch.
func (a *AStar) Snapshot() *distcache.State {
	sc := a.sc
	st := &distcache.State{
		Src:      a.src,
		Settled:  make(map[graph.NodeID]float64, len(sc.touched)),
		Frontier: make(map[graph.NodeID]distcache.Frontier),
	}
	for _, id := range sc.touched {
		switch sc.state[id] {
		case stateSettled:
			st.Settled[id] = sc.g[id]
		case stateFrontier:
			st.Frontier[id] = distcache.Frontier{G: sc.g[id], Pt: sc.pt[id]}
		}
	}
	return st
}

// NewAStarFrom rebuilds a searcher from a cached snapshot, filling a fresh
// epoch of the scratch so the shared cache entry stays immutable. srcPt
// must be the planar position of st.Src (callers have it from the query
// point, as with NewAStar). DisableHeuristic/UseHeuristicSource apply as
// usual before the first session.
func NewAStarFrom(ctx context.Context, net Net, st *distcache.State, srcPt geom.Point) *AStar {
	return NewAStarFromWith(ctx, net, st, srcPt, nil)
}

// NewAStarFromWith is NewAStarFrom reusing a pooled scratch. A nil scratch
// allocates a fresh one.
func NewAStarFromWith(ctx context.Context, net Net, st *distcache.State, srcPt geom.Point, sc *Scratch) *AStar {
	if ctx == nil {
		ctx = context.Background()
	}
	if sc == nil {
		sc = NewScratch()
	}
	sc.begin(net.NumNodes(), net.NumObjects())
	a := &AStar{ctx: ctx, net: net, src: st.Src, srcPt: srcPt, sc: sc}
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
