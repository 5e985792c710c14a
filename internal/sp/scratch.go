package sp

import (
	"roadskyline/internal/diskgraph"
	"roadskyline/internal/geom"
	"roadskyline/internal/graph"
	"roadskyline/internal/middlelayer"
	"roadskyline/internal/pqueue"
)

// Node states within the current epoch. A node whose stamp does not match
// the scratch epoch is unseen regardless of what the state array holds.
const (
	stateFrontier = uint8(1)
	stateSettled  = uint8(2)
)

// Object states within the current epoch.
const (
	objLive = uint8(1)
	objDone = uint8(2)
)

// Scratch is the dense per-node and per-object working state behind one
// searcher (Dijkstra or AStar). All arrays are indexed by the dense
// NodeID/ObjectID spaces and validated by an epoch stamp, so clearing
// between queries is a counter increment rather than an O(n) sweep, and a
// warm scratch performs steady-state expansions with zero heap allocations.
//
// A scratch serves exactly one live searcher at a time. Reusing it for a new
// searcher (or handing it back to a pool) invalidates the previous
// searcher's wavefront; concurrent searchers need one scratch each.
type Scratch struct {
	epoch uint32

	// Per-node state, valid where stamp[v] == epoch. touched records every
	// stamped node in first-touch order so snapshots can enumerate the
	// wavefront without scanning the whole id space.
	stamp   []uint32
	state   []uint8
	g       []float64    // settled: exact distance; frontier (A*): tentative g
	pt      []geom.Point // frontier coordinates (A* only)
	touched []graph.NodeID

	// front is the A* frontier as a compact list: exactly the touched nodes
	// in stateFrontier, appended by enterFrontier and swap-removed by settle
	// (fpos[v] is v's slot while v is on it). A session keys the wavefront
	// by walking this list, so it never visits a settled node.
	front []graph.NodeID
	fpos  []int32
	// mark is a node bitset, all zero between uses, that NewAStarFromWith
	// orders a restored frontier with.
	mark []uint64

	// exact[v] == session marks v's key in the A* session heap as carrying
	// the full heuristic; every other queued key is Euclid-only (see
	// Session). session counts sessions over the scratch's whole life, so
	// marks never alias across sessions or searchers.
	exact   []uint32
	session uint32

	// frontier doubles as the Dijkstra wavefront heap (persistent across
	// calls) and the A* per-session f-keyed heap (Reset by each NewSession).
	frontier *pqueue.Dense

	// Per-object state (Dijkstra only), valid where objStamp[o] == epoch.
	objStamp []uint32
	objDist  []float64
	objState []uint8
	objList  []graph.ObjectID
	objHeap  *pqueue.Queue[graph.ObjectID]

	// I/O append buffers reused across expansions.
	nbuf []diskgraph.Neighbor
	obuf []middlelayer.ObjRef
}

// NewScratch returns an empty scratch; arrays grow to the network size on
// first use.
func NewScratch() *Scratch {
	return &Scratch{
		frontier: pqueue.NewDense(),
		objHeap:  pqueue.New[graph.ObjectID](0),
	}
}

// begin claims the scratch for a new searcher over a network of numNodes
// nodes and numObjects objects: it invalidates all prior state in O(1) and
// grows the arrays as needed.
func (sc *Scratch) begin(numNodes, numObjects int) {
	sc.epoch++
	if sc.epoch == 0 {
		// uint32 wrap: ancient stamps could alias the new epoch. Clear once
		// every ~4 billion queries.
		clear(sc.stamp)
		clear(sc.objStamp)
		sc.epoch = 1
	}
	if numNodes > len(sc.stamp) {
		// Fresh arrays need no copy: the epoch bump already invalidated
		// every entry, and zeroed stamps never match an epoch >= 1.
		sc.stamp = make([]uint32, numNodes)
		sc.state = make([]uint8, numNodes)
		sc.g = make([]float64, numNodes)
		sc.pt = make([]geom.Point, numNodes)
		sc.fpos = make([]int32, numNodes)
		sc.mark = make([]uint64, (numNodes+63)/64)
		sc.exact = make([]uint32, numNodes)
	}
	if numObjects > len(sc.objStamp) {
		sc.objStamp = make([]uint32, numObjects)
		sc.objDist = make([]float64, numObjects)
		sc.objState = make([]uint8, numObjects)
	}
	sc.touched = sc.touched[:0]
	sc.front = sc.front[:0]
	sc.objList = sc.objList[:0]
	sc.frontier.Reset()
	sc.frontier.Grow(numNodes)
	sc.objHeap.Reset()
}

// nodeState returns v's state in the current epoch (0 when unseen).
func (sc *Scratch) nodeState(v graph.NodeID) uint8 {
	if sc.stamp[v] != sc.epoch {
		return 0
	}
	return sc.state[v]
}

// touch stamps v into the current epoch with the given state, recording it
// in the touched list on first contact.
func (sc *Scratch) touch(v graph.NodeID, state uint8) {
	if sc.stamp[v] != sc.epoch {
		sc.stamp[v] = sc.epoch
		sc.touched = append(sc.touched, v)
	}
	sc.state[v] = state
}

// enterFrontier puts v on the A* frontier (or keeps it there), appending it
// to the compact frontier list on entry. st is v's current nodeState, which
// every caller has just read; v must not be settled.
func (sc *Scratch) enterFrontier(v graph.NodeID, st uint8) {
	if st != stateFrontier {
		sc.appendFront(v)
	}
	sc.touch(v, stateFrontier)
}

// appendFront adds v, which must be in stateFrontier by the time the list is
// next read, to the compact frontier list.
func (sc *Scratch) appendFront(v graph.NodeID) {
	sc.fpos[v] = int32(len(sc.front))
	sc.front = append(sc.front, v)
}

// settle moves frontier node v to the settled set, swap-removing it from
// the compact frontier list.
func (sc *Scratch) settle(v graph.NodeID) {
	i, last := sc.fpos[v], sc.front[len(sc.front)-1]
	sc.front[i] = last
	sc.fpos[last] = i
	sc.front = sc.front[:len(sc.front)-1]
	sc.state[v] = stateSettled
}

// newSession starts a fresh generation of exact-key marks.
func (sc *Scratch) newSession() {
	sc.session++
	if sc.session == 0 {
		// uint32 wrap, as in begin.
		clear(sc.exact)
		sc.session = 1
	}
}

// objDistance returns o's best tentative distance in the current epoch.
func (sc *Scratch) objDistance(o graph.ObjectID) (float64, bool) {
	if sc.objStamp[o] != sc.epoch {
		return 0, false
	}
	return sc.objDist[o], true
}

// improveObject lowers o's tentative distance, stamping it on first
// contact.
func (sc *Scratch) improveObject(o graph.ObjectID, dist float64) bool {
	if sc.objStamp[o] != sc.epoch {
		sc.objStamp[o] = sc.epoch
		sc.objState[o] = objLive
		sc.objDist[o] = dist
		sc.objList = append(sc.objList, o)
		return true
	}
	if dist >= sc.objDist[o] {
		return false
	}
	sc.objDist[o] = dist
	return true
}
