package core

import (
	"math"
	"slices"
	"sort"

	"roadskyline/internal/geom"
	"roadskyline/internal/graph"
	"roadskyline/internal/obs"
	"roadskyline/internal/rtree"
	"roadskyline/internal/skyline"
	"roadskyline/internal/sp"
)

// unreachableVec reports whether every network-distance component of vec
// is +Inf: no query point reaches the object's component. Such objects are
// never skyline points — CE and LBC cannot even encounter them, since no
// wavefront reaches them — but EDC fetches them through the R-tree window,
// and all-+Inf vectors do not dominate each other, so without an explicit
// check a query whose candidates are all unreachable would report every
// one of them.
func unreachableVec(vec []float64, n int) bool {
	for _, d := range vec[:n] {
		if !math.IsInf(d, 1) {
			return false
		}
	}
	return true
}

// edc implements the Euclidean Distance Constraint algorithm (paper
// Section 4.2, incremental variant).
//
// Seeds are retrieved best-first by the sum of Euclidean distances to the
// query points. Each seed is shifted by its network distances (computed
// with the resumable A* searchers); the shifted vector p-bar defines a
// candidate region — every object whose Euclidean vector is component-wise
// at most p-bar is fetched and its network distances computed — and a
// pruning region — anything whose Euclidean vector is component-wise at
// least p-bar is network-dominated by the seed and never retrieved. A
// candidate is determined once its network vector fits under some shifted
// vector: past that point no unfetched object can dominate it, so it is
// reported (or discarded) by comparing against the fetched vectors only.
//
// This is the candidate space of the paper's Figure 3(b): everything
// bottom-left of the shifted curve L1 is a candidate, everything beyond it
// is pruned.
//
// The paper computes every candidate's vector in full and opens every
// seed's window. Here seeds and window candidates are verified as LBC
// verifies its own (boundVec.refine): dropped as soon as their path-distance
// lower bounds are dominated by the network vectors already known, most
// often before any A* session toward them is opened. A seed the front
// dominates opens no window (BBS's rule: a region a known point dominates is
// never expanded); the objects its window would fetch still reach the seed
// stream or a later window. The skyline is the paper's as a set, not its
// report order; Options.DisablePLB is the paper's EDC.
func edc(f *frame) (*Result, error) {
	ctx, env, q, n, dims, qPts := f.ctx, f.env, f.q, f.n, f.dims, f.qPts
	opts, astars, probe, m := f.opts, f.searchers, f.probe, &f.m
	res := &Result{}

	var shifted [][]float64 // p-bar vectors of processed seeds
	front := newParetoFront(f, res, nil)
	fetched := make([]bool, len(env.Objects)) // seeds and window candidates, by id
	win := newEDCWindow(env, qPts, q.UseAttrs, fetched)

	// The seeds come best-first by the sum of their Euclidean vectors, read
	// from the window's memo as the windows read them.
	sum := func(v []float64) float64 {
		s := 0.0
		for _, x := range v {
			s += x
		}
		return s
	}
	// beyondShifted tests the floors of a Euclidean vector's distances: on
	// an edge exactly as long as the straight line between its ends the
	// Euclidean distance meets the network distance, and computed raw it can
	// come out ulps above it, pruning an object tied with a seed.
	floor, noneExact := make([]float64, dims), make([]bool, n)
	beyondShifted := func(v []float64) bool {
		v = floorBounds(floor, v, noneExact)
		for _, p := range shifted {
			if skyline.DominatesOrEqual(p, v) {
				return true
			}
		}
		return false
	}

	seeds := env.ObjTree.NewBestFirst(
		func(id int, r geom.Rect) float64 { return sum(win.nodeLB(id, r)) },
		func(pos int, e rtree.Entry) float64 { return sum(win.entryVec(pos, &e)) },
		func(id int, r geom.Rect) bool { return beyondShifted(win.nodeLB(id, r)) },
		func(pos int, e rtree.Entry) bool { return fetched[e.ID] || beyondShifted(win.entryVec(pos, &e)) },
	)

	// fetchSeed computes a seed's network vector in full — p-bar, the corner
	// of the next window — with its n sessions sharing one target, so the
	// landmark heuristic toward the object is built once. Outside the
	// paper's EDC a vector admit drops opens no window: it returns nil.
	fetchSeed := func(id graph.ObjectID) ([]float64, error) {
		fetched[id] = true
		m.Candidates++
		o := env.Objects[id]
		target := sp.Target{Loc: o.Loc, Pt: env.G.Point(o.Loc)}
		vec := make([]float64, dims)
		for i := range astars {
			d, err := astars[i].OpenSession(&target).Run()
			if err != nil {
				return nil, err
			}
			vec[i] = d
			m.DistanceComputations++
		}
		env.fillAttrs(vec, n, id, q.UseAttrs)
		if !front.admit(id, vec) && !opts.DisablePLB {
			return nil, nil
		}
		return vec, nil
	}

	// verify settles a seed or a window candidate bounds-first
	// (boundVec.refine): it is dropped as soon as the front dominates its
	// vector of lower bounds — then a member dominates its network vector
	// too, and whatever that would have dominated — and only an undominated
	// one has all n distances computed. It returns the exact vector when
	// admit takes it, nil otherwise. Under DisablePLB nothing is dropped
	// early (the paper's EDC).
	bounds := newBoundVec(astars, dims, m)
	bounds.runOut = opts.DisablePLB
	dominated := func() bool { return !opts.DisablePLB && skyline.DominatedBy(bounds.test(), front.vecs) }
	verify := func(id graph.ObjectID) ([]float64, error) {
		fetched[id] = true
		m.Candidates++
		o := env.Objects[id]
		env.fillAttrs(bounds.lb, n, id, q.UseAttrs)
		// refine does not count the evaluations that completed on opening,
		// from settled endpoints; a seed's vector counts all n of its own.
		evaluated := m.DistanceComputations
		exact, err := bounds.refine(sp.Target{Loc: o.Loc, Pt: env.G.Point(o.Loc)}, nil, dominated)
		m.DistanceComputations = evaluated + bounds.completed()
		if exact {
			if vec := slices.Clone(bounds.lb); front.admit(id, vec) {
				return vec, err
			}
		}
		return nil, err
	}
	// seedVec returns a seed's p-bar, or nil when the seed opens no window.
	// The paper's EDC makes every seed p-bar, whatever the front holds; a
	// seed that meets an empty front has nothing to be dropped by, so its
	// distances are run directly, without refine's rounds.
	seedVec := func(id graph.ObjectID) ([]float64, error) {
		if opts.DisablePLB || len(front.vecs) == 0 {
			return fetchSeed(id)
		}
		return verify(id)
	}

	var batch []windowCand
	for {
		// The A* searchers check cancellation every K settlements inside
		// fetchSeed and verify; the seed loop re-checks between seeds so that
		// seeds whose distances resolve via the settled-endpoints shortcut
		// (no expansion at all) cannot starve cancellation.
		if err := ctx.Err(); err != nil {
			return f.fail(err)
		}
		probe.begin(obs.PhaseEDCSeed)
		seed, _, ok := seeds.Next()
		probe.end()
		if !ok {
			break
		}
		probe.begin(obs.PhaseEDCVerify)
		pbar, err := seedVec(graph.ObjectID(seed.ID))
		probe.end()
		if err != nil {
			return f.fail(err)
		}
		if pbar == nil {
			continue // dropped: the seed opens no window
		}
		shifted = append(shifted, pbar)

		// Window query: every object inside the hypercube [0, pbar] joins
		// the candidate set (paper step 3).
		probe.begin(obs.PhaseEDCWindow)
		batch = win.collect(pbar, batch[:0])
		probe.end()
		if testHookEDCWindow != nil {
			testHookEDCWindow(win, pbar, batch)
		}
		// Verify farthest-first: once the widest candidate has expanded the
		// searchers, nearer candidates complete via the settled-endpoints
		// shortcut without re-keying a frontier.
		sort.Slice(batch, func(a, b int) bool { return batch[a].far > batch[b].far })
		probe.begin(obs.PhaseEDCVerify)
		for _, c := range batch {
			if _, err := verify(c.id); err != nil {
				return f.fail(err)
			}
		}
		probe.end()
		// A candidate is determined once its network vector fits under some
		// shifted vector: no unfetched object can dominate it any more.
		front.resolve(pbar)
	}

	// No more seeds: every unfetched object is beyond some shifted vector,
	// hence dominated-or-equal by a fetched one, and the remaining
	// candidates resolve among the fetched.
	front.resolve(nil)

	dropDominatedDuplicates(res)
	return f.succeed(res)
}

// windowCand is a window's unfetched object with its largest Euclidean
// distance to a query point.
type windowCand struct {
	id  graph.ObjectID
	far float64
}

// testHookEDCWindow, set only by tests, sees each window's batch before it
// is sorted, with the window that collected it and its p-bar.
var testHookEDCWindow func(w *edcWindow, pbar []float64, batch []windowCand)

// edcWindow is EDC's window query (paper step 3) over one query's seeds: a
// window fetches every unfetched object whose Euclidean vector is at most
// p-bar, descending into the R-tree nodes whose MinDist vector to the query
// points is at most p-bar's spatial part. Neither vector depends on p-bar,
// so each distance is computed the first time a window's test reads it
// (query point by query point, stopping at the first beyond p-bar) and kept
// for the query: the first window computes no more distances than a walk
// without the memo, and later ones are mostly comparisons. The seed stream
// reads its keys from the same memo (nodeLB, entryVec), so a vector it
// scores is never computed again. Each leaf also keeps the entries no
// window has fetched yet, so a fetched object leaves the scans for good.
// The objects' store grows with the leaves the windows and the seed stream
// reach, not with |D|; the nodes' is a table of |Q| values per node.
type edcWindow struct {
	env     *Env
	qPts    []geom.Point
	dims    int        // values per entry: |Q| distances, then the attributes compared
	fanout  int        // the tree's: leaf k starts at position k*fanout
	fetched []bool     // by object id, shared with edc
	node    []float64  // |Q| MinDist values per node, by node id
	leaves  []leafMemo // by leaf id
	lb      []float64  // nodeLB's result: the attribute tail stays zero
	fills   int        // distances computed: at most |Q| per node and entry
	tests   int        // entries read by the scans

	pbar  []float64    // the window being collected
	batch []windowCand // its members so far
}

// leafMemo is one leaf's share of a query's window memo.
type leafMemo struct {
	// vecs holds dims values per entry, in leaf order: the Euclidean
	// distances, unfilled until computed, then the object's attributes,
	// copied in with its last distance.
	vecs []float64
	// live holds the entries not known to be fetched, in leaf order: a
	// scan drops the fetched ones it meets and the ones it puts in its
	// batch, which edc fetches before the next window.
	live []liveEntry
}

// liveEntry is a leaf entry's offset in its leaf and its object's id, which
// is all a scan reads of an entry whose distances are filled.
type liveEntry struct{ off, id int32 }

func newEDCWindow(env *Env, qPts []geom.Point, useAttrs bool, fetched []bool) *edcWindow {
	n, fanout := len(qPts), env.ObjTree.Fanout()
	return &edcWindow{
		env:     env,
		qPts:    qPts,
		dims:    env.vectorDims(n, useAttrs),
		fanout:  fanout,
		lb:      make([]float64, env.vectorDims(n, useAttrs)),
		fetched: fetched,
		node:    slices.Repeat([]float64{unfilled}, env.ObjTree.NumNodes()*n),
		leaves:  make([]leafMemo, (env.ObjTree.Len()+fanout-1)/fanout),
	}
}

// collect appends to batch, in the tree's depth-first leaf order, every
// unfetched object inside the hypercube [0, pbar]. The R-tree descends on
// the spatial dimensions; entries are tested on all of them, attributes
// last. A point entry's MinDist equals its distance, so the entry test
// implies the one its own rectangle would pass.
func (w *edcWindow) collect(pbar []float64, batch []windowCand) []windowCand {
	w.pbar, w.batch = pbar, batch
	w.env.ObjTree.SearchFunc(w.descend, w.scan)
	batch, w.pbar, w.batch = w.batch, nil, nil
	return batch
}

func (w *edcWindow) descend(id int, r geom.Rect) bool {
	lb := w.nodeVec(id)
	for i, qp := range w.qPts {
		if lb[i] == unfilled {
			lb[i] = r.MinDist(qp)
			w.fills++
		}
		if lb[i] > w.pbar[i] {
			return false
		}
	}
	return true
}

// scan tests the live entries of the leaf whose first entry sits at
// position first, compacting its live list as it goes.
func (w *edcWindow) scan(first int, entries []rtree.Entry) bool {
	lm := w.leaf(first / w.fanout)
	if lm.live == nil {
		lm.live = make([]liveEntry, len(entries))
		for j, e := range entries {
			lm.live[j] = liveEntry{int32(j), e.ID}
		}
	}
	n, dims, pbar, fetched := len(w.qPts), w.dims, w.pbar, w.fetched
	live, kept := lm.live, 0
	w.tests += len(live)
next:
	for _, le := range live {
		if fetched[le.id] {
			continue
		}
		ev := lm.vecs[int(le.off)*dims:][:dims]
		for i := range n {
			if ev[i] == unfilled {
				w.fill(ev, i, &entries[le.off])
			}
			if ev[i] > pbar[i] {
				live[kept], kept = le, kept+1
				continue next
			}
		}
		if !skyline.DominatesOrEqual(ev[n:], pbar[n:]) {
			live[kept], kept = le, kept+1
			continue
		}
		w.batch = append(w.batch, windowCand{graph.ObjectID(le.id), slices.Max(ev[:n])})
	}
	lm.live = live[:kept]
	return true
}

// leaf returns leaf k's memo, its vectors made on first use.
func (w *edcWindow) leaf(k int) *leafMemo {
	lm := &w.leaves[k]
	if lm.vecs == nil {
		lm.vecs = make([]float64, min(w.fanout, w.env.ObjTree.Len()-k*w.fanout)*w.dims)
		for i := range lm.vecs {
			lm.vecs[i] = unfilled
		}
	}
	return lm
}

// nodeVec returns node id's memo: its MinDist to each query point, each
// value unfilled until computed.
func (w *edcWindow) nodeVec(id int) []float64 {
	n := len(w.qPts)
	return w.node[id*n:][:n]
}

// nodeLB returns the lower-bound vector of node id, whose rectangle is r:
// its MinDist to each query point, then zero for each attribute. The
// vector is w.lb, valid until the next call.
func (w *edcWindow) nodeLB(id int, r geom.Rect) []float64 {
	lb := w.nodeVec(id)
	for i, qp := range w.qPts {
		if lb[i] == unfilled {
			lb[i] = r.MinDist(qp)
			w.fills++
		}
	}
	copy(w.lb, lb)
	return w.lb
}

// entryVec returns the full Euclidean vector of entry e, at position pos:
// its distances to the query points, then its attributes. The vector is
// the memo's own; callers only read it.
func (w *edcWindow) entryVec(pos int, e *rtree.Entry) []float64 {
	ev := w.leaf(pos / w.fanout).vecs[pos%w.fanout*w.dims:][:w.dims]
	for i := range w.qPts {
		if ev[i] == unfilled {
			w.fill(ev, i, e)
		}
	}
	return ev
}

// fill computes entry e's Euclidean distance to query point i into ev.
// Distances are filled in order and the attributes are read only after all
// of them, so the last one copies the object's attributes in.
func (w *edcWindow) fill(ev []float64, i int, e *rtree.Entry) {
	ev[i] = e.Point().Dist(w.qPts[i])
	w.fills++
	if i == len(w.qPts)-1 {
		copy(ev[i+1:], w.env.Objects[e.ID].Attrs)
	}
}

// unfilled marks a memo value not computed yet: distances are never
// negative.
const unfilled = -1
