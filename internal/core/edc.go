package core

import (
	"context"
	"math"
	"slices"
	"sort"
	"time"

	"roadskyline/internal/geom"
	"roadskyline/internal/graph"
	"roadskyline/internal/obs"
	"roadskyline/internal/rtree"
	"roadskyline/internal/skyline"
	"roadskyline/internal/sp"
)

// euclidVec fills buf with e's full Euclidean vector: distances to the
// query points, then the object's static attributes when useAttrs is set.
// It returns buf, which the caller owns until its next euclidVec call with
// the same buffer — callers that retain the vector (or interleave it with
// rectLowerBoundVec scoring) must use distinct buffers or copy.
func euclidVec(env *Env, useAttrs bool, qPts []geom.Point, buf []float64, e rtree.Entry) []float64 {
	p := e.Point()
	for i, qp := range qPts {
		buf[i] = p.Dist(qp)
	}
	env.fillAttrs(buf, len(qPts), graph.ObjectID(e.ID), useAttrs)
	return buf
}

// rectLowerBoundVec fills buf with r's lower-bound vector: minimum possible
// distances to the query points, with attribute dimensions bounded below by
// zero. Buffer ownership follows euclidVec.
func rectLowerBoundVec(qPts []geom.Point, buf []float64, r geom.Rect) []float64 {
	for i, qp := range qPts {
		buf[i] = r.MinDist(qp)
	}
	for i := len(qPts); i < len(buf); i++ {
		buf[i] = 0
	}
	return buf
}

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
// The paper computes every candidate's vector in full and compares
// afterwards. Here only the seeds' are (a seed's vector is p-bar); a window
// candidate is verified as LBC verifies its own (boundVec.refine): dropped
// as soon as its path-distance lower bounds are dominated by the network
// vectors already known, most often before any A* session toward it is
// opened. The candidates fetched and the skyline reported are the paper's;
// Options.DisablePLB gives back its distance computations too.
func edc(ctx context.Context, env *Env, q Query, opts Options) (*Result, error) {
	start := time.Now()
	n := len(q.Points)
	dims := env.vectorDims(n, q.UseAttrs)
	qPts := make([]geom.Point, n)
	for i, p := range q.Points {
		qPts[i] = env.G.Point(p)
	}

	res := &Result{}
	var m Metrics
	astars := make([]*sp.AStar, n)
	cacheHits := make([]bool, n)
	// Scratches go back to the pool on every exit path; snapshots for the
	// distance cache are deep copies taken before the deferred release runs.
	// The deferred ts.abort abdicates any leadership tickets an error
	// path leaves unresolved (a no-op after putAStarStates publishes).
	defer releaseSearchers(env, astars)
	ts := newTickets(env, opts, n)
	defer ts.abort()
	for i, p := range q.Points {
		a, hit, err := newAStar(ctx, env, opts, p, qPts[i], &m, ts, i)
		if err != nil {
			return nil, err
		}
		astars[i], cacheHits[i] = a, hit
	}
	probe := newPhaseProbe(env, opts, func() int {
		total := 0
		for _, a := range astars {
			total += a.NodesExpanded()
		}
		return total
	})
	if fn := probe.progressFunc(); fn != nil {
		for _, a := range astars {
			a.OnProgress(fn)
		}
	}

	// fail finalizes the metrics gathered so far and returns them alongside
	// the error, so observers (the flight recorder, slow-query logs) can
	// account the work a cancelled or failed query performed. The distance
	// cache is deliberately not fed on this path.
	fail := func(err error) (*Result, error) {
		collectSearcherStats(&m, astars)
		finishMetrics(env, &m, start)
		probe.finish(&m)
		return &Result{Metrics: m}, err
	}

	var shifted [][]float64 // p-bar vectors of processed seeds
	// front is the Pareto front of the exact network vectors computed so
	// far, all-+Inf ones left out. Every member is a real object's vector
	// and strict dominance is transitive, so whatever any vector computed so
	// far dominates, a member dominates.
	var front [][]float64
	fetched := make([]bool, len(env.Objects)) // seeds and window candidates, by id
	win := newEDCWindow(env, qPts, q.UseAttrs, fetched)
	candVec := make(map[graph.ObjectID][]float64) // undetermined candidates, all on the front when they joined

	// eVec computes the full Euclidean vector of an object (distances plus
	// attributes); lbVec the lower-bound vector of a rectangle (attribute
	// dimensions bounded below by zero). Each closure reuses its own
	// buffer: the best-first traversal interleaves rect and entry scoring,
	// so a single shared scratch slice would let a rect's lower-bound
	// vector clobber an entry vector the caller is still comparing.
	eBuf := make([]float64, dims)
	lbBuf := make([]float64, dims)
	eVec := func(e rtree.Entry) []float64 { return euclidVec(env, q.UseAttrs, qPts, eBuf, e) }
	lbVec := func(r geom.Rect) []float64 { return rectLowerBoundVec(qPts, lbBuf, r) }
	sum := func(v []float64) float64 {
		s := 0.0
		for _, x := range v {
			s += x
		}
		return s
	}
	beyondShifted := func(v []float64) bool {
		for _, p := range shifted {
			if skyline.DominatesOrEqual(p, v) {
				return true
			}
		}
		return false
	}

	seeds := env.ObjTree.NewBestFirst(
		func(r geom.Rect) float64 { return sum(lbVec(r)) },
		func(e rtree.Entry) float64 { return sum(eVec(e)) },
		func(r geom.Rect) bool { return beyondShifted(lbVec(r)) },
		func(e rtree.Entry) bool { return fetched[e.ID] || beyondShifted(eVec(e)) },
	)

	// admit files a fetched object's exact vector. One that is all +Inf or
	// dominated by the front can never be reported and dominates nothing the
	// front does not, so it is dropped here; any other joins the candidates
	// and the front, evicting the members it dominates.
	admit := func(id graph.ObjectID, vec []float64) {
		if unreachableVec(vec, n) || skyline.DominatedBy(vec, front) {
			return
		}
		keep := front[:0]
		for _, f := range front {
			if !skyline.Dominates(vec, f) {
				keep = append(keep, f)
			}
		}
		front = append(keep, vec)
		candVec[id] = vec
	}

	// fetchSeed computes a seed's network vector in full — it is p-bar, the
	// corner of the next window — with its n sessions sharing one target, so
	// the landmark heuristic toward the object is built once.
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
		admit(id, vec)
		return vec, nil
	}

	// verify settles a window candidate bounds-first (boundVec.refine): it
	// is dropped as soon as the front dominates its vector of lower bounds —
	// then a member dominates its network vector too, and whatever that
	// would have dominated — and only an undominated one has all n distances
	// computed. Under DisablePLB nothing is dropped early (the paper's EDC).
	bounds := newBoundVec(astars, dims, &m)
	bounds.runOut = opts.DisablePLB
	dominated := func() bool { return !opts.DisablePLB && skyline.DominatedBy(bounds.test(), front) }
	verify := func(id graph.ObjectID) error {
		fetched[id] = true
		m.Candidates++
		o := env.Objects[id]
		env.fillAttrs(bounds.lb, n, id, q.UseAttrs)
		// refine does not count the evaluations that completed on opening,
		// from settled endpoints; a seed's vector counts all n of its own.
		evaluated := m.DistanceComputations
		exact, err := bounds.refine(sp.Target{Loc: o.Loc, Pt: env.G.Point(o.Loc)}, nil, -1, dominated)
		m.DistanceComputations = evaluated + bounds.completed()
		if exact {
			admit(id, slices.Clone(bounds.lb))
		}
		return err
	}

	// resolve determines the candidates whose vector fits under pbar (all of
	// them when pbar is nil): each is a skyline point unless a vector
	// computed since evicted it from the front. They resolve in id order —
	// each outcome is order-independent, but map order would make the report
	// order jitter from run to run.
	resolve := func(pbar []float64) {
		var ids []graph.ObjectID
		for id, vec := range candVec {
			if pbar == nil || skyline.DominatesOrEqual(vec, pbar) {
				ids = append(ids, id)
			}
		}
		slices.Sort(ids)
		for _, id := range ids {
			vec := candVec[id]
			delete(candVec, id)
			if skyline.DominatedBy(vec, front) {
				continue
			}
			res.Skyline = append(res.Skyline, SkylinePoint{
				Object: env.Objects[id],
				Dists:  vec[:n:n],
				Vec:    vec,
			})
			if m.Initial == 0 {
				m.Initial = time.Since(start)
				m.InitialPages = env.pagesFaulted()
			}
		}
	}

	var batch []windowCand
	for {
		// The A* searchers check cancellation every K settlements inside
		// fetchSeed and verify; the seed loop re-checks between seeds so that
		// seeds whose distances resolve via the settled-endpoints shortcut
		// (no expansion at all) cannot starve cancellation.
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		probe.begin(obs.PhaseEDCSeed)
		seed, _, ok := seeds.Next()
		probe.end()
		if !ok {
			break
		}
		probe.begin(obs.PhaseEDCVerify)
		pbar, err := fetchSeed(graph.ObjectID(seed.ID))
		probe.end()
		if err != nil {
			return fail(err)
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
			if err := verify(c.id); err != nil {
				return fail(err)
			}
		}
		probe.end()
		// A candidate is determined once its network vector fits under some
		// shifted vector: no unfetched object can dominate it any more.
		resolve(pbar)
	}

	// No more seeds: every unfetched object is beyond some shifted vector,
	// hence dominated-or-equal by a fetched one, and the remaining
	// candidates resolve among the fetched.
	resolve(nil)

	dropDominatedDuplicates(res)
	putAStarStates(env, opts, astars, cacheHits, ts)
	collectSearcherStats(&m, astars)
	finishMetrics(env, &m, start)
	probe.finish(&m)
	res.Metrics = m
	return res, nil
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
// without the memo, and later ones are mostly comparisons. The
// stores grow with the nodes and leaves the windows reach, not with |D|.
type edcWindow struct {
	env     *Env
	qPts    []geom.Point
	attrs   int     // attribute dimensions compared: 0 without UseAttrs
	fetched []bool  // by object id, shared with edc
	node    vecMemo // MinDist vectors by node id
	entry   vecMemo // Euclidean distances by leaf-order position
	fills   int     // distances computed: at most |Q| per node and entry

	pbar  []float64    // the window being collected
	batch []windowCand // its members so far
}

func newEDCWindow(env *Env, qPts []geom.Point, useAttrs bool, fetched []bool) *edcWindow {
	n := len(qPts)
	return &edcWindow{
		env:     env,
		qPts:    qPts,
		attrs:   env.vectorDims(n, useAttrs) - n,
		fetched: fetched,
		node:    newVecMemo(env.ObjTree.NumNodes(), n),
		entry:   newVecMemo(env.ObjTree.Len(), n),
	}
}

// collect appends to batch, in the tree's depth-first leaf order, every
// unfetched object inside the hypercube [0, pbar]. The R-tree descends on
// the spatial dimensions; entries are tested on all of them, attributes
// last. A point entry's MinDist equals its distance, so the entry test
// implies the one its own rectangle would pass.
func (w *edcWindow) collect(pbar []float64, batch []windowCand) []windowCand {
	w.pbar, w.batch = pbar, batch
	w.env.ObjTree.SearchFunc(w.descend, w.visit)
	batch, w.pbar, w.batch = w.batch, nil, nil
	return batch
}

func (w *edcWindow) descend(id int, r geom.Rect) bool {
	lb := w.node.at(id)
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

func (w *edcWindow) visit(pos int, e rtree.Entry) bool {
	if w.fetched[e.ID] {
		return true
	}
	ev := w.entry.at(pos)
	for i, qp := range w.qPts {
		if ev[i] == unfilled {
			ev[i] = e.Point().Dist(qp)
			w.fills++
		}
		if ev[i] > w.pbar[i] {
			return true
		}
	}
	id := graph.ObjectID(e.ID)
	if skyline.DominatesOrEqual(w.env.Objects[id].Attrs[:w.attrs], w.pbar[len(ev):]) {
		w.batch = append(w.batch, windowCand{id, slices.Max(ev)})
	}
	return true
}

// memoBlock is the number of vectors a vecMemo allocates at once.
const memoBlock = 64

// unfilled marks a vecMemo value not computed yet: distances are never
// negative.
const unfilled = -1

// vecMemo keeps one vector of n float64s per dense index, each value
// computed by the caller on first use. Storage comes in blocks of memoBlock
// vectors, each allocated when an index inside it is first asked for.
type vecMemo struct {
	n      int
	blocks [][]float64 // nil until first asked for
}

func newVecMemo(size, n int) vecMemo {
	return vecMemo{n: n, blocks: make([][]float64, (size+memoBlock-1)/memoBlock)}
}

// at returns index i's vector, whose values are unfilled until the caller
// fills them.
func (m *vecMemo) at(i int) []float64 {
	b := m.blocks[uint(i)/memoBlock]
	if b == nil {
		b = make([]float64, memoBlock*m.n)
		for j := range b {
			b[j] = unfilled
		}
		m.blocks[uint(i)/memoBlock] = b
	}
	return b[uint(i)%memoBlock*uint(m.n):][:m.n]
}
