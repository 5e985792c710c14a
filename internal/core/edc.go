package core

import (
	"context"
	"math"
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

// maxEuclid returns an object's largest Euclidean distance to any query
// point, the sort key for farthest-first distance computation.
func maxEuclid(env *Env, qPts []geom.Point, id graph.ObjectID) float64 {
	p := env.G.Point(env.Objects[id].Loc)
	worst := 0.0
	for _, qp := range qPts {
		if d := p.Dist(qp); d > worst {
			worst = d
		}
	}
	return worst
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
	// The deferred flight abort abdicates any leadership tickets an error
	// path leaves unresolved (a no-op after putAStarStates publishes).
	defer releaseSearchers(env, astars)
	qf := newQueryFlights(env, opts, n)
	defer qf.abort()
	for i, p := range q.Points {
		a, hit, err := newAStar(ctx, env, opts, p, qPts[i], &m, qf, i)
		if err != nil {
			return nil, err
		}
		astars[i], cacheHits[i] = a, hit
	}
	probe := newPhaseProbe(env, opts, AlgEDC, n, start, func() int {
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
	var skyVecs [][]float64 // vectors of reported skyline points
	fetched := make(map[graph.ObjectID]bool)
	candVec := make(map[graph.ObjectID][]float64) // undetermined candidates

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

	// netVec computes an object's full network-distance vector; its n
	// sessions share one target, so the landmark heuristic toward the object
	// is built once.
	netVec := func(id graph.ObjectID) ([]float64, error) {
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
		return vec, nil
	}

	seeds := env.ObjTree.NewBestFirst(
		func(r geom.Rect) float64 { return sum(lbVec(r)) },
		func(e rtree.Entry) float64 { return sum(eVec(e)) },
		func(r geom.Rect) bool { return beyondShifted(lbVec(r)) },
		func(e rtree.Entry) bool { return fetched[graph.ObjectID(e.ID)] || beyondShifted(eVec(e)) },
	)

	fetch := func(id graph.ObjectID) error {
		fetched[id] = true
		m.Candidates++
		vec, err := netVec(id)
		if err != nil {
			return err
		}
		candVec[id] = vec
		return nil
	}

	// determine resolves every candidate whose network vector fits under
	// pbar: report it when nothing fetched dominates it, discard otherwise.
	// Candidates resolve in id order — each outcome is order-independent
	// (every candidate is compared against the full fetched set), but map
	// order would make the report order jitter from run to run.
	determine := func(pbar []float64) {
		ids := make([]graph.ObjectID, 0, len(candVec))
		for id := range candVec {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		for _, id := range ids {
			vec := candVec[id]
			if !skyline.DominatesOrEqual(vec, pbar) {
				continue
			}
			dominated := unreachableVec(vec, n) || skyline.DominatedBy(vec, skyVecs)
			if !dominated {
				for id2, vec2 := range candVec {
					if id2 != id && skyline.Dominates(vec2, vec) {
						dominated = true
						break
					}
				}
			}
			delete(candVec, id)
			if dominated {
				continue
			}
			skyVecs = append(skyVecs, vec)
			res.Skyline = append(res.Skyline, SkylinePoint{
				Object: env.Objects[id],
				Dists:  vec[:n:n],
				Vec:    vec,
			})
			probe.point()
			if m.Initial == 0 {
				m.Initial = time.Since(start)
				m.InitialPages = env.pagesFaulted()
			}
		}
	}

	for {
		// The A* searchers check cancellation every K settlements inside
		// fetch; the seed loop re-checks between seeds so that seeds whose
		// distances resolve via the settled-endpoints shortcut (no
		// expansion at all) cannot starve cancellation.
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		probe.begin(obs.PhaseEDCSeed)
		seed, _, ok := seeds.Next()
		probe.end()
		if !ok {
			break
		}
		id := graph.ObjectID(seed.ID)
		probe.begin(obs.PhaseEDCVerify)
		err := fetch(id)
		probe.end()
		if err != nil {
			return fail(err)
		}
		pbar := candVec[id]
		shifted = append(shifted, pbar)

		// Window query: every object inside the hypercube [0, pbar] joins
		// the candidate set (paper step 3). The R-tree descends on the
		// spatial dimensions; attributes are checked exactly per entry.
		var batch []graph.ObjectID
		probe.begin(obs.PhaseEDCWindow)
		env.ObjTree.SearchFunc(
			func(r geom.Rect) bool {
				for i, qp := range qPts {
					if r.MinDist(qp) > pbar[i] {
						return false
					}
				}
				return true
			},
			func(e rtree.Entry) bool {
				oid := graph.ObjectID(e.ID)
				if !fetched[oid] && skyline.DominatesOrEqual(eVec(e), pbar) {
					batch = append(batch, oid)
				}
				return true
			},
		)
		probe.end()
		// Compute network distances farthest-first: once the widest
		// candidate has expanded the searchers, nearer candidates complete
		// via the settled-endpoints shortcut without re-keying a frontier.
		sort.Slice(batch, func(a, b int) bool {
			return maxEuclid(env, qPts, batch[a]) > maxEuclid(env, qPts, batch[b])
		})
		probe.begin(obs.PhaseEDCVerify)
		for _, oid := range batch {
			if err := fetch(oid); err != nil {
				return fail(err)
			}
		}
		probe.end()
		determine(pbar)
	}

	// No more seeds: every unfetched object is beyond some shifted vector,
	// hence dominated-or-equal by a fetched one. The remaining candidates
	// resolve by comparison within the fetched set. Resolve in id order:
	// the outcome per candidate is order-independent (each is compared
	// against the full fetched set), but map order would make the tail of
	// res.Skyline jitter from run to run.
	remaining := make([]graph.ObjectID, 0, len(candVec))
	for id := range candVec {
		remaining = append(remaining, id)
	}
	sort.Slice(remaining, func(a, b int) bool { return remaining[a] < remaining[b] })
	for _, id := range remaining {
		vec := candVec[id]
		dominated := unreachableVec(vec, n) || skyline.DominatedBy(vec, skyVecs)
		if !dominated {
			for id2, vec2 := range candVec {
				if id2 != id && skyline.Dominates(vec2, vec) {
					dominated = true
					break
				}
			}
		}
		if !dominated {
			skyVecs = append(skyVecs, vec)
			res.Skyline = append(res.Skyline, SkylinePoint{
				Object: env.Objects[id],
				Dists:  vec[:n:n],
				Vec:    vec,
			})
			probe.point()
			if m.Initial == 0 {
				m.Initial = time.Since(start)
				m.InitialPages = env.pagesFaulted()
			}
		}
	}

	dropDominatedDuplicates(res)
	putAStarStates(env, opts, astars, cacheHits, qf)
	collectSearcherStats(&m, astars)
	finishMetrics(env, &m, start)
	probe.finish(&m)
	res.Metrics = m
	return res, nil
}
