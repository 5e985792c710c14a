package core

import (
	"cmp"
	"math"
	"slices"

	"roadskyline/internal/graph"
	"roadskyline/internal/obs"
	"roadskyline/internal/skyline"
	"roadskyline/internal/sp"
)

// ce implements the Collaborative Expansion algorithm (paper Section 4.1).
//
// One object-mode searcher per query point (a Dijkstra wavefront: A* at
// h = 0) expands in round-robin order, reporting objects in ascending
// network distance. The filtering phase lasts until the first object has
// been visited by every query point; every object encountered before that
// is a candidate. The paper's refinement phase (Options.DisablePLB) keeps
// expanding to complete the candidates' distance vectors, discarding objects
// that are not candidates and pruning candidates whose lower-bound vector
// (known distances, plus the per-query last-visited distance for unknown
// ones) is dominated by a reported skyline point. The default arm stops the
// wavefronts there instead and settles the candidates bounds-first, as LBC
// and EDC verify theirs (settle below): the same skyline as a set, reported
// in another order.
func ce(f *frame) (*Result, error) {
	ctx, env, q, n, dims := f.ctx, f.env, f.q, f.n, f.dims
	searchers, probe, m := f.searchers, f.probe, &f.m
	res := &Result{}

	probe.begin(obs.PhaseCEFilter)
	exhausted := make([]bool, n)
	numExhausted := 0
	lastDist := make([]float64, n) // distance of the last NN each query visited

	type cand struct {
		id      graph.ObjectID
		vec     []float64 // NaN in spatial dims until visited
		visited int
		pos     int // index in live, -1 once dropped
	}
	// The live candidates, twice: by id for the hit that names one, and as a
	// compact list for the loops over all of them, whose order (unlike a
	// map's) repeats from run to run.
	cands := make(map[graph.ObjectID]*cand)
	var live []*cand
	resolved := make(map[graph.ObjectID]bool) // reported or pruned
	// needCount[i] tracks how many candidates still lack dimension i; once
	// admission has stopped, a searcher nobody needs pauses instead of
	// expanding uselessly.
	needCount := make([]int, n)
	dropCand := func(c *cand) {
		for i := 0; i < n; i++ {
			if math.IsNaN(c.vec[i]) {
				needCount[i]--
			}
		}
		last := live[len(live)-1]
		live[c.pos], last.pos = last, c.pos
		live, c.pos = live[:len(live)-1], -1
		delete(cands, c.id)
		resolved[c.id] = true
	}
	// byID calls fn on the live candidates in ascending object id — the order
	// in which a searcher running out of network completes them — skipping
	// those that an earlier call of fn has dropped.
	byID := func(fn func(c *cand)) {
		s := slices.Clone(live)
		slices.SortFunc(s, func(a, b *cand) int { return cmp.Compare(a.id, b.id) })
		for _, c := range s {
			if c.pos >= 0 {
				fn(c)
			}
		}
	}

	var skyVecs [][]float64

	// minAttrs is the component-wise minimum attribute vector over D: the
	// best attributes any not-yet-encountered object could have.
	minAttrs := make([]float64, dims-n)
	if q.UseAttrs {
		for i := range minAttrs {
			minAttrs[i] = math.Inf(1)
		}
		for _, o := range env.Objects {
			for i, a := range o.Attrs {
				minAttrs[i] = math.Min(minAttrs[i], a)
			}
		}
	}

	// stopAdmitting reports that every object not yet encountered is
	// provably dominated: its network distances are at least each query's
	// last visited distance and its attributes at least the global minima.
	// Without attributes this flips exactly when the paper's filtering
	// phase ends (the first fully visited object dominates the unseen
	// region); with attributes a far-but-cheap object can still join, so
	// admission continues until a skyline point also dominates the best
	// possible attribute vector. Every object's attributes are at least
	// minAttrs, so only a skyline point whose attributes equal minAttrs can
	// do that: stoppers keeps those, and they decide exactly as all of
	// skyVecs would. Without attributes every skyline point is one.
	var stoppers [][]float64
	newLB := make([]float64, dims)
	copy(newLB[n:], minAttrs)
	stopAdmitting := func() bool {
		copy(newLB, lastDist)
		stop := skyline.DominatedBy(newLB, stoppers)
		if testHookCEStop != nil {
			testHookCEStop(newLB, skyVecs, stoppers, stop)
		}
		return stop
	}

	lbVec := make([]float64, dims)
	lowerBound := func(c *cand) []float64 {
		for i := 0; i < n; i++ {
			switch {
			case !math.IsNaN(c.vec[i]):
				lbVec[i] = c.vec[i]
			case exhausted[i]:
				lbVec[i] = math.Inf(1)
			default:
				lbVec[i] = lastDist[i]
			}
		}
		copy(lbVec[n:], c.vec[n:])
		return lbVec
	}

	finish := func(c *cand) {
		dropCand(c)
		if skyline.DominatedBy(c.vec, skyVecs) {
			return
		}
		skyVecs = append(skyVecs, c.vec)
		if slices.Equal(c.vec[n:], minAttrs) {
			stoppers = append(stoppers, c.vec)
		}
		res.Skyline = append(res.Skyline, f.report(SkylinePoint{
			Object: env.Objects[c.id],
			Dists:  c.vec[:n:n],
			Vec:    c.vec,
		}))
		// Prune candidates the new skyline point already dominates. From the
		// back, because dropCand fills the hole with the last entry.
		for k := len(live) - 1; k >= 0; k-- {
			if c2 := live[k]; skyline.Dominates(c.vec, lowerBound(c2)) {
				dropCand(c2)
			}
		}
	}

	// sweep prunes every candidate whose lower bound has become dominated
	// as the per-query visited radii grow; without it the wavefronts would
	// keep expanding toward candidates that are already provably dominated.
	sweep := func() {
		for k := len(live) - 1; k >= 0; k-- {
			if c := live[k]; skyline.DominatedBy(lowerBound(c), skyVecs) {
				dropCand(c)
			}
		}
	}

	// settle completes the live candidates once admission has closed: the
	// object-mode wavefronts stop, and A* sessions on forks of them tighten
	// each missing distance (boundVec.refine) from max(lastDist[i],
	// sp.AStar.Bound) — no object searcher i has not reported is nearer than
	// its last report — until the front of exact vectors dominates the
	// candidate or its vector is exact. Nearest first by the sum of those
	// bounds, so that likely skyline points join the front early.
	settle := func() error {
		if testHookCERefine != nil {
			testHookCERefine(searchers)
		}
		if err := f.newRefiners(); err != nil {
			return err
		}
		front := newParetoFront(f, res, skyVecs)
		bounds := newBoundVec(f.refiners, dims, m)
		dominated := func() bool { return skyline.DominatedBy(bounds.test(), front.vecs) }
		// Each candidate's target and starting vector, with the vector's sum.
		type start struct {
			*cand
			target sp.Target
			from   []float64
			sum    float64
		}
		queue := make([]start, len(live))
		for k, c := range live {
			o := env.Objects[c.id]
			p := start{c, sp.Target{Loc: o.Loc, Pt: env.G.Point(o.Loc)}, slices.Clone(c.vec[:n]), 0}
			for i, a := range f.refiners {
				if math.IsNaN(c.vec[i]) {
					p.from[i] = math.Max(lastDist[i], a.Bound(&p.target))
				}
				p.sum += p.from[i]
			}
			queue[k] = p
		}
		slices.SortFunc(queue, func(a, b start) int { return cmp.Or(cmp.Compare(a.sum, b.sum), cmp.Compare(a.id, b.id)) })
		for _, c := range queue {
			if err := ctx.Err(); err != nil {
				return err
			}
			copy(bounds.lb, c.vec)
			for i := range bounds.known {
				bounds.known[i] = !math.IsNaN(c.vec[i])
			}
			// refine does not count the distances that completed on opening.
			evaluated := m.DistanceComputations
			exact, err := bounds.refine(c.target, c.from, dominated)
			m.DistanceComputations = evaluated + bounds.completed()
			if err != nil {
				return err
			}
			if exact {
				front.admit(c.id, slices.Clone(bounds.lb))
			}
		}
		front.resolve(nil)
		return nil
	}

	cursor := 0
	hits, sweepAt := 0, 256
	rounds := 0
	for {
		// The searchers check cancellation every K settlements; the
		// round-robin loop itself can spin through many object pops per
		// settlement, so it re-checks at the same stride — starting with the
		// first round, so that a query cancelled once its searchers and
		// wavefront tickets exist fails before it expands anything.
		if rounds++; rounds%64 == 1 {
			if err := ctx.Err(); err != nil {
				return f.fail(err)
			}
		}
		if len(live) == 0 && stopAdmitting() {
			break
		}
		if numExhausted == n {
			// Every remaining unknown dimension is an unreachable +Inf.
			byID(func(c *cand) {
				for i := 0; i < n; i++ {
					if math.IsNaN(c.vec[i]) {
						c.vec[i] = math.Inf(1)
					}
				}
				finish(c)
			})
			break
		}
		// Pick the next searcher that is still useful: not exhausted, and
		// either admission is open or some candidate lacks its dimension.
		stopped := stopAdmitting()
		if stopped {
			// The candidate set is closed: the paper's filtering phase is
			// over and everything from here on is refinement, which the
			// default arm leaves to settle.
			probe.transition(obs.PhaseCEFilter, obs.PhaseCERefine)
			if !f.opts.DisablePLB {
				if err := settle(); err != nil {
					return f.fail(err)
				}
				break
			}
		}
		i := -1
		for probe := 0; probe < n; probe++ {
			j := (cursor + probe) % n
			if exhausted[j] {
				continue
			}
			if !stopped || needCount[j] > 0 {
				i = j
				break
			}
		}
		if i == -1 {
			// Every live searcher is useless: all remaining unknown
			// dimensions belong to exhausted searchers, handled above, or
			// there are no candidates left and admission reopened is
			// impossible. Sweep and re-check.
			sweep()
			if len(live) == 0 {
				break
			}
			// Remaining candidates wait on exhausted dimensions only.
			byID(func(c *cand) {
				for d := 0; d < n; d++ {
					if math.IsNaN(c.vec[d]) {
						c.vec[d] = math.Inf(1)
						needCount[d]--
						c.visited++
					}
				}
				if c.visited == n {
					finish(c)
				}
			})
			break
		}
		cursor = (i + 1) % n

		hit, ok, err := searchers[i].NextObject()
		if err != nil {
			return f.fail(err)
		}
		if !ok {
			exhausted[i] = true
			numExhausted++
			lastDist[i] = math.Inf(1)
			// Exhaustion fixes dimension i of every candidate still missing
			// it to +Inf, which may complete some candidates.
			byID(func(c *cand) {
				if math.IsNaN(c.vec[i]) {
					c.vec[i] = math.Inf(1)
					needCount[i]--
					c.visited++
					if c.visited == n {
						finish(c)
					}
				}
			})
			continue
		}
		lastDist[i] = hit.Dist
		m.DistanceComputations++
		// Sweeps amortize their O(|C| * |S|) cost against the hits since
		// the previous sweep.
		if hits++; hits >= sweepAt {
			sweep()
			next := len(live) / 2
			if next < 256 {
				next = 256
			}
			sweepAt = hits + next
		}

		c, known := cands[hit.ID]
		switch {
		case resolved[hit.ID]:
			continue
		case known:
			// Existing candidate: record the new dimension.
		case !stopAdmitting():
			// New object becomes a candidate while the unseen region can
			// still contain skyline points.
			c = &cand{id: hit.ID, vec: make([]float64, dims), pos: len(live)}
			for d := 0; d < n; d++ {
				c.vec[d] = math.NaN()
				needCount[d]++
			}
			env.fillAttrs(c.vec, n, hit.ID, q.UseAttrs)
			cands[hit.ID] = c
			live = append(live, c)
			m.Candidates++
		default:
			// Refinement phase discards newly encountered objects.
			continue
		}
		c.vec[i] = hit.Dist
		needCount[i]--
		c.visited++
		if c.visited == n {
			finish(c)
			continue
		}
		if skyline.DominatedBy(lowerBound(c), skyVecs) {
			dropCand(c)
		}
	}

	dropDominatedDuplicates(res)
	return f.succeed(res)
}

// testHookCERefine, set only by tests, sees the object-mode searchers as
// the bounds-first refinement takes over from them.
var testHookCERefine func(searchers []*sp.AStar)

// testHookCEStop, set only by tests, sees each admission decision: the
// vector of the best unseen object, every skyline vector so far, the
// stoppers the decision read and the decision.
var testHookCEStop func(lb []float64, skyVecs, stoppers [][]float64, stop bool)

// dropDominatedDuplicates removes reported skyline points dominated by
// later-reported ones. This only ever fires when exact distance ties let an
// object finish before its dominator (see package documentation on ties).
//
// Dominance is decided against a snapshot taken before the in-place
// compaction: compacting res.Skyline while still reading res.Skyline[j]
// from the same backing array would compare later points against entries
// the compaction has already overwritten.
func dropDominatedDuplicates(res *Result) {
	snap := make([]SkylinePoint, len(res.Skyline))
	copy(snap, res.Skyline)
	keep := res.Skyline[:0]
	for i := range snap {
		dominated := false
		for j := range snap {
			if i != j && skyline.Dominates(snap[j].Vec, snap[i].Vec) {
				dominated = true
				break
			}
		}
		if !dominated {
			keep = append(keep, snap[i])
		}
	}
	res.Skyline = keep
}
