package core

import (
	"context"

	"roadskyline/internal/graph"
	"roadskyline/internal/obs"
	"roadskyline/internal/skyline"
)

// LBCIterator reports network skyline points progressively, nearest (to
// the source query points) first — the incremental interface the paper
// motivates at the end of Section 4.3: applications with user preferences
// consume results as they are determined instead of waiting for the full
// skyline. The batch LBC algorithm is this iterator drained to exhaustion.
type LBCIterator struct {
	*frame  // the query's run: searchers, tickets, metrics; finalize ends it
	skyVecs [][]float64

	sources   []int
	streams   []*nnStream
	done      []bool
	remaining int
	cursor    int
	processed map[graph.ObjectID]bool
	confirmed map[graph.ObjectID]bool
	bounds    *boundVec   // check's per-candidate lower-bound vector, reused
	dominated func() bool // check's stop rule: the known skyline dominates bounds.test()
	lastErr   error
}

// NewLBCIterator validates the query and prepares the incremental LBC
// machinery. Like Run, it resets the environment's I/O counters (and drops
// caches when opts.ColdCache is set): the iterator owns the environment
// until it is exhausted or abandoned. The context bounds the whole
// iteration; once it is cancelled, Next fails with ctx.Err(). A nil context
// means context.Background().
func NewLBCIterator(ctx context.Context, env *Env, q Query, opts Options) (*LBCIterator, error) {
	f, err := newFrame(ctx, env, q, AlgLBC, opts)
	if err != nil {
		return nil, err
	}
	return newLBCIterator(f), nil
}

// newLBCIterator starts LBC's phase logic on a seeded frame, which the
// iterator then owns: finalize ends and releases it.
func newLBCIterator(f *frame) *LBCIterator {
	it := &LBCIterator{frame: f}
	if it.opts.LBCAlternate {
		it.sources = make([]int, it.n)
		for i := range it.sources {
			it.sources[i] = i
		}
	} else {
		it.sources = []int{it.opts.LBCSource}
	}
	it.streams = make([]*nnStream, len(it.sources))
	for i, src := range it.sources {
		it.streams[i] = newNNStream(it.env, it.q, it.qPts, src, it.searchers, &it.skyVecs)
	}
	it.done = make([]bool, len(it.sources))
	it.remaining = len(it.sources)
	it.processed = make(map[graph.ObjectID]bool)
	it.confirmed = make(map[graph.ObjectID]bool)
	it.initBounds()
	return it
}

// initBounds prepares check's bound vector and its stop rule.
func (it *LBCIterator) initBounds() {
	it.bounds = newBoundVec(it.searchers, it.dims, &it.m)
	it.bounds.runOut = it.opts.DisablePLB
	it.dominated = func() bool { return skyline.DominatedBy(it.bounds.test(), it.skyVecs) }
}

// Next determines and returns the next skyline point. ok is false when the
// skyline is exhausted or the iterator has been closed; exhaustion
// finalizes the iterator (see Close). After a failed Next, later calls
// keep returning the same error.
func (it *LBCIterator) Next() (SkylinePoint, bool, error) {
	if it.finished {
		return SkylinePoint{}, false, it.lastErr
	}
	for it.remaining > 0 {
		// The A* searchers check cancellation every K settlements; the
		// per-candidate check here covers candidates that resolve without
		// expansion (settled-endpoints shortcut).
		if err := it.ctx.Err(); err != nil {
			it.lastErr = err
			return SkylinePoint{}, false, err
		}
		for it.done[it.cursor] {
			it.cursor = (it.cursor + 1) % len(it.sources)
		}
		si := it.cursor
		it.cursor = (it.cursor + 1) % len(it.sources)

		it.probe.begin(obs.PhaseLBCNN)
		cand, ok, err := it.streams[si].next()
		it.probe.end()
		if err != nil {
			it.lastErr = err
			return SkylinePoint{}, false, err
		}
		if !ok {
			it.done[si] = true
			it.remaining--
			continue
		}
		it.confirmed[cand.id] = true
		if it.processed[cand.id] {
			continue
		}
		it.processed[cand.id] = true

		it.probe.begin(obs.PhaseLBCProbe)
		point, isSkyline, err := it.check(it.sources[si], cand)
		it.probe.end()
		if err != nil {
			it.lastErr = err
			return SkylinePoint{}, false, err
		}
		if isSkyline {
			return it.report(point), true, nil
		}
	}
	it.finalize()
	return SkylinePoint{}, false, nil
}

// check runs LBC step 2 for one candidate: path-distance-lower-bound
// driven dominance testing against the known skyline, cheapest bounds first
// (boundVec.refine), starting from the target and the frontier-free bounds
// the stream prepared when it confirmed the candidate.
func (it *LBCIterator) check(src int, cand srcCand) (SkylinePoint, bool, error) {
	o := it.env.Objects[cand.id]
	lb := it.bounds.lb
	lb[src] = cand.dist
	it.env.fillAttrs(lb, it.n, cand.id, it.q.UseAttrs)
	exact, err := it.bounds.refine(cand.target, cand.bounds, src, it.dominated)
	// All distances exact and undominated. An object no query point reaches
	// is still not a skyline point — CE never even admits one (no wavefront
	// reaches it) — but its all-+Inf vector is not dominated by other
	// all-+Inf vectors, so an all-unreachable object set would otherwise be
	// reported wholesale.
	if err != nil || !exact || unreachableVec(lb, it.n) {
		return SkylinePoint{}, false, err
	}
	vec := make([]float64, it.dims)
	copy(vec, lb)
	it.skyVecs = append(it.skyVecs, vec)
	return SkylinePoint{
		Object: o,
		Dists:  vec[:it.n:it.n],
		Vec:    vec,
	}, true, nil
}

// tally folds the counters LBC keeps itself into m: the candidates its
// streams confirmed and their source distances.
func (it *LBCIterator) tally(m *Metrics) {
	m.Candidates = len(it.confirmed)
	for _, s := range it.streams {
		m.DistanceComputations += s.confirmed
	}
}

// finalize ends the iteration once: the metrics freeze and the trace's
// phases close, a cleanly finished iteration feeds the distance cache (a
// cancelled or failed one does not), and the searchers and NN streams are
// released. Next calls it on exhaustion and Close on abandonment.
func (it *LBCIterator) finalize() {
	if it.finished {
		return
	}
	it.tally(&it.m)
	it.finish(it.lastErr == nil)
	it.release()
	it.streams = nil
	it.remaining = 0
}

// Close finalizes an iterator that is being abandoned before exhaustion:
// metrics freeze where the iteration stopped, the trace's query span ends,
// the searchers and NN streams are released, and a subsequent query on the
// same environment starts from clean counters. Close is idempotent and
// unnecessary (but harmless) after Next has reported exhaustion. After
// Close, Next reports exhaustion.
func (it *LBCIterator) Close() { it.finalize() }

// Metrics returns the iterator's cost counters: the frozen final metrics
// once the iterator is exhausted or closed, otherwise a live snapshot of
// the work performed so far (phase breakdowns are only computed at
// finalization).
func (it *LBCIterator) Metrics() Metrics {
	if it.finished {
		return it.m
	}
	m := it.m
	it.tally(&m)
	return it.live(m)
}
