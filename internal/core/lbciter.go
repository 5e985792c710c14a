package core

import (
	"context"
	"fmt"
	"time"

	"roadskyline/internal/geom"
	"roadskyline/internal/graph"
	"roadskyline/internal/obs"
	"roadskyline/internal/skyline"
	"roadskyline/internal/sp"
)

// LBCIterator reports network skyline points progressively, nearest (to
// the source query points) first — the incremental interface the paper
// motivates at the end of Section 4.3: applications with user preferences
// consume results as they are determined instead of waiting for the full
// skyline. The batch LBC algorithm is this iterator drained to exhaustion.
type LBCIterator struct {
	ctx   context.Context
	env   *Env
	q     Query
	opts  Options
	start time.Time

	n       int
	dims    int
	qPts    []geom.Point
	astars  []*sp.AStar
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

	probe     *phaseProbe
	metrics   Metrics
	cacheHits []bool
	ts        tickets
	// mapping expands skyline points from deduplicated query-point space
	// back to the caller's original point list; nil when the points were
	// already distinct.
	mapping  []int
	finished bool
	lastErr  error
}

// NewLBCIterator validates the query and prepares the incremental LBC
// machinery. Like Run, it resets the environment's I/O counters (and drops
// caches when opts.ColdCache is set): the iterator owns the environment
// until it is exhausted or abandoned. The context bounds the whole
// iteration; once it is cancelled, Next fails with ctx.Err(). A nil context
// means context.Background().
func NewLBCIterator(ctx context.Context, env *Env, q Query, opts Options) (*LBCIterator, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := q.Validate(env); err != nil {
		return nil, err
	}
	if !opts.LBCAlternate && (opts.LBCSource < 0 || opts.LBCSource >= len(q.Points)) {
		return nil, fmt.Errorf("core: LBCSource %d out of range for %d query points", opts.LBCSource, len(q.Points))
	}
	if opts.ColdCache {
		env.InvalidateCaches()
	}
	env.ResetIO()

	// Dedupe after validation (LBCSource is validated against the
	// caller's point list); yielded points expand back through the
	// mapping in Next.
	q, opts, mapping := dedupeQuery(q, opts)
	it := &LBCIterator{
		ctx:     ctx,
		env:     env,
		q:       q,
		opts:    opts,
		start:   time.Now(),
		n:       len(q.Points),
		mapping: mapping,
	}
	it.dims = env.vectorDims(it.n, q.UseAttrs)
	it.qPts = make([]geom.Point, it.n)
	for i, p := range q.Points {
		it.qPts[i] = env.G.Point(p)
	}
	it.astars = make([]*sp.AStar, it.n)
	it.cacheHits = make([]bool, it.n)
	it.ts = newTickets(env, opts, it.n)
	for i, p := range q.Points {
		a, hit, err := newAStar(ctx, env, opts, p, it.qPts[i], &it.metrics, it.ts, i)
		if err != nil {
			it.ts.abort()
			releaseSearchers(env, it.astars)
			return nil, err
		}
		it.astars[i], it.cacheHits[i] = a, hit
	}
	it.probe = newPhaseProbe(env, opts, func() int {
		total := 0
		for _, a := range it.astars {
			total += a.NodesExpanded()
		}
		return total
	})
	if fn := it.probe.progressFunc(); fn != nil {
		for _, a := range it.astars {
			a.OnProgress(fn)
		}
	}
	if opts.LBCAlternate {
		it.sources = make([]int, it.n)
		for i := range it.sources {
			it.sources[i] = i
		}
	} else {
		it.sources = []int{opts.LBCSource}
	}
	it.streams = make([]*nnStream, len(it.sources))
	for i, src := range it.sources {
		it.streams[i] = newNNStream(env, q, it.qPts, src, it.astars, &it.skyVecs)
	}
	it.done = make([]bool, len(it.sources))
	it.remaining = len(it.sources)
	it.processed = make(map[graph.ObjectID]bool)
	it.confirmed = make(map[graph.ObjectID]bool)
	it.initBounds()
	return it, nil
}

// initBounds prepares check's bound vector and its stop rule.
func (it *LBCIterator) initBounds() {
	it.bounds = newBoundVec(it.astars, it.dims, &it.metrics)
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
			if it.metrics.Initial == 0 {
				it.metrics.Initial = time.Since(it.start)
				it.metrics.InitialPages = it.env.pagesFaulted()
			}
			if it.mapping != nil {
				point = expandPoint(point, it.mapping)
			}
			return point, true, nil
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

// accumulate folds the iteration-dependent counters into m.
func (it *LBCIterator) accumulate(m *Metrics) {
	m.Candidates = len(it.confirmed)
	for _, s := range it.streams {
		m.DistanceComputations += s.confirmed
	}
	collectSearcherStats(m, it.astars)
}

// finalize freezes the metrics, closes the trace, feeds the distance cache
// and releases the searchers and NN streams. It runs once; Next calls it on
// exhaustion and Close calls it on abandonment.
func (it *LBCIterator) finalize() {
	if it.finished {
		return
	}
	it.finished = true
	it.accumulate(&it.metrics)
	// Only a cleanly finished iteration feeds the cache: the wavefronts of
	// a cancelled or failed query are released without being stored.
	if it.lastErr == nil {
		putAStarStates(it.env, it.opts, it.astars, it.cacheHits, it.ts)
	}
	// A failed or cancelled iteration never published: abort abdicates any
	// leadership tickets so waiting subscribers are promoted (a no-op after
	// putAStarStates publishes).
	it.ts.abort()
	finishMetrics(it.env, &it.metrics, it.start)
	it.probe.finish(&it.metrics)
	// The cache snapshots above are deep copies, so the scratches can go
	// back to the pool before the searchers are dropped.
	releaseSearchers(it.env, it.astars)
	it.astars = nil
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
		return it.metrics
	}
	m := it.metrics
	it.accumulate(&m)
	finishMetrics(it.env, &m, it.start)
	return m
}
