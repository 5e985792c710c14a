package core

import (
	"context"
	"fmt"
	"time"

	"roadskyline/internal/distcache"
	"roadskyline/internal/geom"
	"roadskyline/internal/graph"
	"roadskyline/internal/obs"
	"roadskyline/internal/sp"
)

// frame is one query's run lifecycle, the part CE, EDC and LBC share;
// the algorithms keep only their phase logic. newFrame is the preamble and
// seeds one searcher per distinct query point through the wavefront store;
// report stamps the first result; fail, succeed and, for LBC's iterator,
// finish end the query; release hands its tickets and scratches back.
type frame struct {
	ctx   context.Context
	env   *Env
	q     Query   // one point per distinct location (dedupeQuery)
	opts  Options // LBCSource remapped into q's points
	start time.Time
	n     int // len(q.Points)
	dims  int // vector dimensions: n distances, then the attributes compared
	qPts  []geom.Point
	// mapping expands reported points back to the caller's point list; nil
	// when the points were already distinct.
	mapping []int

	// The searchers' key in the wavefront store, decided once per query:
	// CE's object-mode Dijkstra wavefronts, or A* under the query's
	// heuristic configuration. cache is nil when the query may not use the
	// store (ColdCache: paper-mode runs must start from empty buffer pools,
	// and resuming another query's wavefront would skip the page faults the
	// paper's figures measure).
	kind   distcache.Kind
	flavor uint8
	heur   sp.HeuristicSource
	cache  *distcache.Cache

	searchers []*sp.AStar
	resumed   []bool // searcher i resumed a stored or shared wavefront
	ts        tickets
	probe     *phaseProbe
	m         Metrics
	finished  bool
}

// newFrame is the preamble of every query: it checks the context and the
// query, drops the buffer pools under ColdCache and resets the I/O
// counters, collapses duplicate query points, and seeds the searchers. On
// error nothing is left to release.
func newFrame(ctx context.Context, env *Env, q Query, alg Algorithm, opts Options) (*frame, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := q.Validate(env); err != nil {
		return nil, err
	}
	switch alg {
	case AlgCE, AlgEDC:
	case AlgLBC:
		if !opts.LBCAlternate && (opts.LBCSource < 0 || opts.LBCSource >= len(q.Points)) {
			return nil, fmt.Errorf("core: LBCSource %d out of range for %d query points", opts.LBCSource, len(q.Points))
		}
	default:
		return nil, fmt.Errorf("core: unknown algorithm %d", int(alg))
	}
	if opts.ColdCache {
		env.InvalidateCaches()
	}
	env.ResetIO()

	q, opts, mapping := dedupeQuery(q, opts)
	f := &frame{
		ctx:     ctx,
		env:     env,
		q:       q,
		opts:    opts,
		start:   time.Now(),
		n:       len(q.Points),
		dims:    env.vectorDims(len(q.Points), q.UseAttrs),
		qPts:    make([]geom.Point, len(q.Points)),
		mapping: mapping,
		kind:    distcache.KindDijkstra,
	}
	for i, p := range q.Points {
		f.qPts[i] = env.G.Point(p)
	}
	if alg != AlgCE {
		f.kind, f.flavor, f.heur = distcache.KindAStar, astarFlavor(env, opts), env.HeuristicSource(opts)
	}
	if !opts.ColdCache {
		f.cache = env.DistCache
	}
	if err := f.seed(); err != nil {
		f.release()
		return nil, err
	}
	return f, nil
}

// A* cache flavors: wavefronts expanded under different heuristic
// configurations are cached separately so an ablation run never resumes
// state expanded under the configuration it is ablating (distances would
// still be exact, but expansion and heuristic-win counters would mix
// configurations).
const (
	flavorEuclid uint8 = iota
	flavorNoHeur
	flavorLandmarks
)

// astarFlavor encodes the heuristic configuration an A* searcher runs with
// under opts.
func astarFlavor(env *Env, opts Options) uint8 {
	switch {
	case opts.DisableAStarHeuristic:
		return flavorNoHeur
	case env.HeuristicSource(opts) != nil:
		return flavorLandmarks
	default:
		return flavorEuclid
	}
}

// tickets holds one query's leadership tickets in the wavefront store, one
// slot per query point; it is nil when the store does not share. After
// putStates every ticket is resolved; on an error or cancellation path
// release abdicates every held lead so a waiting searcher is promoted
// instead of stalling.
type tickets []*distcache.Ticket

// leading reports whether the query already holds any ticket. A leading
// query must never wait on a foreign leader: wait-for edges then only run
// from queries owning no keys to leaders that never block, which is what
// keeps sharing deadlock-free.
func (ts tickets) leading() bool {
	for _, t := range ts {
		if t != nil {
			return true
		}
	}
	return false
}

// at returns slot i's ticket; nil when the store does not share or the
// searcher leads nothing.
func (ts tickets) at(i int) *distcache.Ticket {
	if ts == nil {
		return nil
	}
	return ts[i]
}

// abort abdicates every unresolved ticket (idempotent, safe after
// putStates).
func (ts tickets) abort() {
	for _, t := range ts {
		t.Abort()
	}
}

// seed builds one searcher per query point, in point order; on error the
// searchers built so far are left for release. A* searchers get the
// query's heuristic configuration: the heuristic zeroed for the
// directional-expansion ablation, the environment's landmark table
// attached otherwise (unless ablated).
func (f *frame) seed() error {
	f.searchers, f.resumed = make([]*sp.AStar, f.n), make([]bool, f.n)
	if f.cache.Shares() {
		f.ts = make(tickets, f.n)
	}
	for i := range f.q.Points {
		s, resumed, err := f.join(i)
		if err != nil {
			return err
		}
		if f.kind == distcache.KindAStar {
			if f.opts.DisableAStarHeuristic {
				s.DisableHeuristic()
			}
			if f.heur != nil {
				s.UseHeuristicSource(f.heur)
			}
		}
		f.searchers[i], f.resumed[i] = s, resumed
	}
	f.probe = newPhaseProbe(f.env, f.opts, f.searchers)
	return nil
}

// join builds searcher i, rooted at query point i. Its one Acquire on the
// wavefront store either waits on a concurrent leader and resumes its
// snapshot (a share), or reads the at-rest half — leading the key's
// in-flight entry unless that is a bypass, the ticket landing in f.ts for
// putStates/release to resolve — and resumes a resident hit; otherwise the
// searcher seeds afresh. resumed reports whether it resumed.
//
// With a trace attached, a wait becomes a flight.wait span naming the
// leader's trace ID, and the trace's live role follows the outcome
// (wait -> lead/share).
func (f *frame) join(i int) (s *sp.AStar, resumed bool, err error) {
	ctx, env, m, p := f.ctx, f.env, &f.m, f.q.Points[i]
	tr := f.opts.Trace
	j := f.cache.Acquire(f.kind, f.flavor, p, !f.ts.leading(), tr.IDNum())
	if w := j.Waiter; w != nil {
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
			tr.SetWaiting(w.Key(), obs.TraceID(w.LeaderTrace()))
		}
		j, err = w.Wait(ctx)
		if tr != nil {
			tr.AddSpan(obs.Span{
				Name:  obs.SpanFlightWait,
				Start: t0,
				Dur:   time.Since(t0),
				Ref:   obs.TraceID(w.LeaderTrace()).String(),
				Key:   w.Key(),
			})
		}
		if err != nil {
			return nil, false, err
		}
		if j.Ticket == nil {
			m.WavefrontShares++
			tr.SetRole(obs.RoleShare)
		}
	}
	if j.Ticket != nil {
		m.WavefrontLeads++
		f.ts[i] = j.Ticket
		tr.SetRole(obs.RoleLead)
	}
	switch j.Found {
	case distcache.Hit:
		m.DistCacheHits++
	case distcache.Miss:
		m.DistCacheMisses++
	}
	sc := env.AcquireScratch()
	if j.State != nil {
		t0 := tr.Stopwatch()
		if f.kind == distcache.KindDijkstra {
			s = sp.NewDijkstraFromWith(ctx, env, j.State, sc)
		} else {
			s = sp.NewAStarFromWith(ctx, env, j.State, f.qPts[i], sc)
		}
		tr.SpanSince(obs.SpanRestore, t0)
		return s, true, nil
	}
	if f.kind == distcache.KindDijkstra {
		s, err = sp.NewDijkstraWith(ctx, env, p, sc)
	} else {
		s, err = sp.NewAStarWith(ctx, env, p, f.qPts[i], sc)
	}
	if err != nil {
		env.ReleaseScratch(sc)
		return nil, false, err
	}
	return s, false, nil
}

// report stamps the query's first result and returns p in the caller's
// point space: distance dimension i is the deduplicated distance
// mapping[i] points at, the attribute dimensions carried over unchanged.
func (f *frame) report(p SkylinePoint) SkylinePoint {
	if f.m.Initial == 0 {
		f.m.Initial = time.Since(f.start)
		f.m.InitialPages = f.env.pagesFaulted()
	}
	if f.mapping == nil {
		return p
	}
	uniq := len(p.Dists)
	attrs := p.Vec[uniq:]
	vec := make([]float64, len(f.mapping)+len(attrs))
	for i, j := range f.mapping {
		vec[i] = p.Dists[j]
	}
	copy(vec[len(f.mapping):], attrs)
	p.Dists = vec[:len(f.mapping):len(f.mapping)]
	p.Vec = vec
	return p
}

// fail ends a failed or cancelled query: the metrics account the work
// performed up to the abort, so observers (the flight recorder, slow-query
// logs) can see it, and the wavefront store is not fed.
func (f *frame) fail(err error) (*Result, error) {
	f.finish(false)
	return &Result{Metrics: f.m}, err
}

// succeed ends a query that ran to completion with its answer.
func (f *frame) succeed(res *Result) (*Result, error) {
	f.finish(true)
	res.Metrics = f.m
	return res, nil
}

// finish freezes the metrics and closes the phase breakdown; a query that
// ran to completion (ok) first resolves its wavefronts in the store. It
// runs once.
func (f *frame) finish(ok bool) {
	if ok {
		f.putStates()
	}
	f.m = f.live(f.m)
	f.probe.finish(&f.m)
	f.finished = true
}

// live returns m with the searchers' counters and the I/O counters folded
// in: the final metrics at finish, a snapshot of an unfinished query
// otherwise.
func (f *frame) live(m Metrics) Metrics {
	for _, s := range f.searchers {
		m.NodesExpanded += s.NodesExpanded()
		lw, ew := s.BoundWins()
		m.LandmarkWins += lw
		m.EuclidWins += ew
	}
	io := f.env.NetworkIO()
	m.NetworkPages = io.Misses
	m.NetworkGets = io.Gets
	m.RTreeNodes = f.env.ObjTree.NodeAccesses()
	m.Total = time.Since(f.start)
	if m.Initial == 0 {
		m.Initial = m.Total
		m.InitialPages = m.NetworkPages
	}
	m.IOTime = time.Duration(m.NetworkPages) * f.env.diskLatency
	m.InitialIOTime = time.Duration(m.InitialPages) * f.env.diskLatency
	return m
}

// putStates resolves each searcher's final wavefront: the snapshot is
// stored at rest (unless the searcher resumed a state and settled nothing
// new — its snapshot would equal the one it came from) and published to
// any searchers waiting on its ticket. The snapshot is only taken when
// someone wants it; a ticket nobody waits on is abdicated for free.
func (f *frame) putStates() {
	c := f.cache
	if c == nil {
		return
	}
	for i, s := range f.searchers {
		tk := f.ts.at(i)
		keep := c.Keeps() && !(f.resumed[i] && s.NodesExpanded() == 0)
		if !keep && tk.Abdicate() {
			continue
		}
		st := s.Snapshot()
		if tk == nil {
			c.Put(f.kind, f.flavor, st)
		} else {
			tk.Publish(st, keep)
		}
	}
}

// release abdicates every ticket left unresolved (none after putStates),
// so waiting subscribers are promoted, then recycles the searchers'
// scratches; snapshots for the store are deep copies taken before. It is
// idempotent, and the searchers must not be used afterward.
func (f *frame) release() {
	f.ts.abort()
	for _, s := range f.searchers {
		if s != nil {
			f.env.ReleaseScratch(s.Scratch())
		}
	}
	f.searchers = nil
}

// dedupeQuery collapses duplicate (edge, offset) query points so the
// algorithms build one searcher (and one vector dimension) per distinct
// location — the intra-query half of wavefront sharing. It returns the
// deduplicated query, opts with LBCSource remapped into the unique space,
// and the full→unique index mapping; a nil mapping means the points were
// already distinct and q and opts are unchanged. Duplicating a vector
// coordinate for every object preserves the dominance order exactly, so
// the skyline over the unique space, each point expanded back through the
// mapping (frame.report), equals the skyline over the original points.
func dedupeQuery(q Query, opts Options) (Query, Options, []int) {
	seen := make(map[graph.Location]int, len(q.Points))
	mapping := make([]int, len(q.Points))
	var uniq []graph.Location
	for i, p := range q.Points {
		j, ok := seen[p]
		if !ok {
			j = len(uniq)
			seen[p] = j
			uniq = append(uniq, p)
		}
		mapping[i] = j
	}
	if len(uniq) == len(q.Points) {
		return q, opts, nil
	}
	q.Points = uniq
	if !opts.LBCAlternate && opts.LBCSource >= 0 && opts.LBCSource < len(mapping) {
		opts.LBCSource = mapping[opts.LBCSource]
	}
	return q, opts, mapping
}
