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

// Query is a multi-source relative skyline query: find every object whose
// vector of network distances to the query points (optionally extended with
// the object's static attributes) is not dominated by any other object's.
type Query struct {
	// Points are the query locations on the network. At least one.
	Points []graph.Location
	// UseAttrs extends every skyline vector with the objects' static
	// non-spatial attributes (paper Section 4.3's closing remark: static
	// values behave as pre-computed distances).
	UseAttrs bool
}

// Validate checks the query against an environment.
func (q Query) Validate(env *Env) error {
	if len(q.Points) == 0 {
		return fmt.Errorf("core: query needs at least one query point")
	}
	for i, p := range q.Points {
		if err := env.G.ValidateLocation(p); err != nil {
			return fmt.Errorf("core: query point %d: %w", i, err)
		}
	}
	if q.UseAttrs && env.NumAttrs() == 0 {
		return fmt.Errorf("core: UseAttrs set but objects carry no attributes")
	}
	return nil
}

// SkylinePoint is one result: the object, its network distances to the
// query points, and the full skyline vector (distances followed by
// attributes when the query enables them).
type SkylinePoint struct {
	Object graph.Object
	Dists  []float64
	Vec    []float64
}

// Metrics quantifies the work a query performed, mirroring the paper's
// measurements (Section 6).
type Metrics struct {
	// Candidates is |C|: the number of objects the algorithm retrieved as
	// skyline candidates (Figure 4 reports |C|/|D|).
	Candidates int
	// NetworkPages is the number of network-side disk pages faulted in
	// (adjacency pages plus middle-layer pages) — Figures 5(a), 6(a), 6(d).
	NetworkPages int64
	// NetworkGets is the number of logical network page requests.
	NetworkGets int64
	// RTreeNodes is the number of object R-tree nodes visited.
	RTreeNodes int64
	// NodesExpanded is the number of network node settlements.
	NodesExpanded int
	// DistanceComputations counts completed network distance evaluations
	// (query point, object) — partial lower-bound expansions that LBC
	// abandons are not counted.
	DistanceComputations int
	// LandmarkWins and EuclidWins split the landmark (ALT) bound
	// evaluations actually performed by which bound was tighter: the
	// landmark triangle bound or the paper's Euclidean bound. Sessions
	// evaluate the landmark bound lazily (sp.Session), so the sum is the
	// number of evaluations, not frontier nodes times sessions. Both are
	// zero when landmarks are disabled.
	LandmarkWins int
	EuclidWins   int
	// InitialPages is the number of network pages faulted before the first
	// skyline point was determined.
	InitialPages int64
	// DistCacheHits and DistCacheMisses count this query's at-rest lookups
	// in the cross-query wavefront store — one per searcher the query
	// builds, except searchers that shared a concurrent leader's snapshot.
	// Both are zero when the store keeps nothing at rest or when the query
	// runs ColdCache (paper mode).
	DistCacheHits   int
	DistCacheMisses int
	// WavefrontLeads and WavefrontShares count this query's searchers by
	// their in-flight outcome: a lead expanded a wavefront that
	// concurrent queries could subscribe to, a share resumed a concurrent
	// leader's published snapshot instead of expanding its own. Searchers
	// that ran independently (sharing disabled, no concurrent twin, or the
	// deadlock-avoidance bypass) count in neither.
	WavefrontLeads  int
	WavefrontShares int
	// Total is the measured CPU (wall) time of the query.
	Total time.Duration
	// Initial is the measured CPU time until the first skyline point.
	Initial time.Duration
	// IOTime and InitialIOTime are the simulated disk costs
	// (pages x EnvConfig.DiskLatency) of the whole query and of the
	// pre-first-result phase.
	IOTime        time.Duration
	InitialIOTime time.Duration
	// Phases is the per-phase breakdown of the query's work (durations,
	// network pages, node settlements per algorithm stage), in the order
	// the phases were first entered. It is populated only when the query
	// ran with Options.CollectPhases or Options.Trace; nil otherwise.
	Phases []obs.PhaseStat
	// sessionScans counts the A* sessions that boundVec.refine opened with
	// a frontier scan (its phase 2); the package's tests pin that most
	// candidates are decided without one.
	sessionScans int
}

// ResponseTime is the total response time under the simulated disk
// (Figures 5(b), 6(b), 6(e)): measured CPU time plus modeled I/O time.
func (m Metrics) ResponseTime() time.Duration { return m.Total + m.IOTime }

// InitialResponseTime is the time to the first skyline point under the
// simulated disk (Figures 5(c), 6(c), 6(f)).
func (m Metrics) InitialResponseTime() time.Duration { return m.Initial + m.InitialIOTime }

// Result is a query answer with its cost metrics. Skyline points appear in
// the order the algorithm determined them.
type Result struct {
	Skyline []SkylinePoint
	Metrics Metrics
}

// Algorithm identifies one of the paper's query processing strategies.
type Algorithm int

const (
	// AlgCE is the Collaborative Expansion algorithm (paper Section 4.1).
	AlgCE Algorithm = iota
	// AlgEDC is the Euclidean Distance Constraint algorithm (Section 4.2).
	AlgEDC
	// AlgLBC is the Lower-Bound Constraint algorithm (Section 4.3),
	// instance-optimal in network accesses.
	AlgLBC
)

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgCE:
		return "CE"
	case AlgEDC:
		return "EDC"
	case AlgLBC:
		return "LBC"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Options tunes algorithm execution.
type Options struct {
	// ColdCache invalidates every buffer pool before the query so page
	// counts reflect a cold run. Defaults to true in Run.
	ColdCache bool
	// LBCSource selects which query point LBC uses as the source (default
	// 0). Out-of-range values are rejected with an error.
	LBCSource int
	// LBCAlternate retrieves network nearest neighbors from every query
	// point round-robin instead of a single source (the multi-source
	// extension sketched at the end of paper Section 4.3); skyline points
	// near any query point are then reported early.
	LBCAlternate bool
	// DisablePLB makes LBC and EDC compute the full network vector of every
	// candidate instead of abandoning one as soon as its path-distance
	// lower bounds are dominated; used by the path-distance-lower-bound
	// ablation. For EDC this is the paper's algorithm (Section 4.2), which
	// has no such test; the answer is the same either way.
	DisablePLB bool
	// DisableAStarHeuristic zeroes the A* heuristic inside EDC and LBC
	// (degrading their searchers to resumable Dijkstra); used by the
	// directional-expansion ablation.
	DisableAStarHeuristic bool
	// DisableLandmarks keeps the A* heuristic purely Euclidean, ignoring
	// the environment's landmark (ALT) table; used by the landmark
	// ablation. No effect when the environment was built without a table.
	DisableLandmarks bool
	// CollectPhases computes the per-phase breakdown (Metrics.Phases).
	// Results and the work counters are identical either way.
	CollectPhases bool
	// Trace is the query's causal trace: timestamped spans (flight waits
	// naming the leader's trace ID, snapshot restores, phase spans) are
	// appended to it and its live progress cell is kept current as the
	// query runs. Nil — the default — costs one pointer check per event
	// site; results and counters are identical either way.
	Trace *obs.Trace
}

// distCacheFor returns the cross-query wavefront store this query may
// consult and feed, or nil. ColdCache queries bypass it: they must start
// from empty buffer pools, and resuming a stored or a concurrent query's
// wavefront would skip the page faults the paper-mode figures measure.
func distCacheFor(env *Env, opts Options) *distcache.Cache {
	if opts.ColdCache {
		return nil
	}
	return env.DistCache
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
// slot per query point; it is nil when the store does not share. The owner
// defers abort: after putStates every ticket is resolved and it is a
// no-op, on an error or cancellation path it abdicates every held lead so
// a waiting searcher is promoted instead of stalling.
type tickets []*distcache.Ticket

func newTickets(env *Env, opts Options, n int) tickets {
	if !distCacheFor(env, opts).Shares() {
		return nil
	}
	return make(tickets, n)
}

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

// searcher is what a query's wavefront searchers (*sp.AStar, *sp.Dijkstra)
// share: the lifecycle below is written once over it.
type searcher interface {
	comparable
	Snapshot() *distcache.State
	NodesExpanded() int
	Scratch() *sp.Scratch
}

// resumeOrSeed builds searcher idx of a query, rooted at p. Its one
// Acquire on the wavefront store either waits on a concurrent leader and
// resumes its snapshot (a share), or reads the at-rest half — leading the
// key's in-flight entry unless that is a bypass, the ticket landing in ts
// for putStates/abort to resolve — and resumes a resident hit; otherwise
// the searcher seeds afresh. resumed reports whether it resumed.
//
// With a trace attached, a wait becomes a flight.wait span naming the
// leader's trace ID, and the trace's live role follows the outcome
// (wait -> lead/share).
func resumeOrSeed[S searcher](ctx context.Context, env *Env, opts Options, kind distcache.Kind, flavor uint8, p graph.Location, m *Metrics, ts tickets, idx int,
	resume func(*distcache.State, *sp.Scratch) S, seed func(*sp.Scratch) (S, error)) (s S, resumed bool, err error) {
	tr := opts.Trace
	j := distCacheFor(env, opts).Acquire(kind, flavor, p, !ts.leading(), tr.IDNum())
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
			return s, false, err
		}
		if j.Ticket == nil {
			m.WavefrontShares++
			tr.SetRole(obs.RoleShare)
		}
	}
	if j.Ticket != nil {
		m.WavefrontLeads++
		ts[idx] = j.Ticket
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
		s = resume(j.State, sc)
		tr.SpanSince(obs.SpanRestore, t0)
		return s, true, nil
	}
	if s, err = seed(sc); err != nil {
		env.ReleaseScratch(sc)
		var none S
		return none, false, err
	}
	return s, false, nil
}

// newAStar builds one A* searcher for a query point with opts applied: the
// heuristic is zeroed for the directional-expansion ablation, and the
// environment's landmark table is attached otherwise (unless ablated).
func newAStar(ctx context.Context, env *Env, opts Options, p graph.Location, pt geom.Point, m *Metrics, ts tickets, idx int) (*sp.AStar, bool, error) {
	a, hit, err := resumeOrSeed(ctx, env, opts, distcache.KindAStar, astarFlavor(env, opts), p, m, ts, idx,
		func(st *distcache.State, sc *sp.Scratch) *sp.AStar { return sp.NewAStarFromWith(ctx, env, st, pt, sc) },
		func(sc *sp.Scratch) (*sp.AStar, error) { return sp.NewAStarWith(ctx, env, p, pt, sc) })
	if err != nil {
		return nil, false, err
	}
	if opts.DisableAStarHeuristic {
		a.DisableHeuristic()
	}
	if hs := env.HeuristicSource(opts); hs != nil {
		a.UseHeuristicSource(hs)
	}
	return a, hit, nil
}

// newDijkstra builds one Dijkstra wavefront for a query point.
func newDijkstra(ctx context.Context, env *Env, opts Options, p graph.Location, m *Metrics, ts tickets, idx int) (*sp.Dijkstra, bool, error) {
	return resumeOrSeed(ctx, env, opts, distcache.KindDijkstra, 0, p, m, ts, idx,
		func(st *distcache.State, sc *sp.Scratch) *sp.Dijkstra {
			return sp.NewDijkstraFromWith(ctx, env, st, sc)
		},
		func(sc *sp.Scratch) (*sp.Dijkstra, error) { return sp.NewDijkstraWith(ctx, env, p, sc) })
}

// releaseSearchers recycles the scratches of a query's searchers. Safe on
// slices with nil holes; the searchers must not be used afterward.
func releaseSearchers[S searcher](env *Env, searchers []S) {
	var none S
	for _, s := range searchers {
		if s != none {
			env.ReleaseScratch(s.Scratch())
		}
	}
}

// putStates resolves each searcher's final wavefront on successful query
// completion: the snapshot is stored at rest (unless the searcher resumed
// a state and settled nothing new — its snapshot would equal the one it
// came from) and published to any searchers waiting on its ticket. The
// snapshot is only taken when someone wants it; a ticket nobody waits on
// is abdicated for free.
func putStates[S searcher](env *Env, opts Options, kind distcache.Kind, flavor uint8, searchers []S, hits []bool, ts tickets) {
	c := distCacheFor(env, opts)
	if c == nil {
		return
	}
	var none S
	for i, s := range searchers {
		tk := ts.at(i)
		if s == none {
			tk.Abort()
			continue
		}
		keep := c.Keeps() && !(hits[i] && s.NodesExpanded() == 0)
		if !keep && tk.Abdicate() {
			continue
		}
		st := s.Snapshot()
		if tk == nil {
			c.Put(kind, flavor, st)
		} else {
			tk.Publish(st, keep)
		}
	}
}

// putAStarStates is putStates for A* searchers, under the flavor of the
// query's heuristic configuration.
func putAStarStates(env *Env, opts Options, astars []*sp.AStar, hits []bool, ts tickets) {
	putStates(env, opts, distcache.KindAStar, astarFlavor(env, opts), astars, hits, ts)
}

// dedupeQuery collapses duplicate (edge, offset) query points so the
// algorithms build one searcher (and one vector dimension) per distinct
// location — the intra-query half of wavefront sharing. It returns the
// deduplicated query, opts with LBCSource remapped into the unique space,
// and the full→unique index mapping; a nil mapping means the points were
// already distinct and q and opts are unchanged. Duplicating a vector
// coordinate for every object preserves the dominance order exactly, so
// the skyline over the unique space, expanded back through the mapping
// (expandSkyline), equals the skyline over the original points.
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

// expandPoint rewrites a skyline point computed in deduplicated
// query-point space back into the caller's original point list: distance
// dimension i of the result is the unique-space distance mapping[i] points
// at, with the attribute dimensions carried over unchanged.
func expandPoint(p SkylinePoint, mapping []int) SkylinePoint {
	uniq := len(p.Dists)
	attrs := p.Vec[uniq:]
	vec := make([]float64, len(mapping)+len(attrs))
	for i, j := range mapping {
		vec[i] = p.Dists[j]
	}
	copy(vec[len(mapping):], attrs)
	p.Dists = vec[:len(mapping):len(mapping)]
	p.Vec = vec
	return p
}

// expandSkyline applies expandPoint to every reported point; a nil
// mapping (no duplicates) is a no-op.
func expandSkyline(res *Result, mapping []int) {
	if mapping == nil || res == nil {
		return
	}
	for i, p := range res.Skyline {
		res.Skyline[i] = expandPoint(p, mapping)
	}
}

// collectSearcherStats folds the per-searcher counters into the metrics.
func collectSearcherStats(m *Metrics, astars []*sp.AStar) {
	for _, a := range astars {
		m.NodesExpanded += a.NodesExpanded()
		lw, ew := a.BoundWins()
		m.LandmarkWins += lw
		m.EuclidWins += ew
	}
}

// Run executes the query with the chosen algorithm. Each call resets the
// I/O counters; with opts.ColdCache (the default via RunDefault) it also
// drops the buffer pools first.
//
// The context bounds the query: cancellation or deadline expiry aborts the
// expansion loops of all three algorithms and returns ctx.Err(). An
// already-cancelled context returns immediately without touching the
// environment. A nil context means context.Background().
//
// On error the Result may still be non-nil: once an algorithm's searchers
// are running, a failed or cancelled query returns a *Result whose Metrics
// account the work performed up to the abort (with an empty or partial
// Skyline that must not be used as an answer). Callers that only care
// about success can keep treating a non-nil error as "no result"; cost
// observers read res.Metrics when res != nil.
func Run(ctx context.Context, env *Env, q Query, alg Algorithm, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := q.Validate(env); err != nil {
		return nil, err
	}
	if opts.ColdCache {
		env.InvalidateCaches()
	}
	env.ResetIO()
	// Duplicate query points collapse to one searcher each; reported
	// points are expanded back to the caller's point list afterward. LBC
	// delegates: its iterator dedupes internally (NewLBCIterator is also a
	// public entry point), expanding each point as it is yielded.
	switch alg {
	case AlgCE:
		dq, dopts, mapping := dedupeQuery(q, opts)
		res, err := ce(ctx, env, dq, dopts)
		expandSkyline(res, mapping)
		return res, err
	case AlgEDC:
		dq, dopts, mapping := dedupeQuery(q, opts)
		res, err := edc(ctx, env, dq, dopts)
		expandSkyline(res, mapping)
		return res, err
	case AlgLBC:
		return lbc(ctx, env, q, opts)
	default:
		return nil, fmt.Errorf("core: unknown algorithm %d", int(alg))
	}
}

// RunDefault executes the query cold-cache with default options and no
// cancellation.
func RunDefault(env *Env, q Query, alg Algorithm) (*Result, error) {
	return Run(context.Background(), env, q, alg, Options{ColdCache: true})
}

// finishMetrics fills the I/O counters shared by all algorithms.
func finishMetrics(env *Env, m *Metrics, start time.Time) {
	io := env.NetworkIO()
	m.NetworkPages = io.Misses
	m.NetworkGets = io.Gets
	m.RTreeNodes = env.ObjTree.NodeAccesses()
	m.Total = time.Since(start)
	if m.Initial == 0 {
		m.Initial = m.Total
		m.InitialPages = m.NetworkPages
	}
	m.IOTime = time.Duration(m.NetworkPages) * env.diskLatency
	m.InitialIOTime = time.Duration(m.InitialPages) * env.diskLatency
}
