package core

import (
	"context"
	"fmt"
	"time"

	"roadskyline/internal/graph"
	"roadskyline/internal/obs"
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
	// lower bounds are dominated, and makes CE complete its candidates by
	// expanding its wavefronts instead of settling them bounds-first once
	// admission closes; used by the path-distance-lower-bound ablation. For
	// CE and EDC this is the paper's algorithm (Sections 4.1 and 4.2); the
	// answer is the same either way.
	DisablePLB bool
	// DisableAStarHeuristic zeroes the A* heuristic inside EDC and LBC and
	// in CE's bounds-first refinement (degrading their searchers to
	// resumable Dijkstra); used by the directional-expansion ablation.
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

// Run executes the query with the chosen algorithm. Each call resets the
// I/O counters; with opts.ColdCache it also drops the buffer pools first.
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
	f, err := newFrame(ctx, env, q, alg, opts)
	if err != nil {
		return nil, err
	}
	defer f.release()
	switch alg {
	case AlgCE:
		return ce(f)
	case AlgEDC:
		return edc(f)
	default:
		return lbc(f)
	}
}
