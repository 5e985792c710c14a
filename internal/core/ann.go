package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"roadskyline/internal/geom"
	"roadskyline/internal/graph"
	"roadskyline/internal/pqueue"
	"roadskyline/internal/rtree"
	"roadskyline/internal/sp"
)

// Agg selects the aggregate of an aggregate nearest neighbor query.
type Agg int

const (
	// AggSum minimizes the total network distance to all query points
	// (e.g. total travel for a group meeting).
	AggSum Agg = iota
	// AggMax minimizes the worst single network distance (the fairest
	// meeting point).
	AggMax
)

// String returns the aggregate's name.
func (a Agg) String() string {
	if a == AggMax {
		return "max"
	}
	return "sum"
}

func (a Agg) fold(vec []float64) float64 {
	switch a {
	case AggMax:
		worst := math.Inf(-1)
		for _, v := range vec {
			worst = math.Max(worst, v)
		}
		return worst
	default:
		sum := 0.0
		for _, v := range vec {
			sum += v
		}
		return sum
	}
}

// AggNeighbor is one aggregate nearest neighbor: the object, its network
// distances to the query points, and the aggregated value.
type AggNeighbor struct {
	Object graph.Object
	Dists  []float64
	Agg    float64
}

// AggResult is the answer to an aggregate nearest neighbor query.
type AggResult struct {
	Neighbors []AggNeighbor // ascending aggregate
	Metrics   Metrics
}

// AggregateNN finds the k objects with the smallest aggregate network
// distance to the query points (the aggregate nearest neighbor query of
// the paper's reference [26]), demonstrating the paper's closing claim
// that the path distance lower bound benefits other road-network queries:
//
//   - candidates stream from the object R-tree in ascending aggregate
//     *Euclidean* distance, a lower bound of the aggregate network
//     distance, so the stream can stop as soon as its next key reaches the
//     k-th best exact aggregate found;
//   - each candidate's network distances are bounded from below, first by
//     the searchers' frontier-free bounds and then by the plb values of A*
//     sessions opened one at a time (boundVec.refine), abandoning the
//     candidate as soon as the aggregate of the bounds reaches the current
//     k-th best.
func AggregateNN(ctx context.Context, env *Env, points []graph.Location, k int, agg Agg, opts Options) (*AggResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("core: aggregate NN needs at least one query point")
	}
	if k <= 0 {
		return nil, fmt.Errorf("core: aggregate NN needs k >= 1, got %d", k)
	}
	for i, p := range points {
		if err := env.G.ValidateLocation(p); err != nil {
			return nil, fmt.Errorf("core: query point %d: %w", i, err)
		}
	}
	if opts.ColdCache {
		env.InvalidateCaches()
	}
	env.ResetIO()

	start := time.Now()
	n := len(points)
	qPts := make([]geom.Point, n)
	for i, p := range points {
		qPts[i] = env.G.Point(p)
	}
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
	for i, p := range points {
		a, hit, err := newAStar(ctx, env, opts, p, qPts[i], &m, ts, i)
		if err != nil {
			return nil, err
		}
		astars[i], cacheHits[i] = a, hit
	}
	// best holds the k best exact results as a max-heap (negated keys).
	best := pqueue.New[AggNeighbor](k)
	threshold := func() float64 {
		if best.Len() < k {
			return math.Inf(1)
		}
		return -best.MinKey()
	}

	scratch := make([]float64, n)
	aggEuclid := func(p geom.Point) float64 {
		for i, qp := range qPts {
			scratch[i] = p.Dist(qp)
		}
		return agg.fold(scratch)
	}
	aggEuclidRect := func(r geom.Rect) float64 {
		for i, qp := range qPts {
			scratch[i] = r.MinDist(qp)
		}
		return agg.fold(scratch)
	}
	stream := env.ObjTree.NewBestFirst(
		aggEuclidRect,
		func(e rtree.Entry) float64 { return aggEuclid(e.Point()) },
		func(r geom.Rect) bool { return aggEuclidRect(r) >= threshold() },
		func(e rtree.Entry) bool { return aggEuclid(e.Point()) >= threshold() },
	)

	// Each candidate's distances are bounded cheapest bounds first
	// (boundVec.refine) and abandoned as soon as the aggregate of the bounds,
	// each at its floor, reaches the current k-th best.
	bounds := newBoundVec(astars, n, &m)
	lb := bounds.lb
	beaten := func() bool { return agg.fold(bounds.test()) >= threshold() }
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		entry, key, ok := stream.Next()
		if !ok || key >= threshold() {
			break
		}
		m.Candidates++
		o := env.Objects[graph.ObjectID(entry.ID)]
		exact, err := bounds.refine(sp.Target{Loc: o.Loc, Pt: env.G.Point(o.Loc)}, nil, -1, beaten)
		if err != nil {
			return nil, err
		}
		if !exact {
			continue
		}
		dists := append([]float64(nil), lb...)
		nb := AggNeighbor{Object: o, Dists: dists, Agg: agg.fold(dists)}
		best.Push(nb, -nb.Agg)
		if best.Len() > k {
			best.Pop()
		}
		if m.Initial == 0 {
			m.Initial = time.Since(start)
			m.InitialPages = env.NetworkIO().Misses
		}
	}

	res := &AggResult{Neighbors: make([]AggNeighbor, best.Len())}
	for i := best.Len() - 1; i >= 0; i-- {
		nb, _ := best.Pop()
		res.Neighbors[i] = nb
	}
	putAStarStates(env, opts, astars, cacheHits, ts)
	collectSearcherStats(&m, astars)
	finishMetrics(env, &m, start)
	res.Metrics = m
	return res, nil
}
