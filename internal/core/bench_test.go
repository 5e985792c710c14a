package core

import (
	"cmp"
	"context"
	"slices"
	"testing"

	"roadskyline/internal/distcache"
	"roadskyline/internal/gen"
	"roadskyline/internal/geom"
	"roadskyline/internal/graph"
	"roadskyline/internal/skyline"
	"roadskyline/internal/sp"
)

// BenchmarkLBCCheck times LBC's step 2 alone: the dominance check of the
// next candidates of a query that is already under way — |Q| = 3 on NA at
// 0.6 with landmarks, the searchers' wavefronts 400 settled nodes wide on
// average (which takes a skyline of some 60 points). A donor iterator runs
// to that state and draws the next candidates; each iteration restores the
// wavefronts from the donor's snapshots and checks the same candidates
// against the same skyline, so bounds, session opens and the few advances
// are on the clock and the NN stream is not.
func BenchmarkLBCCheck(b *testing.B) {
	const (
		nq         = 3
		wavefront  = 400
		skylineMin = 12
		candidates = 200
	)
	ctx := context.Background()
	env := pinNA.env(b, 0)
	q := Query{Points: gen.QueryPoints(env.G, nq, 0.1, 1)}
	donor, err := NewLBCIterator(ctx, env, q, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer donor.Close()
	settled := func() (total int) {
		for _, a := range donor.astars {
			total += a.NodesExpanded()
		}
		return total
	}
	for len(donor.skyVecs) < skylineMin || settled() < nq*wavefront {
		if _, ok, err := donor.Next(); err != nil || !ok {
			b.Fatalf("donor stopped with %d skyline points: ok=%v err=%v", len(donor.skyVecs), ok, err)
		}
	}
	cands := make([]srcCand, 0, candidates)
	for len(cands) < candidates {
		c, ok, err := donor.streams[0].next()
		if err != nil || !ok {
			b.Fatalf("donor stream stopped after %d candidates: ok=%v err=%v", len(cands), ok, err)
		}
		cands = append(cands, c)
	}
	snaps := make([]*distcache.State, nq)
	scratches := make([]*sp.Scratch, nq)
	for i, a := range donor.astars {
		snaps[i], scratches[i] = a.Snapshot(), sp.NewScratch()
	}
	sky := slices.Clone(donor.skyVecs)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		it := &LBCIterator{env: env, q: q, n: nq, dims: nq, skyVecs: slices.Clone(sky), astars: make([]*sp.AStar, nq)}
		for j, st := range snaps {
			it.astars[j] = sp.NewAStarFromWith(ctx, env, st, donor.qPts[j], scratches[j])
			it.astars[j].UseHeuristicSource(env.Landmarks)
		}
		it.bounds = newBoundVec(it.astars, it.dims, &it.metrics)
		it.dominated = func() bool { return skyline.DominatedBy(it.bounds.lb, it.skyVecs) }
		b.StartTimer()
		for _, c := range cands {
			if _, _, err := it.check(0, c); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEDCVerify times EDC's verification of one window batch alone, on
// a |Q| = 4 query on CA (the paper_cold cell): the window of a late seed,
// refined farthest-first against the query's network skyline — the front a
// late batch meets. Each iteration restores the searchers to where the
// seed's own vector left them, so the frontier-free bounds, the dominance
// tests and the sessions of the candidates that are not dominated are on the
// clock, and the R-tree is not.
func BenchmarkEDCVerify(b *testing.B) {
	const nq = 4
	ctx := context.Background()
	env := pinCA.env(b, 0)
	q := Query{Points: gen.QueryPoints(env.G, nq, 0.1, 1)}
	res, err := Run(ctx, env, q, AlgEDC, Options{ColdCache: true})
	if err != nil {
		b.Fatal(err)
	}
	qPts := make([]geom.Point, nq)
	for i, p := range q.Points {
		qPts[i] = env.G.Point(p)
	}
	euclid := make([][]float64, len(env.Objects))
	for i, o := range env.Objects {
		euclid[i] = make([]float64, nq)
		for j, qp := range qPts {
			euclid[i][j] = env.G.Point(o.Loc).Dist(qp)
		}
	}
	front := make([][]float64, len(res.Skyline))
	for i, p := range res.Skyline {
		front[i] = p.Vec
	}
	// The seed is the object an eighth of the way down the Euclidean order
	// EDC draws its seeds in: late seeds are the ones with wide windows.
	byEuclid := slices.Clone(env.Objects)
	sum := func(o graph.Object) (s float64) {
		for _, d := range euclid[o.ID] {
			s += d
		}
		return s
	}
	slices.SortFunc(byEuclid, func(x, y graph.Object) int { return cmp.Compare(sum(x), sum(y)) })
	seed := byEuclid[len(byEuclid)/8]

	pbar := make([]float64, nq)
	snaps := make([]*distcache.State, nq)
	scratches := make([]*sp.Scratch, nq)
	for i, p := range q.Points {
		scratches[i] = sp.NewScratch()
		a, err := sp.NewAStarWith(ctx, env, p, qPts[i], scratches[i])
		if err != nil {
			b.Fatal(err)
		}
		a.UseHeuristicSource(env.Landmarks)
		if pbar[i], err = a.DistanceTo(seed.Loc, env.G.Point(seed.Loc)); err != nil {
			b.Fatal(err)
		}
		snaps[i] = a.Snapshot()
	}
	var batch []graph.Object
	for _, o := range env.Objects {
		if o.ID != seed.ID && skyline.DominatesOrEqual(euclid[o.ID], pbar) {
			batch = append(batch, o)
		}
	}
	slices.SortFunc(batch, func(x, y graph.Object) int { return cmp.Compare(slices.Max(euclid[y.ID]), slices.Max(euclid[x.ID])) })

	dropped := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		astars := make([]*sp.AStar, nq)
		for j, st := range snaps {
			astars[j] = sp.NewAStarFromWith(ctx, env, st, qPts[j], scratches[j])
			astars[j].UseHeuristicSource(env.Landmarks)
		}
		var m Metrics
		bounds, floor := newBoundVec(astars, nq, &m), make([]float64, nq)
		dominated := func() bool { return floorDominated(bounds.lb, floor, nq, front) }
		b.StartTimer()
		for _, o := range batch {
			exact, err := bounds.refine(o.Loc, env.G.Point(o.Loc), -1, dominated)
			if err != nil {
				b.Fatal(err)
			}
			if !exact {
				dropped++
			}
		}
	}
	b.ReportMetric(float64(len(batch)), "candidates")
	b.ReportMetric(float64(dropped)/float64(b.N), "dropped")
}
