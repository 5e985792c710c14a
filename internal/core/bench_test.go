package core

import (
	"context"
	"slices"
	"testing"

	"roadskyline/internal/distcache"
	"roadskyline/internal/gen"
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
