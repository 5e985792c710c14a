package sp_test

// The frontier-free bound (AStar.Bound) and the shared Target, as
// properties over the same graphs TestDenseAStarMatchesMapOracle draws:
// callers test dominance on Bound before paying for a session's opening
// scan, so it must never overshoot what the session would have said, and a
// session opened on a Target shared between searchers must be the session
// NewSession opens.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"roadskyline/internal/bruteforce"
	"roadskyline/internal/graph"
	"roadskyline/internal/landmark"
	"roadskyline/internal/sp"
	"roadskyline/internal/testnet"
)

// above reports whether bound exceeds limit (the exact distance or a
// session's PLB) by more than rounding: the landmark table's rows and the
// searcher's g-values are different float sums of the same edge lengths, so
// a tight triangle bound can land a few ulps above the searcher's own sum
// (relative 1e-12), and two locations at one node reached over different
// edges interpolate to points an ulp of the unit square apart, which gives a
// zero distance a Euclidean bound of 1e-17 (absolute 1e-15).
func above(bound, limit float64) bool { return bound > limit*(1+1e-12)+1e-15 }

// boundLocation draws a location, biased toward the cases the bound has
// special arms for: the ends of an edge and (for targets) the source's edge.
func boundLocation(rng *rand.Rand, g *graph.Graph, shareWith *graph.Location) graph.Location {
	e := g.Edge(graph.EdgeID(rng.Intn(g.NumEdges())))
	if shareWith != nil && rng.Intn(5) == 0 {
		e = g.Edge(shareWith.Edge)
	}
	switch rng.Intn(6) {
	case 0:
		return graph.Location{Edge: e.ID, Offset: 0}
	case 1:
		return graph.Location{Edge: e.ID, Offset: e.Length}
	}
	return graph.Location{Edge: e.ID, Offset: rng.Float64() * e.Length}
}

// checkAStarBound is the property body shared by TestAStarBound and
// FuzzAStarBound. Two searchers from different sources walk one chain of
// targets, sharing one Target per destination, each shadowed by a twin that
// opens the same sessions through NewSession.
func checkAStarBound(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	g := oracleGraph(t, rng, rng.Intn(3))
	net := testnet.NewMemNet(g, nil)

	var hs sp.HeuristicSource
	if rng.Intn(4) != 0 {
		hs = landmark.Build(g, 1+rng.Intn(landmark.DefaultK))
	}
	noHeur := rng.Intn(4) == 0
	configure := func(a *sp.AStar) *sp.AStar {
		if hs != nil {
			a.UseHeuristicSource(hs)
		}
		if noHeur {
			a.DisableHeuristic()
		}
		return a
	}

	const sources = 2
	var (
		srcs       [sources]graph.Location
		shared     [sources]*sp.AStar // sessions opened on the shared Target
		twins      [sources]*sp.AStar // the same sessions through NewSession
		restoredAt [sources]int       // nodes expanded before the snapshot round trip
	)
	for i := range srcs {
		srcs[i] = boundLocation(rng, g, nil)
		for _, side := range []*[sources]*sp.AStar{&shared, &twins} {
			a, err := sp.NewAStarWith(ctx, net, srcs[i], g.Point(srcs[i]), nil)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			side[i] = configure(a)
		}
	}

	dests := make([]graph.Object, 12+rng.Intn(20))
	for i := range dests {
		dests[i] = graph.Object{ID: graph.ObjectID(i), Loc: boundLocation(rng, g, &srcs[rng.Intn(sources)])}
	}
	var exact [sources][]float64 // oracle Dijkstra over the in-memory graph
	for i, src := range srcs {
		exact[i] = bruteforce.ObjectDistances(g, dests, src)
	}
	restoreAt := rng.Intn(2 * len(dests)) // half the chains never restore

	for di, dest := range dests {
		if di == restoreAt {
			for i := range shared {
				restoredAt[i] = shared[i].NodesExpanded()
				shared[i] = configure(sp.NewAStarFromWith(ctx, net, shared[i].Snapshot(), g.Point(srcs[i]), nil))
			}
		}
		target := sp.Target{Loc: dest.Loc, Pt: g.Point(dest.Loc)}
		// A third of the sessions are dropped on their opening bound, a third
		// after a few steps, a third run to completion — the same for every
		// searcher, so the twins stay in step.
		steps := 0
		switch rng.Intn(3) {
		case 1:
			steps = 1 + rng.Intn(6)
		case 2:
			steps = 10*g.NumNodes() + 100
		}
		for i, a := range shared {
			want := exact[i][dest.ID]
			bound := a.Bound(&target)
			if bound < 0 || math.IsNaN(bound) {
				t.Fatalf("seed %d dest %d source %d: bound %v", seed, di, i, bound)
			}
			if noHeur && bound != 0 {
				t.Fatalf("seed %d dest %d source %d: bound %v under DisableHeuristic, want 0", seed, di, i, bound)
			}
			if math.IsInf(bound, 1) && !math.IsInf(want, 1) {
				t.Fatalf("seed %d dest %d source %d: bound +Inf, oracle distance %v", seed, di, i, want)
			}
			if above(bound, want) {
				t.Fatalf("seed %d dest %d source %d: bound %v above oracle distance %v", seed, di, i, bound, want)
			}

			resolved := a.Resolved(&target)
			s := a.OpenSession(&target)
			w := twins[i].NewSession(dest.Loc, target.Pt)
			if resolved && !s.Done() {
				t.Fatalf("seed %d dest %d source %d: target resolved but the session opened unfinished", seed, di, i)
			}
			if above(bound, s.PLB()) {
				t.Fatalf("seed %d dest %d source %d: bound %v above opening PLB %v", seed, di, i, bound, s.PLB())
			}
			same := func(when string) {
				t.Helper()
				if s.PLB() != w.PLB() || s.Done() != w.Done() ||
					restoredAt[i]+a.NodesExpanded() != twins[i].NodesExpanded() {
					t.Fatalf("seed %d dest %d source %d %s: shared target (plb=%v done=%v expanded=%d), NewSession (plb=%v done=%v expanded=%d)",
						seed, di, i, when, s.PLB(), s.Done(), restoredAt[i]+a.NodesExpanded(), w.PLB(), w.Done(), twins[i].NodesExpanded())
				}
			}
			same("at opening")
			for step := 0; step < steps && !s.Done(); step++ {
				if _, _, err := s.Advance(); err != nil {
					t.Fatalf("seed %d dest %d source %d: %v", seed, di, i, err)
				}
				if _, _, err := w.Advance(); err != nil {
					t.Fatalf("seed %d dest %d source %d: %v", seed, di, i, err)
				}
				same("after a step")
			}
			if !s.Done() {
				continue
			}
			if s.Dist() != w.Dist() {
				t.Fatalf("seed %d dest %d source %d: shared target dist %v, NewSession %v", seed, di, i, s.Dist(), w.Dist())
			}
			if d := s.Dist(); above(bound, d) || math.Abs(d-want) > 1e-9*math.Max(1, want) {
				t.Fatalf("seed %d dest %d source %d: dist %v, bound %v, oracle distance %v", seed, di, i, d, bound, want)
			}
		}
	}
}

func TestAStarBound(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		checkAStarBound(t, seed)
	}
}

func FuzzAStarBound(f *testing.F) {
	for _, seed := range []int64{0, 1, 43, -7, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(checkAStarBound)
}
