package sp_test

// The A* half of the dense-vs-map differential fuzz (see
// dense_equivalence_test.go). It lives in the external test package because
// it installs the landmark table on both searchers and internal/landmark
// imports sp; the oracle and the scratch invariant check reach it through
// export_test.go.
//
// A session keys the frontier lazily (Euclid-only keys, the heuristic source
// evaluated only at the top of the heap, the heap itself ordered on the
// first Advance) while the oracle keys every frontier node in full when a
// session opens. The two must still agree on every PLB, every pop and every
// counter, bit for bit.

import (
	"context"
	"math/rand"
	"testing"

	"roadskyline/internal/graph"
	"roadskyline/internal/landmark"
	"roadskyline/internal/sp"
	"roadskyline/internal/testnet"
)

// disjointUnion places b beside a without connecting them, so targets drawn
// on one component are unreachable from sources on the other.
func disjointUnion(a, b *graph.Graph) *graph.Graph {
	bld := graph.NewBuilder(a.NumNodes()+b.NumNodes(), a.NumEdges()+b.NumEdges())
	for _, g := range []*graph.Graph{a, b} {
		for i := 0; i < g.NumNodes(); i++ {
			bld.AddNode(g.NodePoint(graph.NodeID(i)))
		}
	}
	for i := 0; i < a.NumEdges(); i++ {
		e := a.Edge(graph.EdgeID(i))
		bld.AddEdge(e.U, e.V, e.Length)
	}
	off := graph.NodeID(a.NumNodes())
	for i := 0; i < b.NumEdges(); i++ {
		e := b.Edge(graph.EdgeID(i))
		bld.AddEdge(e.U+off, e.V+off, e.Length)
	}
	return bld.MustBuild()
}

// oracleGraph rotates through the fuzz's small random/degenerate graphs,
// graphs large enough for re-keys to meet frontiers of a hundred nodes and
// more, and disconnected pairs of either.
func oracleGraph(t *testing.T, rng *rand.Rand, trial int) *graph.Graph {
	switch trial % 3 {
	case 0:
		return sp.FuzzGraph(t, rng)
	case 1:
		return testnet.RandomGraph(rng, 300+rng.Intn(500))
	default:
		return disjointUnion(sp.FuzzGraph(t, rng), testnet.RandomGraph(rng, 40+rng.Intn(200)))
	}
}

// TestDenseAStarMatchesMapOracle locks the dense A* to the map-based
// implementation across long session chains on one searcher — sessions
// abandoned unadvanced, abandoned after a few steps and run to completion,
// interleaved — with the Euclidean heuristic, the landmark table and no
// heuristic at all: identical PLB trajectories, completion, distances,
// expansion counts and realized paths at every step, also across a
// Snapshot -> NewAStarFromWith round trip in the middle of the chain. The
// scratch's frontier list is checked against the state arrays after every
// step.
func TestDenseAStarMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ctx := context.Background()
	scratches := [2]*sp.Scratch{sp.NewScratch(), sp.NewScratch()} // reused across trials: epoch reuse is part of the test
	for trial := 0; trial < 90; trial++ {
		g := oracleGraph(t, rng, trial)
		net := testnet.NewMemNet(g, nil)
		src := testnet.RandomLocations(rng, g, 1)[0]
		srcPt := g.Point(src)

		// Heuristic configuration, the same on both sides.
		var hs sp.HeuristicSource
		if trial%4 != 0 {
			hs = landmark.Build(g, 1+rng.Intn(landmark.DefaultK))
		}
		noHeur := trial%4 == 3 || trial%8 == 0
		configure := func(s interface {
			UseHeuristicSource(sp.HeuristicSource)
			DisableHeuristic()
		}) {
			if hs != nil {
				s.UseHeuristicSource(hs)
			}
			if noHeur {
				s.DisableHeuristic()
			}
		}

		a, err := sp.NewAStarWith(ctx, net, src, srcPt, scratches[0])
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		o, err := sp.NewMapAStar(ctx, net, src, srcPt)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		configure(a)
		configure(o)
		checkFrontier := func(when string) {
			t.Helper()
			if err := a.Scratch().CheckFrontier(); err != nil {
				t.Fatalf("trial %d %s: %v", trial, when, err)
			}
		}
		checkFrontier("after seeding")

		dests := testnet.RandomLocations(rng, g, 30+rng.Intn(15))
		restoreAt := -1
		if trial%2 == 0 {
			restoreAt = len(dests) / 2
		}
		expandedBefore := 0 // settled by the searcher the snapshot was taken from
		for di, dest := range dests {
			if di == restoreAt {
				expandedBefore = a.NodesExpanded()
				a = sp.NewAStarFromWith(ctx, net, a.Snapshot(), srcPt, scratches[1])
				configure(a)
				checkFrontier("after restore")
			}
			destPt := g.Point(dest)
			ds := a.NewSession(dest, destPt)
			os := o.NewSession(dest, destPt)
			if ds.PLB() != os.PLB() || ds.Done() != os.Done() {
				t.Fatalf("trial %d dest %d: fresh session plb %v/%v done %v/%v", trial, di, ds.PLB(), os.PLB(), ds.Done(), os.Done())
			}
			// A third of the sessions are dropped on their opening bound, a
			// third after a few steps, a third run to completion.
			steps := 0
			switch rng.Intn(3) {
			case 1:
				steps = 1 + rng.Intn(6)
			case 2:
				steps = 10*g.NumNodes() + 100
			}
			for step := 0; step < steps && !(ds.Done() && os.Done()); step++ {
				dplb, ddone, derr := ds.Advance()
				oplb, odone, oerr := os.Advance()
				if derr != nil || oerr != nil {
					t.Fatalf("trial %d dest %d: advance errs %v / %v", trial, di, derr, oerr)
				}
				if dplb != oplb || ddone != odone {
					t.Fatalf("trial %d dest %d step %d: dense (plb=%v done=%v), oracle (plb=%v done=%v)",
						trial, di, step, dplb, ddone, oplb, odone)
				}
				if got := expandedBefore + a.NodesExpanded(); got != o.NodesExpanded() {
					t.Fatalf("trial %d dest %d step %d: dense expanded %d, oracle %d", trial, di, step, got, o.NodesExpanded())
				}
				checkFrontier("after a step")
			}
			if !ds.Done() {
				if steps > 6 {
					t.Fatalf("trial %d dest %d: session did not converge", trial, di)
				}
				continue // abandoned
			}
			if ds.Dist() != os.Dist() {
				t.Fatalf("trial %d dest %d: dense dist %v, oracle %v", trial, di, ds.Dist(), os.Dist())
			}
		}
	}
}

// TestRestoredBoundWinsRepeat restores one snapshot several times and runs
// the same session chain on each copy. Which frontier nodes a session's
// opening scan evaluates depends on the order of the frontier list, and a
// snapshot's frontier is a map, so NewAStarFromWith must order the list
// itself for the bound-win counters to repeat from run to run.
func TestRestoredBoundWinsRepeat(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	ctx := context.Background()
	g := testnet.RandomGraph(rng, 2000)
	net := testnet.NewMemNet(g, nil)
	table := landmark.Build(g, landmark.DefaultK)
	src := testnet.RandomLocations(rng, g, 1)[0]
	donor, err := sp.NewAStar(ctx, net, src, g.Point(src))
	if err != nil {
		t.Fatal(err)
	}
	donor.UseHeuristicSource(table)
	dests := testnet.RandomLocations(rng, g, 40)
	for _, d := range dests[:4] {
		if _, err := donor.DistanceTo(d, g.Point(d)); err != nil {
			t.Fatal(err)
		}
	}
	snap := donor.Snapshot()
	if len(snap.Frontier) < 30 {
		t.Fatalf("donor frontier has only %d nodes", len(snap.Frontier))
	}
	var wantLM, wantEU int
	for run := 0; run < 6; run++ {
		a := sp.NewAStarFrom(ctx, net, snap, g.Point(src))
		a.UseHeuristicSource(table)
		for i, d := range dests[4:] {
			s := a.NewSession(d, g.Point(d))
			for step := 0; step < i%4 && !s.Done(); step++ {
				if _, _, err := s.Advance(); err != nil {
					t.Fatal(err)
				}
			}
		}
		lm, eu := a.BoundWins()
		if lm+eu == 0 {
			t.Fatal("no heuristic evaluation was counted")
		}
		if run == 0 {
			wantLM, wantEU = lm, eu
		} else if lm != wantLM || eu != wantEU {
			t.Fatalf("run %d: bound wins (%d, %d), first run (%d, %d)", run, lm, eu, wantLM, wantEU)
		}
	}
}
