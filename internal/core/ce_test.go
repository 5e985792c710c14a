package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"roadskyline/internal/skyline"
	"roadskyline/internal/sp"
	"roadskyline/internal/testnet"
)

// TestCEStopFilterMatchesFull holds CE's admission test to its definition:
// every decision read from the stoppers equals skyline.DominatedBy over all
// skyline vectors found so far, and the stoppers are exactly the skyline
// vectors whose attributes equal the global minima (the last |attrs| values
// of the vector under test). Instances: 0, 1 and 2 attributes on random
// networks, the same with two objects sharing a global minimum attribute
// below every other value, and the tie placements of testnet.PlaceTies.
//
// Seeded mutations: a stopper never appended fails the stopper list (and,
// where it decides, the decision); a filter testing minAttrs <= attributes
// (true of every object) in place of equality fails the stopper list.
func TestCEStopFilterMatchesFull(t *testing.T) {
	defer func() { testHookCEStop = nil }()

	rng := rand.New(rand.NewSource(47))
	for _, c := range []struct {
		name   string
		attrs  int
		shared bool // two objects share a global minimum attribute
		ties   bool
	}{
		{"attrs0", 0, false, false},
		{"attrs1", 1, false, false},
		{"attrs2", 2, false, false},
		{"attrs1/shared", 1, true, false},
		{"attrs2/shared", 2, true, false},
		{"attrs0/ties", 0, false, true},
		{"attrs1/ties", 1, false, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			decisions, stops := 0, 0
			var failed error
			for trial := 0; trial < 40; trial++ {
				g := testnet.RandomGraph(rng, 20+rng.Intn(80))
				objs := testnet.RandomObjects(rng, g, 2+rng.Intn(60), c.attrs)
				q := Query{Points: testnet.RandomLocations(rng, g, 1+rng.Intn(4)), UseAttrs: c.attrs > 0}
				if c.ties {
					testnet.PlaceTies(rng, g, objs, q.Points, false)
				}
				if c.shared {
					a := rng.Intn(c.attrs)
					for _, i := range rng.Perm(len(objs))[:2] {
						objs[i].Attrs[a] = -1
					}
				}
				testHookCEStop = func(lb []float64, skyVecs, stoppers [][]float64, stop bool) {
					n := len(lb) - c.attrs // Run merges duplicate query points
					decisions++
					if stop {
						stops++
					}
					if failed != nil {
						return
					}
					if full := skyline.DominatedBy(lb, skyVecs); stop != full {
						failed = fmt.Errorf("trial %d, decision %d under %v: stoppers say %v, all %d skyline vectors %v", trial, decisions, lb, stop, len(skyVecs), full)
						return
					}
					var want [][]float64
					for _, v := range skyVecs {
						if slices.Equal(v[n:], lb[n:]) {
							want = append(want, v)
						}
					}
					if !slices.EqualFunc(stoppers, want, slices.Equal[[]float64]) {
						failed = fmt.Errorf("trial %d, decision %d: stoppers %v, skyline vectors with attributes %v are %v", trial, decisions, stoppers, lb[n:], want)
					}
				}
				env := newTestEnv(t, g, objs)
				_, err := Run(t.Context(), env, q, AlgCE, Options{ColdCache: true})
				testHookCEStop = nil
				if err != nil {
					t.Fatal(err)
				}
				if failed != nil {
					t.Fatal(failed)
				}
			}
			if stops == 0 || stops == decisions {
				t.Errorf("%d decisions, %d to stop: the instances never exercise both outcomes", decisions, stops)
			}
			t.Logf("%d decisions, %d to stop", decisions, stops)
		})
	}
}

// TestCERefinesBoundsFirst holds CE's default arm to its refinement rule on
// CA at paper_cold's shape (|Q| = 4, cold) and serve_open's (|Q| = 2 with
// one attribute, warm) and on the islands: once admission closes, no
// object-mode searcher settles another node (testHookCERefine), and each
// query returns the paper arm's skyline (DisablePLB) as a set, ids and
// distance bits, with the same candidates and no more settlements.
//
// Seeded mutations, each failing here: the refinement skipped (the hook
// never fires); a known distance overwritten by a bound (refine filling a
// known entry from from); a candidate dropped although its bounds are not
// dominated (the stop rule testing the front with DominatesOrEqual).
func TestCERefinesBoundsFirst(t *testing.T) {
	defer func() { testHookCERefine = nil }()
	ctx := context.Background()
	for _, c := range []struct {
		name      string
		inst      *pinInst
		nq, attrs int
		sets      int
		opts      Options
	}{
		{"CA/paper_cold", instCA, 4, 0, 9, Options{ColdCache: true}},
		{"CA/serve_open", instCA, 2, 1, 9, Options{}},
		{"islands", instIslands, 3, 0, 6, Options{ColdCache: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			env := c.inst.env(t, c.attrs)
			refinements, nodes, paperNodes := 0, 0, 0
			for set := range c.sets {
				q := Query{Points: c.inst.pts(env, c.nq, set), UseAttrs: c.attrs > 0}
				var objectMode []*sp.AStar
				var atClose []int
				testHookCERefine = func(searchers []*sp.AStar) {
					refinements++
					objectMode = slices.Clone(searchers)
					for _, s := range searchers {
						atClose = append(atClose, s.NodesExpanded())
					}
				}
				got, err := Run(ctx, env, q, AlgCE, c.opts)
				testHookCERefine = nil
				if err != nil {
					t.Fatal(err)
				}
				for i, s := range objectMode {
					if n := s.NodesExpanded(); n != atClose[i] {
						t.Errorf("set %d: object-mode searcher %d settled %d nodes after admission closed", set, i, n-atClose[i])
					}
				}
				paperOpts := c.opts
				paperOpts.DisablePLB = true
				paper, err := Run(ctx, env, q, AlgCE, paperOpts)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameSkylineBits(got, paper); err != nil {
					t.Errorf("set %d: against the paper's CE: %v", set, err)
				}
				gm, pm := got.Metrics, paper.Metrics
				if gm.Candidates != pm.Candidates {
					t.Errorf("set %d: %d candidates, the paper's CE %d", set, gm.Candidates, pm.Candidates)
				}
				if gm.NodesExpanded > pm.NodesExpanded {
					t.Errorf("set %d: %d settlements, the paper's CE %d", set, gm.NodesExpanded, pm.NodesExpanded)
				}
				nodes, paperNodes = nodes+gm.NodesExpanded, paperNodes+pm.NodesExpanded
			}
			if refinements == 0 {
				t.Errorf("no query of %d refined bounds-first", c.sets)
			}
			t.Logf("%d of %d queries refined bounds-first; %d settlements, the paper's CE %d", refinements, c.sets, nodes, paperNodes)
		})
	}
}

// sameSkylineBits reports how got's skyline differs from want's as a set of
// objects with their vectors, bit for bit.
func sameSkylineBits(got, want *Result) error {
	g := slices.SortedFunc(slices.Values(got.Skyline), bySkylineID)
	w := slices.SortedFunc(slices.Values(want.Skyline), bySkylineID)
	if !slices.EqualFunc(g, w, func(a, b SkylinePoint) bool { return a.Object.ID == b.Object.ID && slices.Equal(a.Vec, b.Vec) }) {
		return fmt.Errorf("skyline %v, want %v", skylineIDs(got), skylineIDs(want))
	}
	return nil
}
