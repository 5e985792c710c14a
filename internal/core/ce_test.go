package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"roadskyline/internal/skyline"
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
