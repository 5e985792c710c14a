package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"roadskyline/internal/bruteforce"
	"roadskyline/internal/graph"
	"roadskyline/internal/landmark"
	"roadskyline/internal/rtree"
	"roadskyline/internal/slab"
	"roadskyline/internal/storage"
	"roadskyline/internal/testnet"
)

func newTestEnv(t *testing.T, g *graph.Graph, objs []graph.Object) *Env {
	t.Helper()
	env, err := NewEnv(g, objs, EnvConfig{})
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	return env
}

func skylineIDs(res *Result) []int {
	ids := make([]int, len(res.Skyline))
	for i, p := range res.Skyline {
		ids[i] = int(p.Object.ID)
	}
	sort.Ints(ids)
	return ids
}

func sameIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// oracleArm is one algorithm configuration the oracle comparisons run: the
// three algorithms as they ship, the paper's CE, which completes its
// candidates by expanding its wavefronts, CE refining under the Euclidean
// heuristic alone, the paper's EDC, which computes every candidate's vector
// in full, and LBC alternating sources or confirming every head in
// Euclidean order (the paper's stream).
type oracleArm struct {
	name string
	alg  Algorithm
	opts Options
}

var oracleArms = []oracleArm{
	{"CE", AlgCE, Options{ColdCache: true}},
	{"CE/noplb", AlgCE, Options{ColdCache: true, DisablePLB: true}},
	{"CE/nolandmarks", AlgCE, Options{ColdCache: true, DisableLandmarks: true}},
	{"EDC", AlgEDC, Options{ColdCache: true}},
	{"EDC/noplb", AlgEDC, Options{ColdCache: true, DisablePLB: true}},
	{"LBC", AlgLBC, Options{ColdCache: true}},
	{"LBC/alternate", AlgLBC, Options{ColdCache: true, LBCAlternate: true}},
	{"LBC/nolandmarks", AlgLBC, Options{ColdCache: true, DisableLandmarks: true}},
}

func (a oracleArm) run(env *Env, q Query) (*Result, error) {
	return Run(context.Background(), env, q, a.alg, a.opts)
}

// TestAlgorithmsMatchOracle is the central cross-validation: on randomized
// networks, CE, EDC and LBC must all return exactly the brute-force
// multi-source network skyline, with exact distance vectors. A second input
// loop places objects and query points on exact ties (testnet.PlaceTies):
// node-snapped offsets, shared locations and a query point on an object;
// there every arm must return the oracle's skyline, tied points included.
// A third loop does the same on tight edges, each exactly as long as the
// straight line between its ends, where a Euclidean bound can round an ulp
// above the network distance it ties.
func TestAlgorithmsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		g := testnet.RandomGraph(rng, 15+rng.Intn(80))
		objs := testnet.RandomObjects(rng, g, 1+rng.Intn(50), 0)
		env := newTestEnv(t, g, objs)
		numQ := 1 + rng.Intn(5)
		q := Query{Points: testnet.RandomLocations(rng, g, numQ)}

		wantIdx, matrix := bruteforce.NetworkSkyline(g, objs, q.Points, false)
		want := append([]int(nil), wantIdx...)

		for _, arm := range oracleArms {
			alg := arm.name
			res, err := arm.run(env, q)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, alg, err)
			}
			got := skylineIDs(res)
			if !sameIDs(got, want) {
				t.Fatalf("trial %d %v: skyline %v, oracle %v (|D|=%d |Q|=%d)",
					trial, alg, got, want, len(objs), numQ)
			}
			for _, p := range res.Skyline {
				for j := range q.Points {
					w := matrix[p.Object.ID][j]
					if math.Abs(p.Dists[j]-w) > 1e-9 {
						t.Fatalf("trial %d %v: object %d dist[%d] = %v, oracle %v",
							trial, alg, p.Object.ID, j, p.Dists[j], w)
					}
				}
			}
		}
	}
	for _, tight := range []bool{false, true} {
		name, seed := "ties", int64(43)
		if tight {
			name, seed = "tight ties", 107
		}
		rng = rand.New(rand.NewSource(seed))
		for trial := 0; trial < 300; trial++ {
			g := testnet.RandomGraph(rng, 15+rng.Intn(80))
			objs := testnet.RandomObjects(rng, g, 1+rng.Intn(50), 0)
			q := Query{Points: testnet.RandomLocations(rng, g, 1+rng.Intn(5))}
			g = testnet.PlaceTies(rng, g, objs, q.Points, tight)
			env := newTestEnv(t, g, objs)
			want, _ := bruteforce.NetworkSkyline(g, objs, q.Points, false)
			for _, arm := range oracleArms {
				res, err := arm.run(env, q)
				if err != nil {
					t.Fatalf("%s %d %v: %v", name, trial, arm.name, err)
				}
				if got := skylineIDs(res); !sameIDs(got, want) {
					t.Errorf("%s %d %v: skyline %v, oracle %v", name, trial, arm.name, got, want)
				}
			}
		}
	}
}

// Same cross-validation with non-spatial attributes enabled.
func TestAlgorithmsMatchOracleWithAttrs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		g := testnet.RandomGraph(rng, 15+rng.Intn(60))
		objs := testnet.RandomObjects(rng, g, 1+rng.Intn(40), 1+rng.Intn(2))
		// Perturb attributes to avoid exact ties.
		for i := range objs {
			for a := range objs[i].Attrs {
				objs[i].Attrs[a] += rng.Float64()
			}
		}
		env := newTestEnv(t, g, objs)
		numQ := 1 + rng.Intn(3)
		q := Query{Points: testnet.RandomLocations(rng, g, numQ), UseAttrs: true}

		wantIdx, _ := bruteforce.NetworkSkyline(g, objs, q.Points, true)
		want := append([]int(nil), wantIdx...)

		for _, arm := range oracleArms {
			res, err := arm.run(env, q)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, arm.name, err)
			}
			if got := skylineIDs(res); !sameIDs(got, want) {
				t.Fatalf("trial %d %v (attrs): skyline %v, oracle %v", trial, arm.name, got, want)
			}
		}
	}
}

// Metric relationships from the paper's analysis (Section 5), asserted in
// aggregate over many random instances: C(LBC) <= C(EDC), and LBC's
// network page accesses do not exceed CE's.
func TestPaperCostRelationships(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var candLBC, candEDC, pagesLBC, pagesCE, nodesLBC, nodesCE int64
	for trial := 0; trial < 25; trial++ {
		g := testnet.RandomGraph(rng, 100+rng.Intn(200))
		objs := testnet.RandomObjects(rng, g, 30+rng.Intn(70), 0)
		env := newTestEnv(t, g, objs)
		q := Query{Points: testnet.RandomLocations(rng, g, 2+rng.Intn(3))}

		ce, err := Run(context.Background(), env, q, AlgCE, Options{ColdCache: true})
		if err != nil {
			t.Fatal(err)
		}
		edc, err := Run(context.Background(), env, q, AlgEDC, Options{ColdCache: true})
		if err != nil {
			t.Fatal(err)
		}
		lbc, err := Run(context.Background(), env, q, AlgLBC, Options{ColdCache: true})
		if err != nil {
			t.Fatal(err)
		}
		candLBC += int64(lbc.Metrics.Candidates)
		candEDC += int64(edc.Metrics.Candidates)
		pagesLBC += lbc.Metrics.NetworkPages
		pagesCE += ce.Metrics.NetworkPages
		nodesLBC += int64(lbc.Metrics.NodesExpanded)
		nodesCE += int64(ce.Metrics.NodesExpanded)
	}
	if candLBC > candEDC {
		t.Errorf("aggregate candidates: LBC %d > EDC %d", candLBC, candEDC)
	}
	if pagesLBC > pagesCE {
		t.Errorf("aggregate network pages: LBC %d > CE %d", pagesLBC, pagesCE)
	}
	if nodesLBC > nodesCE {
		t.Errorf("aggregate nodes expanded: LBC %d > CE %d", nodesLBC, nodesCE)
	}
}

func TestMetricsSanity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := testnet.RandomGraph(rng, 150)
	objs := testnet.RandomObjects(rng, g, 60, 0)
	env := newTestEnv(t, g, objs)
	q := Query{Points: testnet.RandomLocations(rng, g, 3)}
	for _, alg := range []Algorithm{AlgCE, AlgEDC, AlgLBC} {
		res, err := Run(context.Background(), env, q, alg, Options{ColdCache: true})
		if err != nil {
			t.Fatal(err)
		}
		m := res.Metrics
		if m.Candidates <= 0 || m.Candidates > len(objs) {
			t.Errorf("%v: candidates = %d (|D|=%d)", alg, m.Candidates, len(objs))
		}
		if m.NetworkPages <= 0 || m.NetworkGets < m.NetworkPages {
			t.Errorf("%v: pages=%d gets=%d", alg, m.NetworkPages, m.NetworkGets)
		}
		if m.Initial <= 0 || m.Total < m.Initial {
			t.Errorf("%v: initial=%v total=%v", alg, m.Initial, m.Total)
		}
		if m.NodesExpanded <= 0 {
			t.Errorf("%v: no nodes expanded", alg)
		}
		if len(res.Skyline) == 0 {
			t.Errorf("%v: empty skyline on connected data", alg)
		}
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := testnet.RandomGraph(rng, 80)
	objs := testnet.RandomObjects(rng, g, 40, 0)
	env := newTestEnv(t, g, objs)
	q := Query{Points: testnet.RandomLocations(rng, g, 3)}
	for _, alg := range []Algorithm{AlgCE, AlgEDC, AlgLBC} {
		a, err := Run(context.Background(), env, q, alg, Options{ColdCache: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(context.Background(), env, q, alg, Options{ColdCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(skylineIDs(a), skylineIDs(b)) {
			t.Errorf("%v: non-deterministic skyline", alg)
		}
		if a.Metrics.NetworkPages != b.Metrics.NetworkPages {
			t.Errorf("%v: cold-cache page counts differ: %d vs %d",
				alg, a.Metrics.NetworkPages, b.Metrics.NetworkPages)
		}
	}
}

func TestLBCSourceChoiceIrrelevantToResult(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g := testnet.RandomGraph(rng, 80)
	objs := testnet.RandomObjects(rng, g, 40, 0)
	env := newTestEnv(t, g, objs)
	q := Query{Points: testnet.RandomLocations(rng, g, 4)}
	base, err := Run(context.Background(), env, q, AlgLBC, Options{ColdCache: true, LBCSource: 0})
	if err != nil {
		t.Fatal(err)
	}
	for s := 1; s < 4; s++ {
		res, err := Run(context.Background(), env, q, AlgLBC, Options{ColdCache: true, LBCSource: s})
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(skylineIDs(base), skylineIDs(res)) {
			t.Errorf("source %d: skyline differs from source 0", s)
		}
	}
}

// The plb ablation must not change the answer, only the cost.
func TestLBCDisablePLBSameResult(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var withPLB, withoutPLB int64
	for trial := 0; trial < 15; trial++ {
		g := testnet.RandomGraph(rng, 150)
		objs := testnet.RandomObjects(rng, g, 60, 0)
		env := newTestEnv(t, g, objs)
		q := Query{Points: testnet.RandomLocations(rng, g, 3)}
		a, err := Run(context.Background(), env, q, AlgLBC, Options{ColdCache: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(context.Background(), env, q, AlgLBC, Options{ColdCache: true, DisablePLB: true})
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(skylineIDs(a), skylineIDs(b)) {
			t.Fatalf("trial %d: plb ablation changed the skyline", trial)
		}
		withPLB += int64(a.Metrics.NodesExpanded)
		withoutPLB += int64(b.Metrics.NodesExpanded)
	}
	if withPLB > withoutPLB {
		t.Errorf("plb saved nothing: %d nodes with, %d without", withPLB, withoutPLB)
	}
}

func TestQueryValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := testnet.RandomGraph(rng, 20)
	objs := testnet.RandomObjects(rng, g, 10, 0)
	env := newTestEnv(t, g, objs)
	if _, err := Run(context.Background(), env, Query{}, AlgLBC, Options{ColdCache: true}); err == nil {
		t.Error("empty query accepted")
	}
	bad := Query{Points: []graph.Location{{Edge: 9999, Offset: 0}}}
	if _, err := Run(context.Background(), env, bad, AlgCE, Options{ColdCache: true}); err == nil {
		t.Error("invalid query point accepted")
	}
	noAttrs := Query{Points: testnet.RandomLocations(rng, g, 1), UseAttrs: true}
	if _, err := Run(context.Background(), env, noAttrs, AlgEDC, Options{ColdCache: true}); err == nil {
		t.Error("UseAttrs accepted without attributes")
	}
	if _, err := Run(context.Background(), env, Query{Points: testnet.RandomLocations(rng, g, 1)}, Algorithm(99), Options{}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestEmptyObjectSet(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := testnet.RandomGraph(rng, 30)
	env := newTestEnv(t, g, nil)
	q := Query{Points: testnet.RandomLocations(rng, g, 2)}
	for _, alg := range []Algorithm{AlgCE, AlgEDC, AlgLBC} {
		res, err := Run(context.Background(), env, q, alg, Options{ColdCache: true})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(res.Skyline) != 0 {
			t.Errorf("%v: skyline on empty object set", alg)
		}
	}
}

func TestSingleQueryPointIsNearestNeighbor(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 10; trial++ {
		g := testnet.RandomGraph(rng, 60)
		objs := testnet.RandomObjects(rng, g, 30, 0)
		env := newTestEnv(t, g, objs)
		q := Query{Points: testnet.RandomLocations(rng, g, 1)}
		dists := bruteforce.ObjectDistances(g, objs, q.Points[0])
		best, bd := -1, math.Inf(1)
		for i, d := range dists {
			if d < bd {
				best, bd = i, d
			}
		}
		for _, alg := range []Algorithm{AlgCE, AlgEDC, AlgLBC} {
			res, err := Run(context.Background(), env, q, alg, Options{ColdCache: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Skyline) != 1 || int(res.Skyline[0].Object.ID) != best {
				t.Fatalf("%v: single-source skyline = %v, want nearest neighbor %d",
					alg, skylineIDs(res), best)
			}
		}
	}
}

func TestEnvValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := testnet.RandomGraph(rng, 10)
	badLoc := []graph.Object{{ID: 0, Loc: graph.Location{Edge: 9999}}}
	if _, err := NewEnv(g, badLoc, EnvConfig{}); err == nil {
		t.Error("object with bad location accepted")
	}
	mixed := []graph.Object{
		{ID: 0, Loc: graph.Location{Edge: 0, Offset: 0}, Attrs: []float64{1}},
		{ID: 1, Loc: graph.Location{Edge: 0, Offset: 0}},
	}
	if _, err := NewEnv(g, mixed, EnvConfig{}); err == nil {
		t.Error("mixed attribute arity accepted")
	}
}

// LBC's initial response work (nodes expanded until first skyline point)
// involves only the source query point; its first skyline point must be
// the source's network NN.
func TestLBCFirstResultIsSourceNN(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 10; trial++ {
		g := testnet.RandomGraph(rng, 60)
		objs := testnet.RandomObjects(rng, g, 30, 0)
		env := newTestEnv(t, g, objs)
		q := Query{Points: testnet.RandomLocations(rng, g, 3)}
		res, err := Run(context.Background(), env, q, AlgLBC, Options{ColdCache: true})
		if err != nil {
			t.Fatal(err)
		}
		dists := bruteforce.ObjectDistances(g, objs, q.Points[0])
		best, bd := -1, math.Inf(1)
		for i, d := range dists {
			if d < bd {
				best, bd = i, d
			}
		}
		if len(res.Skyline) == 0 || int(res.Skyline[0].Object.ID) != best {
			t.Fatalf("trial %d: first LBC result %v, want source NN %d",
				trial, skylineIDs(res), best)
		}
	}
}

// The multi-source alternation extension must return the same skyline as
// the oracle and the single-source variant.
func TestLBCAlternateMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 25; trial++ {
		g := testnet.RandomGraph(rng, 15+rng.Intn(80))
		objs := testnet.RandomObjects(rng, g, 1+rng.Intn(50), 0)
		env := newTestEnv(t, g, objs)
		numQ := 2 + rng.Intn(4)
		q := Query{Points: testnet.RandomLocations(rng, g, numQ)}
		wantIdx, _ := bruteforce.NetworkSkyline(g, objs, q.Points, false)
		res, err := Run(context.Background(), env, q, AlgLBC, Options{ColdCache: true, LBCAlternate: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := skylineIDs(res); !sameIDs(got, wantIdx) {
			t.Fatalf("trial %d: alternate skyline %v, oracle %v", trial, got, wantIdx)
		}
	}
}

// Zeroing the A* heuristic (Dijkstra ablation) must not change results,
// only costs.
func TestDisableAStarHeuristicSameResult(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var withH, withoutH int64
	for trial := 0; trial < 10; trial++ {
		g := testnet.RandomGraph(rng, 120)
		objs := testnet.RandomObjects(rng, g, 50, 0)
		env := newTestEnv(t, g, objs)
		q := Query{Points: testnet.RandomLocations(rng, g, 3)}
		for _, alg := range []Algorithm{AlgEDC, AlgLBC} {
			a, err := Run(context.Background(), env, q, alg, Options{ColdCache: true})
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(context.Background(), env, q, alg, Options{ColdCache: true, DisableAStarHeuristic: true})
			if err != nil {
				t.Fatal(err)
			}
			if !sameIDs(skylineIDs(a), skylineIDs(b)) {
				t.Fatalf("trial %d %v: heuristic ablation changed the skyline", trial, alg)
			}
			withH += int64(a.Metrics.NodesExpanded)
			withoutH += int64(b.Metrics.NodesExpanded)
		}
	}
	if withH > withoutH {
		t.Errorf("heuristic saved nothing: %d nodes with, %d without", withH, withoutH)
	}
}

// LBC reports skyline points in ascending source network distance; with
// alternation the first result must be some query point's network NN.
func TestLBCProgressiveOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	g := testnet.RandomGraph(rng, 100)
	objs := testnet.RandomObjects(rng, g, 50, 0)
	env := newTestEnv(t, g, objs)
	q := Query{Points: testnet.RandomLocations(rng, g, 3)}
	res, err := Run(context.Background(), env, q, AlgLBC, Options{ColdCache: true})
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, p := range res.Skyline {
		if p.Dists[0] < prev-1e-9 {
			t.Fatalf("results not in ascending source distance: %v after %v", p.Dists[0], prev)
		}
		prev = p.Dists[0]
	}
}

// Warm-cache runs must not change results and should fault fewer pages.
func TestWarmCache(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g := testnet.RandomGraph(rng, 150)
	objs := testnet.RandomObjects(rng, g, 60, 0)
	env := newTestEnv(t, g, objs)
	q := Query{Points: testnet.RandomLocations(rng, g, 3)}
	cold, err := Run(context.Background(), env, q, AlgLBC, Options{ColdCache: true})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(context.Background(), env, q, AlgLBC, Options{ColdCache: false})
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(skylineIDs(cold), skylineIDs(warm)) {
		t.Fatal("cache temperature changed the skyline")
	}
	if warm.Metrics.NetworkPages > cold.Metrics.NetworkPages {
		t.Errorf("warm run faulted more pages (%d) than cold (%d)",
			warm.Metrics.NetworkPages, cold.Metrics.NetworkPages)
	}
}

// Response-time model invariants: IO time proportional to pages, initial
// <= total in both CPU and modeled terms.
func TestResponseTimeModel(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	g := testnet.RandomGraph(rng, 150)
	objs := testnet.RandomObjects(rng, g, 60, 0)
	env := newTestEnv(t, g, objs)
	q := Query{Points: testnet.RandomLocations(rng, g, 3)}
	for _, alg := range []Algorithm{AlgCE, AlgEDC, AlgLBC} {
		res, err := Run(context.Background(), env, q, alg, Options{ColdCache: true})
		if err != nil {
			t.Fatal(err)
		}
		m := res.Metrics
		if m.IOTime != time.Duration(m.NetworkPages)*DefaultDiskLatency {
			t.Errorf("%v: IOTime %v inconsistent with %d pages", alg, m.IOTime, m.NetworkPages)
		}
		if m.InitialPages > m.NetworkPages {
			t.Errorf("%v: initial pages %d > total pages %d", alg, m.InitialPages, m.NetworkPages)
		}
		if m.InitialResponseTime() > m.ResponseTime() {
			t.Errorf("%v: initial response %v > total response %v",
				alg, m.InitialResponseTime(), m.ResponseTime())
		}
	}
}

// On-disk page files must behave identically to the in-memory backend.
func TestEnvOnDisk(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	g := testnet.RandomGraph(rng, 100)
	objs := testnet.RandomObjects(rng, g, 40, 0)
	mem := newTestEnv(t, g, objs)
	disk, err := NewEnv(g, objs, EnvConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("NewEnv(Dir): %v", err)
	}
	q := Query{Points: testnet.RandomLocations(rng, g, 3)}
	for _, alg := range []Algorithm{AlgCE, AlgEDC, AlgLBC} {
		a, err := Run(context.Background(), mem, q, alg, Options{ColdCache: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(context.Background(), disk, q, alg, Options{ColdCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(skylineIDs(a), skylineIDs(b)) {
			t.Fatalf("%v: on-disk backend changed the skyline", alg)
		}
		if a.Metrics.NetworkPages != b.Metrics.NetworkPages {
			t.Errorf("%v: page counts differ across backends: %d vs %d",
				alg, a.Metrics.NetworkPages, b.Metrics.NetworkPages)
		}
	}
}

// The progressive iterator must yield exactly the batch LBC skyline, in
// the same order, with a first result available before exhaustion.
func TestLBCIteratorMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 15; trial++ {
		g := testnet.RandomGraph(rng, 100)
		objs := testnet.RandomObjects(rng, g, 50, 0)
		env := newTestEnv(t, g, objs)
		q := Query{Points: testnet.RandomLocations(rng, g, 3)}

		batch, err := Run(context.Background(), env, q, AlgLBC, Options{ColdCache: true})
		if err != nil {
			t.Fatal(err)
		}
		it, err := NewLBCIterator(context.Background(), env, q, Options{ColdCache: true})
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		for {
			p, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got = append(got, int(p.Object.ID))
		}
		var want []int
		for _, p := range batch.Skyline {
			want = append(want, int(p.Object.ID))
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: iterator %v, batch %v", trial, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: order differs: %v vs %v", trial, got, want)
			}
		}
		m := it.Metrics()
		if m.Candidates != batch.Metrics.Candidates {
			t.Errorf("trial %d: iterator candidates %d, batch %d",
				trial, m.Candidates, batch.Metrics.Candidates)
		}
		if m.NetworkPages != batch.Metrics.NetworkPages {
			t.Errorf("trial %d: iterator pages %d, batch %d",
				trial, m.NetworkPages, batch.Metrics.NetworkPages)
		}
	}
}

// Abandoning the iterator after the first result must be cheap and valid.
func TestLBCIteratorEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	g := testnet.RandomGraph(rng, 200)
	objs := testnet.RandomObjects(rng, g, 100, 0)
	env := newTestEnv(t, g, objs)
	q := Query{Points: testnet.RandomLocations(rng, g, 3)}

	full, err := Run(context.Background(), env, q, AlgLBC, Options{ColdCache: true})
	if err != nil {
		t.Fatal(err)
	}
	it, err := NewLBCIterator(context.Background(), env, q, Options{ColdCache: true})
	if err != nil {
		t.Fatal(err)
	}
	first, ok, err := it.Next()
	if err != nil || !ok {
		t.Fatalf("first: ok=%v err=%v", ok, err)
	}
	if first.Object.ID != full.Skyline[0].Object.ID {
		t.Fatalf("first = %d, batch first = %d", first.Object.ID, full.Skyline[0].Object.ID)
	}
	m := it.Metrics()
	if m.NodesExpanded >= full.Metrics.NodesExpanded {
		t.Errorf("early stop expanded %d nodes, full run %d",
			m.NodesExpanded, full.Metrics.NodesExpanded)
	}
}

// Clones must serve concurrent queries correctly: identical skylines from
// every goroutine, no data races (run under -race).
func TestEnvCloneConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	g := testnet.RandomGraph(rng, 150)
	objs := testnet.RandomObjects(rng, g, 60, 0)
	base := newTestEnv(t, g, objs)
	q := Query{Points: testnet.RandomLocations(rng, g, 3)}
	want, err := Run(context.Background(), base.Clone(), q, AlgLBC, Options{ColdCache: true})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	results := make([][]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			env := base.Clone()
			alg := []Algorithm{AlgCE, AlgEDC, AlgLBC}[w%3]
			res, err := Run(context.Background(), env, q, alg, Options{ColdCache: true})
			if err != nil {
				errs[w] = err
				return
			}
			results[w] = skylineIDs(res)
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if !sameIDs(results[w], skylineIDs(want)) {
			t.Fatalf("worker %d skyline %v, want %v", w, results[w], skylineIDs(want))
		}
	}
}

// disconnectedNet builds two random components joined by nothing, with
// query points and objects spread over both. Every object is reachable
// from at least one query point; unreachable dimensions are +Inf.
func TestDisconnectedNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	for trial := 0; trial < 15; trial++ {
		// Two components: merge two random graphs by renumbering.
		g1 := testnet.RandomGraph(rng, 15+rng.Intn(25))
		g2 := testnet.RandomGraph(rng, 15+rng.Intn(25))
		b := graph.NewBuilder(g1.NumNodes()+g2.NumNodes(), g1.NumEdges()+g2.NumEdges())
		for i := 0; i < g1.NumNodes(); i++ {
			b.AddNode(g1.NodePoint(graph.NodeID(i)))
		}
		for i := 0; i < g2.NumNodes(); i++ {
			p := g2.NodePoint(graph.NodeID(i))
			p.X += 2 // shift the second component aside
			b.AddNode(p)
		}
		off := graph.NodeID(g1.NumNodes())
		for i := 0; i < g1.NumEdges(); i++ {
			e := g1.Edge(graph.EdgeID(i))
			b.AddEdge(e.U, e.V, e.Length)
		}
		for i := 0; i < g2.NumEdges(); i++ {
			e := g2.Edge(graph.EdgeID(i))
			b.AddEdge(e.U+off, e.V+off, e.Length)
		}
		g := b.MustBuild()
		if g.Connected() {
			t.Fatal("merge should be disconnected")
		}

		// Objects on both components; query points one per component.
		var objs []graph.Object
		for i := 0; i < 10; i++ {
			e := g.Edge(graph.EdgeID(rng.Intn(g.NumEdges())))
			objs = append(objs, graph.Object{
				ID:  graph.ObjectID(i),
				Loc: graph.Location{Edge: e.ID, Offset: rng.Float64() * e.Length},
			})
		}
		q := Query{Points: []graph.Location{
			{Edge: graph.EdgeID(rng.Intn(g1.NumEdges())), Offset: 0},
			{Edge: graph.EdgeID(g1.NumEdges() + rng.Intn(g2.NumEdges())), Offset: 0},
		}}
		env := newTestEnv(t, g, objs)
		want, _ := bruteforce.NetworkSkyline(g, objs, q.Points, false)
		for _, alg := range []Algorithm{AlgCE, AlgEDC, AlgLBC} {
			res, err := Run(context.Background(), env, q, alg, Options{ColdCache: true})
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, alg, err)
			}
			if got := skylineIDs(res); !sameIDs(got, want) {
				t.Fatalf("trial %d %v: skyline %v, oracle %v", trial, alg, got, want)
			}
			// Vectors carry +Inf for the unreachable dimension.
			for _, p := range res.Skyline {
				finite := false
				for _, d := range p.Dists {
					if !math.IsInf(d, 1) {
						finite = true
					}
				}
				if !finite {
					t.Fatalf("trial %d %v: all-Inf vector reported", trial, alg)
				}
			}
		}
	}
}

// A directory built by NewEnv must reopen via OpenEnv under every backend
// and serve bit-identical skylines with bit-identical page counters.
func TestOpenEnvBackends(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	g := testnet.RandomGraph(rng, 120)
	objs := testnet.RandomObjects(rng, g, 50, 2)
	mem := newTestEnv(t, g, objs)
	dir := t.TempDir()
	built, err := NewEnv(g, objs, EnvConfig{Dir: dir})
	if err != nil {
		t.Fatalf("NewEnv(Dir): %v", err)
	}
	defer built.Close()
	if b := built.Backend(); b != storage.BackendFile {
		t.Fatalf("built env backend = %v, want file", b)
	}
	if mem.Backend() != storage.BackendMem {
		t.Fatalf("mem env backend = %v", mem.Backend())
	}

	envs := map[string]*Env{"built": built}
	for _, backend := range []storage.Backend{storage.BackendFile, storage.BackendMmap} {
		e, err := OpenEnv(dir, EnvConfig{Backend: backend})
		if err != nil {
			t.Fatalf("OpenEnv(%v): %v", backend, err)
		}
		defer e.Close()
		envs[backend.String()] = e
	}
	if e := envs["mmap"]; e.Backend() != storage.BackendMmap && e.Backend() != storage.BackendFile {
		t.Fatalf("mmap env backend = %v", e.Backend())
	}

	// What the directory keeps instead of recomputing is, bit for bit, what
	// a fresh computation gives: the landmark table of landmark.Build, the
	// tree of rtree.BulkLoad, the key table of edgeKeys.
	wantTable := landmark.Build(g, DefaultLandmarks)
	wantTree := rtree.BulkLoad(objectEntries(g, objs), rtree.DefaultFanout)
	wantKeys := edgeKeys(g)
	for name, e := range envs {
		tab := e.Landmarks
		if tab == nil || !slices.Equal(tab.Nodes(), wantTable.Nodes()) || tab.Finite() != wantTable.Finite() {
			t.Fatalf("%s: landmark nodes %v, want %v", name, tab, wantTable.Nodes())
		}
		if !slices.EqualFunc(tab.Flat(), wantTable.Flat(), func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("%s: landmark distances differ from landmark.Build's", name)
		}
		for i := 0; i < 200; i++ {
			dest := testnet.RandomLocations(rng, g, 1)[0]
			n := graph.NodeID(rng.Intn(g.NumNodes()))
			if a, b := tab.ForTarget(dest, g.Point(dest)).Bound(n), wantTable.ForTarget(dest, g.Point(dest)).Bound(n); a != b {
				t.Fatalf("%s: Bound(%v -> %d) = %v, built table says %v", name, dest, n, a, b)
			}
		}
		tree := e.ObjTree
		if tree.Len() != wantTree.Len() || tree.NumNodes() != wantTree.NumNodes() || tree.Fanout() != wantTree.Fanout() {
			t.Fatalf("%s: object tree len/nodes/fanout %d/%d/%d, BulkLoad gives %d/%d/%d", name,
				tree.Len(), tree.NumNodes(), tree.Fanout(), wantTree.Len(), wantTree.NumNodes(), wantTree.Fanout())
		}
	}
	f, err := slab.Open(filepath.Join(dir, fileSlab))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if keys, err := openEdgeKeys(f, g); err != nil || !slices.Equal(keys, wantKeys) {
		t.Fatalf("the directory's edge keys differ from edgeKeys' (err %v)", err)
	}

	// And the work of a query is the same work: every counter, the R-tree's
	// node visits among them, and every distance.
	q := Query{Points: testnet.RandomLocations(rng, g, 3), UseAttrs: true}
	for _, alg := range []Algorithm{AlgCE, AlgEDC, AlgLBC} {
		want, err := Run(context.Background(), mem, q, alg, Options{ColdCache: true})
		if err != nil {
			t.Fatal(err)
		}
		for name, e := range envs {
			got, err := Run(context.Background(), e, q, alg, Options{ColdCache: true})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, alg, err)
			}
			if len(got.Skyline) != len(want.Skyline) {
				t.Fatalf("%s/%v: %d skyline points, in-memory run has %d", name, alg, len(got.Skyline), len(want.Skyline))
			}
			for i, p := range want.Skyline {
				if o := got.Skyline[i]; o.Object.ID != p.Object.ID || !slices.Equal(o.Dists, p.Dists) {
					t.Fatalf("%s/%v: skyline point %d is %d %v, in-memory run has %d %v", name, alg, i, o.Object.ID, o.Dists, p.Object.ID, p.Dists)
				}
			}
			if a, b := workOf(got.Metrics), workOf(want.Metrics); a != b {
				t.Errorf("%s/%v: work %s, in-memory run did %s", name, alg, a, b)
			}
		}
	}
}

// workOf is the part of a query's metrics that is counted, not timed: IOTime
// is pages x latency, so it stays.
func workOf(m Metrics) string {
	m.Total, m.Initial, m.Phases = 0, 0, nil
	return fmt.Sprintf("%+v", m)
}

// mappedFrom reports whether p points into a memory mapping of the file at
// path, by asking the kernel (/proc/self/maps); where that cannot be asked,
// or on a host whose byte order forces a decode, the check is skipped as
// passed.
func mappedFrom(t *testing.T, path string, p unsafe.Pointer) bool {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if one := uint16(1); err != nil || *(*byte)(unsafe.Pointer(&one)) != 1 {
		t.Logf("no /proc/self/maps or a big-endian host: aliasing of %s not checked", filepath.Base(path))
		return true
	}
	for _, line := range strings.Split(string(maps), "\n") {
		var lo, hi uintptr
		if !strings.HasSuffix(line, path) {
			continue
		}
		if _, err := fmt.Sscanf(line, "%x-%x", &lo, &hi); err == nil && lo <= uintptr(p) && uintptr(p) < hi {
			return true
		}
	}
	return false
}

// OpenEnv fails cleanly on missing directories, and refuses a directory of
// the previous format — eight files, a manifest.json of version 2 beside a
// derived.slab — as ErrIncompatible: never ErrCorrupt, never a panic, and
// never a migration.
func TestOpenEnvErrors(t *testing.T) {
	if _, err := OpenEnv(t.TempDir(), EnvConfig{}); err == nil {
		t.Error("OpenEnv of an empty directory succeeded")
	}
	nd := buildNetDir(t, 17, 30, 10, 1)
	secs := mustParse(t, nd.files[fileSlab])
	var derivedSecs []slab.Section
	for _, tag := range []uint32{tagEdgeKeys, tagLeafOrder, tagLandmarkNodes, tagLandmarkDists} {
		derivedSecs = append(derivedSecs, *sectionOf(secs, tag))
	}
	v2 := t.TempDir()
	writeSlab(t, filepath.Join(v2, "derived.slab"), derivedSecs)
	nd.copyTo(t, v2, map[string][]byte{"manifest.json": []byte(`{
  "version": 2,
  "numAttrs": 1,
  "layer": {"tree": {"root": 0, "height": 1, "size": 8, "valSize": 12, "pages": 1}, "numObjects": 10},
  "landmarks": 8,
  "rtreeFanout": 100,
  "edgeKeyVersion": 1,
  "crc": 0
}`)})
	if err := os.Remove(filepath.Join(v2, fileSlab)); err != nil {
		t.Fatal(err)
	}
	for _, backend := range []storage.Backend{storage.BackendFile, storage.BackendMmap} {
		env, err := OpenEnv(v2, EnvConfig{Backend: backend})
		if env != nil {
			env.Close()
		}
		if !errors.Is(err, ErrIncompatible) || errors.Is(err, ErrCorrupt) {
			t.Errorf("%v: OpenEnv of a version-2 directory: %v, want ErrIncompatible", backend, err)
		}
	}
}

// The point of the mmap tier: opening a prebuilt directory must not copy
// the graph's arrays, the attribute matrix, the page files or the derived
// structures onto the heap. The gate allows what an open does allocate —
// the object table, the R-tree over object points, the adjacency
// directory, pools — and fails if heap growth reaches the size of the
// smallest thing that must stay mapped: the landmark distances, 8 bytes x
// 8 landmarks per node, which a copying open would put on the heap whole.
func TestOpenEnvMmapHeapGate(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := testnet.RandomGraph(rng, 4000)
	objs := testnet.RandomObjects(rng, g, 200, 2)
	dir := t.TempDir()
	built, err := NewEnv(g, objs, EnvConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	built.Close()
	var mappedBytes int64
	for _, name := range []string{fileSlab, fileAdjPages, fileTreePages, fileRecPages} {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		mappedBytes += st.Size()
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	env, err := OpenEnv(dir, EnvConfig{Backend: storage.BackendMmap})
	if err != nil {
		t.Fatal(err)
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	defer env.Close()
	if env.Backend() != storage.BackendMmap {
		t.Skipf("mmap fell back to %v on this platform; heap gate not applicable", env.Backend())
	}
	if env.Landmarks == nil || env.Landmarks.K() != DefaultLandmarks {
		t.Fatalf("opened without the directory's landmark table: %v", env.Landmarks)
	}
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	landmarkBytes := int64(8 * len(env.Landmarks.Flat()))
	// An open allocates ~40 B/object of R-tree, 8 B/node of adjacency
	// directory and 48 B/object of object table: with 20 nodes per object,
	// well under the 64 B/node of landmark distances alone. Most sections of
	// the slab (or a page file) copied to the heap cross the line: the
	// distances by themselves, the 24 B/node node array or the 8 B/edge key
	// table on top of what an open legitimately allocates.
	if grown >= landmarkBytes {
		t.Fatalf("opening via mmap grew the heap by %d bytes; the landmark distances are %d, all mapped files %d: something mapped was copied",
			grown, landmarkBytes, mappedBytes)
	}
	t.Logf("heap growth %d bytes for %d mapped bytes (%d of them landmark distances)", grown, mappedBytes, landmarkBytes)

	// The budget above cannot see a copy smaller than itself (the key table
	// is a sixth of the distances, the attribute matrix smaller still), so
	// the structures handed out as slices are also held to the mapping by
	// address.
	slabPath := filepath.Join(dir, fileSlab)
	nodes := unsafe.Pointer(reflect.ValueOf(env.G).Elem().FieldByName("nodes").Pointer())
	for what, p := range map[string]unsafe.Pointer{
		"landmark distances": unsafe.Pointer(&env.Landmarks.Flat()[0]),
		"graph's node array": nodes,
		"attribute matrix":   unsafe.Pointer(&env.Objects[0].Attrs[0]),
	} {
		if !mappedFrom(t, slabPath, p) {
			t.Errorf("the opened %s: not in the slab's mapping", what)
		}
	}
	f, err := slab.Open(slabPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	keys, err := openEdgeKeys(f, env.G)
	if err != nil {
		t.Fatal(err)
	}
	if !mappedFrom(t, slabPath, unsafe.Pointer(&keys[0])) {
		t.Error("the opened edge keys do not alias the slab's mapping")
	}

	// And the env actually serves queries.
	q := Query{Points: testnet.RandomLocations(rng, g, 2)}
	res, err := Run(context.Background(), env, q, AlgLBC, Options{ColdCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skyline) == 0 {
		t.Error("mmap env returned an empty skyline")
	}
}
