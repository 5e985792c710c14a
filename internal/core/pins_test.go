package core

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"reflect"
	"slices"
	"strings"
	"testing"

	"roadskyline/internal/gen"
	"roadskyline/internal/graph"
	"roadskyline/internal/testnet"
)

var update = flag.Bool("update", false, "rewrite this package's cells of testdata/pins.json")

// The core pins: every work counter and the exact answer (object ids and
// distance bits, in report order) of LBC, EDC and CE cells,
// held to testdata/pins.json, so that a change to any of it shows as a
// number. Beside the table, each cell checks the relations that make its
// numbers right:
//   - an LBC skyline equals CE's as a set;
//   - an EDC cell pins the paper's EDC (DisablePLB, every candidate's
//     vector in full, every seed's window opened) and, beside it, the
//     default arm, which verifies seeds and window candidates bounds-first
//     and opens no dominated seed's window; a CE cell pins the paper's CE
//     (DisablePLB, its wavefronts complete every candidate) and the default
//     arm, whose A* sessions settle the candidates bounds-first once
//     admission closes. Each default arm returns the same skyline as a set,
//     bit for bit, expanding, reading, fetching and completing no more;
//   - on NA60, the sessions opened with a frontier scan stay under half of
//     one per (candidate, non-source searcher) pair;
//   - a cell answered again gives the same record.

// pinInst is an instance: a network with its objects, and seeded query sets.
type pinInst struct {
	net  string
	seed int64
	env  func(t testing.TB, attrs int) *Env
	pts  func(env *Env, nq, set int) []graph.Location
}

var (
	instCA = &pinInst{"CA", 1, pinCA.env, regionPts}
	instNA = &pinInst{"NA60", 1, pinNA.env, regionPts}
	// Two islands sharing the unit square: set 0's three points on one,
	// later sets' on both, so every vector has a +Inf component.
	instIslands = &pinInst{"islands", 5,
		func(t testing.TB, _ int) *Env { return islandsEnv(t) },
		func(env *Env, _, set int) []graph.Location { return islandPts(env, set) }}
	// Every location holds two objects. Three random points, the first of
	// set 1 on a twin pair; with |Q| = 1, the one point on a twin pair.
	instTwins = &pinInst{"twins", 9,
		func(t testing.TB, _ int) *Env { return twinsEnv(t) },
		func(env *Env, nq, set int) []graph.Location {
			if nq == 1 {
				return onTwins(env, set)
			}
			return twinPts(env, set)
		}}
)

// regionPts draws nq query points in a tenth of the network.
func regionPts(env *Env, nq, set int) []graph.Location {
	return gen.QueryPoints(env.G, nq, 0.1, 1+int64(set))
}

// pinCell is a cell: an instance answered by one algorithm.
type pinCell struct {
	name      string
	inst      *pinInst
	alg       Algorithm
	nq, attrs int
	opts      Options
	sets      int // query sets summed; pinQueries when zero
	runs      int // answers compared with each other; 2 when zero
}

const pinQueries = 2

// Every LBC source and ablation.
var lbcCells = []pinCell{
	{name: "CA/q2", inst: instCA, alg: AlgLBC, nq: 2},
	{name: "CA/q4", inst: instCA, alg: AlgLBC, nq: 4},
	{name: "CA/q8", inst: instCA, alg: AlgLBC, nq: 8},
	{name: "CA/q4/source2", inst: instCA, alg: AlgLBC, nq: 4, opts: Options{LBCSource: 2}},
	{name: "CA/q4/alternate", inst: instCA, alg: AlgLBC, nq: 4, opts: Options{LBCAlternate: true}},
	{name: "CA/q4/nolandmarks", inst: instCA, alg: AlgLBC, nq: 4, opts: Options{DisableLandmarks: true}},
	{name: "CA/q4/noheuristic", inst: instCA, alg: AlgLBC, nq: 4, opts: Options{DisableAStarHeuristic: true}},
	{name: "CA/q4/noplb", inst: instCA, alg: AlgLBC, nq: 4, opts: Options{DisablePLB: true}},
	{name: "CA/q4/attrs", inst: instCA, alg: AlgLBC, nq: 4, attrs: 2},
	{name: "CA/q8/alternate/attrs", inst: instCA, alg: AlgLBC, nq: 8, attrs: 2, opts: Options{LBCAlternate: true}},
	{name: "NA60/q2", inst: instNA, alg: AlgLBC, nq: 2},
	{name: "NA60/q4", inst: instNA, alg: AlgLBC, nq: 4},
	{name: "NA60/q8", inst: instNA, alg: AlgLBC, nq: 8},
	{name: "NA60/q4/alternate", inst: instNA, alg: AlgLBC, nq: 4, opts: Options{LBCAlternate: true}},
	{name: "NA60/q4/nolandmarks", inst: instNA, alg: AlgLBC, nq: 4, opts: Options{DisableLandmarks: true}},
	{name: "twins/source0", inst: instTwins, alg: AlgLBC, nq: 3},
	{name: "twins/source1", inst: instTwins, alg: AlgLBC, nq: 3, opts: Options{LBCSource: 1}},
	{name: "twins/source2", inst: instTwins, alg: AlgLBC, nq: 3, opts: Options{LBCSource: 2}},
	{name: "twins/alternate", inst: instTwins, alg: AlgLBC, nq: 3, opts: Options{LBCAlternate: true}},
	{name: "twins/nolandmarks", inst: instTwins, alg: AlgLBC, nq: 3, opts: Options{DisableLandmarks: true}},
	{name: "twins/q1", inst: instTwins, alg: AlgLBC, nq: 1},
	{name: "twins/q1/alternate", inst: instTwins, alg: AlgLBC, nq: 1, opts: Options{LBCAlternate: true}},
}

// The paper's EDC, each cell followed by the default arm's, "/default",
// which is checked against it.
var edcCells = withDefaultArms([]pinCell{
	{name: "CA/q1", inst: instCA, alg: AlgEDC, nq: 1, opts: Options{DisablePLB: true}},
	{name: "CA/q2", inst: instCA, alg: AlgEDC, nq: 2, opts: Options{DisablePLB: true}},
	{name: "CA/q4", inst: instCA, alg: AlgEDC, nq: 4, opts: Options{DisablePLB: true}},
	{name: "CA/q8", inst: instCA, alg: AlgEDC, nq: 8, opts: Options{DisablePLB: true}},
	{name: "CA/q4/attrs", inst: instCA, alg: AlgEDC, nq: 4, attrs: 2, opts: Options{DisablePLB: true}},
	{name: "CA/q4/nolandmarks", inst: instCA, alg: AlgEDC, nq: 4, opts: Options{DisablePLB: true, DisableLandmarks: true}},
	{name: "CA/q4/noheuristic", inst: instCA, alg: AlgEDC, nq: 4, opts: Options{DisablePLB: true, DisableAStarHeuristic: true}},
	{name: "NA60/q4", inst: instNA, alg: AlgEDC, nq: 4, opts: Options{DisablePLB: true}},
	{name: "islands", inst: instIslands, alg: AlgEDC, nq: 3, opts: Options{DisablePLB: true}},
	{name: "islands/attrs", inst: instIslands, alg: AlgEDC, nq: 3, attrs: 1, opts: Options{DisablePLB: true}},
	{name: "twins/q1", inst: instTwins, alg: AlgEDC, nq: 1, opts: Options{DisablePLB: true}},
	{name: "twins", inst: instTwins, alg: AlgEDC, nq: 3, opts: Options{DisablePLB: true}},
})

// withDefaultArms follows each DisablePLB cell with its default arm.
func withDefaultArms(paper []pinCell) []pinCell {
	var cells []pinCell
	for _, c := range paper {
		def := c
		def.name += "/default"
		def.opts.DisablePLB = false
		cells = append(cells, c, def)
	}
	return cells
}

// The paper's CE, each cell followed by the default arm's. CE used to range
// over its candidate map wherever searchers ran out of network, so on a
// disconnected network one query could report the same skyline in a
// different order from run to run: the islands cells answer their sets 50
// times. CA/q4 is paper_cold's shape.
var ceCells = withDefaultArms([]pinCell{
	{name: "islands", inst: instIslands, alg: AlgCE, nq: 3, sets: 6, runs: 50, opts: Options{DisablePLB: true}},
	{name: "CA/q4", inst: instCA, alg: AlgCE, nq: 4, sets: 9, opts: Options{DisablePLB: true}},
})

func TestBoundFirstPinsWork(t *testing.T)    { runPins(t, lbcCells) }
func TestEDCBoundFirstPinsWork(t *testing.T) { runPins(t, edcCells) }
func TestCEPinsWork(t *testing.T)            { runPins(t, ceCells) }

// runPins checks every cell in its own subtest against t's group of the pin
// table, or rewrites the group under -update.
func runPins(t *testing.T, cells []pinCell) {
	names := make([]string, len(cells))
	for i, c := range cells {
		names[i] = c.name
	}
	pins := testnet.LoadPins(t, "../../"+testnet.PinsFile, *update, names)
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && c.inst == instNA {
				t.Skip("NA cells skipped in -short")
			}
			pins.Check(t, c.check(t))
		})
	}
}

// check answers the cell, checks its relations, and returns its record.
func (c pinCell) check(t *testing.T) testnet.Pin {
	t.Helper()
	env := c.inst.env(t, c.attrs)
	got, pairs, byID := c.answer(t, env, c.opts, true)
	for run := 1; run < max(c.runs, 2); run++ {
		if again, _, _ := c.answer(t, env, c.opts, false); again != got {
			t.Fatalf("answer %d differs: %v", run, got.Diff(again))
		}
	}
	if c.inst == instNA && 2*got.Scans > pairs {
		t.Errorf("%d sessions opened with a frontier scan for %d (candidate, searcher) pairs, want at most half", got.Scans, pairs)
	}
	if c.alg != AlgLBC && !c.opts.DisablePLB {
		opts := c.opts
		opts.DisablePLB = true
		paper, _, paperByID := c.answer(t, env, opts, false)
		if byID != paperByID {
			t.Errorf("bound-first %v answers differently:\n got  %+v\n paper's %+v", c.alg, got, paper)
		}
		if got.Nodes > paper.Nodes || got.Pages > paper.Pages || got.Distances > paper.Distances || got.Candidates > paper.Candidates {
			t.Errorf("bound-first %v does more work:\n got  %+v\n paper's %+v", c.alg, got, paper)
		}
	}
	return got
}

// answer runs the cell's query sets under opts and returns their summed work,
// the number of (candidate, non-source searcher) pairs and a hash of the
// answers as sets: each skyline hashed as Pin.Hash is, in id order. With
// check, each answer is first held to an independent one.
func (c pinCell) answer(t *testing.T, env *Env, opts Options, check bool) (testnet.Pin, int, string) {
	t.Helper()
	ctx := context.Background()
	p := testnet.Pin{Name: c.name, Net: c.inst.net, Seed: c.inst.seed, Q: c.nq, Attrs: c.attrs,
		Queries: max(c.sets, pinQueries), Alg: c.alg.String(), Options: optionString(opts)}
	h, byID := fnv.New64a(), fnv.New64a()
	opts.ColdCache = true
	pairs := 0
	for set := range p.Queries {
		pts := c.inst.pts(env, c.nq, set)
		q := Query{Points: pts, UseAttrs: c.attrs > 0}
		res, err := Run(ctx, env, q, c.alg, opts)
		if err != nil {
			t.Fatalf("set %d: %v", set, err)
		}
		if check && c.alg == AlgLBC {
			ce, err := Run(ctx, env, q, AlgCE, Options{ColdCache: true})
			if err != nil {
				t.Fatalf("set %d: CE: %v", set, err)
			}
			if err := sameSkyline(res, ce); err != nil {
				t.Errorf("set %d: LBC against CE: %v", set, err)
			}
		}
		for _, sp := range res.Skyline {
			hashVec(h, sp.Object.ID, sp.Vec)
		}
		for _, sp := range slices.SortedFunc(slices.Values(res.Skyline), bySkylineID) {
			hashVec(byID, sp.Object.ID, sp.Vec)
		}
		m := res.Metrics
		p.Skyline += len(res.Skyline)
		pairs += m.Candidates * (len(pts) - 1)
		p.Nodes += m.NodesExpanded
		p.Pages += m.NetworkPages
		p.Candidates += m.Candidates
		p.Distances += m.DistanceComputations
		p.Scans += m.sessionScans
	}
	p.Hash = fmt.Sprintf("%#x", h.Sum64())
	return p, pairs, fmt.Sprintf("%#x", byID.Sum64())
}

// bySkylineID orders skyline points by object id.
func bySkylineID(a, b SkylinePoint) int { return cmp.Compare(a.Object.ID, b.Object.ID) }

// optionString lists the options set, the way the pin table records them:
// flags by name, numbers as name=value. ColdCache is always on.
func optionString(o Options) string {
	var out []string
	v := reflect.ValueOf(o)
	for i := range v.NumField() {
		f, name := v.Field(i), v.Type().Field(i).Name
		switch {
		case name == "ColdCache" || f.IsZero():
		case f.Kind() == reflect.Bool:
			out = append(out, name)
		default:
			out = append(out, fmt.Sprintf("%s=%v", name, f))
		}
	}
	return strings.Join(out, " ")
}
