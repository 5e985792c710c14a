package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"roadskyline/internal/bruteforce"
	"roadskyline/internal/gen"
	"roadskyline/internal/geom"
	"roadskyline/internal/graph"
	"roadskyline/internal/rtree"
	"roadskyline/internal/skyline"
	"roadskyline/internal/testnet"
)

// euclidVec fills buf with e's full Euclidean vector computed afresh:
// distances to the query points, then the object's static attributes when
// useAttrs is set.
func euclidVec(env *Env, useAttrs bool, qPts []geom.Point, buf []float64, e rtree.Entry) []float64 {
	p := e.Point()
	for i, qp := range qPts {
		buf[i] = p.Dist(qp)
	}
	env.fillAttrs(buf, len(qPts), graph.ObjectID(e.ID), useAttrs)
	return buf
}

// rectLowerBoundVec fills buf with r's lower-bound vector computed afresh:
// minimum possible distances to the query points, with attribute
// dimensions bounded below by zero.
func rectLowerBoundVec(qPts []geom.Point, buf []float64, r geom.Rect) []float64 {
	for i, qp := range qPts {
		buf[i] = r.MinDist(qp)
	}
	for i := len(qPts); i < len(buf); i++ {
		buf[i] = 0
	}
	return buf
}

// windowOracle answers EDC's window query by brute force: every entry of
// the object R-tree in depth-first leaf order, its Euclidean vector computed
// afresh, and the rectangle of every node by id.
type windowOracle struct {
	env     *Env
	tree    *rtree.Tree     // a clone: the oracle's walks count no node visit of a query
	entries []rtree.Entry   // depth-first leaf order
	leaves  [][]rtree.Entry // by leaf id
	rects   []geom.Rect     // by node id

	scanned int // entries in the leaves the windows entered: what a walk without live lists tests
}

func newWindowOracle(env *Env) *windowOracle {
	tree := env.ObjTree.Clone()
	o := &windowOracle{
		env:    env,
		tree:   tree,
		leaves: make([][]rtree.Entry, (tree.Len()+tree.Fanout()-1)/tree.Fanout()),
		rects:  make([]geom.Rect, tree.NumNodes()),
	}
	tree.SearchFunc(func(id int, r geom.Rect) bool {
		o.rects[id] = r
		return true
	}, func(first int, leaf []rtree.Entry) bool {
		if len(leaf) > 0 {
			o.entries, o.leaves[first/tree.Fanout()] = append(o.entries, leaf...), leaf
		}
		return true
	})
	// The root, which SearchFunc enters without descend, bounds every entry.
	root := geom.EmptyRect()
	for _, e := range o.entries {
		root = root.Union(e.Rect)
	}
	o.rects[tree.NumNodes()-1] = root
	return o
}

// entered returns the leaves a window under pbar enters, by leaf id, walking
// the tree with every node's MinDist computed afresh.
func (o *windowOracle) entered(qPts []geom.Point, pbar []float64) map[int]bool {
	n := len(qPts)
	buf := make([]float64, n)
	leaves := map[int]bool{}
	o.tree.SearchFunc(func(_ int, r geom.Rect) bool {
		return skyline.DominatesOrEqual(rectLowerBoundVec(qPts, buf, r), pbar[:n])
	}, func(first int, leaf []rtree.Entry) bool {
		leaves[first/o.tree.Fanout()] = true
		o.scanned += len(leaf)
		return true
	})
	return leaves
}

// check holds one window to the rescan: the same members in the same order
// with the same far bits. It then holds every value the window's memos
// have filled to the one computed afresh, and the count of distances to |Q|
// per node and entry of the tree at most. Last it holds each leaf's live
// list to its meaning: in leaf order, every entry neither fetched nor in
// the batch, and in a leaf this window entered nothing else, so a fetched
// entry is read by one scan after its fetch at most.
func (o *windowOracle) check(w *edcWindow, pbar []float64, batch []windowCand) error {
	n := len(w.qPts)
	buf := make([]float64, len(pbar))
	var want []windowCand
	for _, e := range o.entries {
		if w.fetched[e.ID] {
			continue
		}
		if ev := euclidVec(o.env, len(pbar) > n, w.qPts, buf, e); skyline.DominatesOrEqual(ev, pbar) {
			want = append(want, windowCand{graph.ObjectID(e.ID), slices.Max(ev[:n])})
		}
	}
	for i := range max(len(batch), len(want)) {
		if i >= len(batch) || i >= len(want) || batch[i].id != want[i].id ||
			math.Float64bits(batch[i].far) != math.Float64bits(want[i].far) {
			return fmt.Errorf("window under %v: batch %v, rescan %v (first difference at %d)", pbar, batch, want, i)
		}
	}

	for id, r := range o.rects {
		if err := filledAsComputed(w.nodeVec(id), rectLowerBoundVec(w.qPts, buf[:n], r)); err != nil {
			return fmt.Errorf("node %d: %v", id, err)
		}
	}
	for k, leaf := range o.leaves {
		vecs := w.leaves[k].vecs
		if vecs == nil {
			continue
		}
		for j, e := range leaf {
			// The distances are filled in order; with the last, the
			// attributes.
			ev, want := vecs[j*w.dims:][:w.dims], euclidVec(o.env, len(pbar) > n, w.qPts, buf, e)
			filled := 0
			for filled < n && ev[filled] != unfilled {
				filled++
			}
			if filled == n {
				filled = w.dims
			}
			for i, d := range ev[:filled] {
				if math.Float64bits(d) != math.Float64bits(want[i]) {
					return fmt.Errorf("object %d: memo holds %v, computed afresh %v", e.ID, ev, want)
				}
			}
			if slices.ContainsFunc(ev[filled:], func(d float64) bool { return d != unfilled }) {
				return fmt.Errorf("object %d: memo %v filled out of order", e.ID, ev)
			}
		}
	}
	if most := n * (o.env.ObjTree.NumNodes() + o.env.ObjTree.Len()); w.fills > most {
		return fmt.Errorf("%d distances computed, more than |Q| = %d per node and entry (%d)", w.fills, n, most)
	}

	inBatch := map[int32]bool{}
	for _, c := range batch {
		inBatch[int32(c.id)] = true
	}
	entered := o.entered(w.qPts, pbar)
	for k, leaf := range o.leaves {
		live := w.leaves[k].live
		if live == nil {
			if entered[k] {
				return fmt.Errorf("leaf %d entered without a live list", k)
			}
			continue
		}
		for i, le := range live {
			if le.off < 0 || int(le.off) >= len(leaf) || le.id != leaf[le.off].ID || i > 0 && le.off <= live[i-1].off {
				return fmt.Errorf("leaf %d: live list %v out of leaf order or unlike the leaf", k, live)
			}
		}
		for j, e := range leaf {
			in := slices.ContainsFunc(live, func(le liveEntry) bool { return int(le.off) == j })
			switch {
			case !w.fetched[e.ID] && !inBatch[e.ID] && !in:
				return fmt.Errorf("leaf %d: unfetched object %d (offset %d) left the live list %v", k, e.ID, j, live)
			case (w.fetched[e.ID] || inBatch[e.ID]) && in && entered[k]:
				return fmt.Errorf("leaf %d: the window kept fetched object %d (offset %d) live", k, e.ID, j)
			}
		}
	}
	return nil
}

// filledAsComputed checks that each value of a memo vector is either
// unfilled or bit for bit the one computed afresh.
func filledAsComputed(got, want []float64) error {
	for i, d := range got {
		if d != unfilled && math.Float64bits(d) != math.Float64bits(want[i]) {
			return fmt.Errorf("memo holds %v, computed afresh %v", got, want)
		}
	}
	return nil
}

// checkWindows runs q under opts with every window held to the oracle, and
// returns the result, the number of windows and the entries the scans read
// (tests) against those a walk without live lists reads (scanned).
func checkWindows(t testing.TB, o *windowOracle, q Query, opts Options) (res *Result, windows, tests, scanned int) {
	t.Helper()
	var failed error
	o.scanned = 0
	testHookEDCWindow = func(w *edcWindow, pbar []float64, batch []windowCand) {
		windows, tests = windows+1, w.tests
		if err := o.check(w, pbar, batch); err != nil && failed == nil {
			failed = fmt.Errorf("window %d: %w", windows, err)
		}
	}
	defer func() { testHookEDCWindow = nil }()
	res, err := Run(context.Background(), o.env, q, AlgEDC, opts)
	if err != nil {
		t.Fatal(err)
	}
	if failed != nil {
		t.Fatal(failed)
	}
	return res, windows, tests, o.scanned
}

// TestEDCWindowMatchesRescan holds every window of EDC queries to a
// brute-force rescan of the unfetched objects: CA with 0, 1 and 2 attributes
// (and at fanout 4, six levels deep), islands, where p-bar
// has +Inf components, and twins, where vectors tie exactly; each with and
// without DisablePLB, which must also give the same answer.
//
// It logs the entries the scans read per query against those a walk
// without live lists would test.
//
// Seeded mutations: a memo that never stores what it computes fails the
// count of distances computed; a memoized object that skips the fetched
// test fails the batch; a node memo read one id off fails the node vectors;
// a live list that drops an unfetched entry, or a compaction that reorders
// it, fails the live-list check.
func TestEDCWindowMatchesRescan(t *testing.T) {
	caFanout4 := func(t testing.TB, attrs int) *Env {
		g := pinCA.env(t, 0).G
		env, err := NewEnv(g, gen.Objects(g, 0.5, attrs, 1), EnvConfig{RTreeFanout: 4})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { env.Close() })
		return env
	}
	for _, c := range []struct {
		name  string
		env   func(t testing.TB, attrs int) *Env
		pts   func(env *Env, nq, set int) []graph.Location
		nq    int
		attrs []int
		sets  int
	}{
		{"CA", pinCA.env, regionPts, 2, []int{0, 1, 2}, 2},
		{"CA/q4", pinCA.env, regionPts, 4, []int{0}, 1},
		{"CA/q1", pinCA.env, regionPts, 1, []int{1}, 1},
		{"CA/fanout4", caFanout4, regionPts, 2, []int{1}, 1},
		{"islands", instIslands.env, instIslands.pts, 3, []int{0}, 2},
		{"twins", instTwins.env, instTwins.pts, 3, []int{0}, 2},
		{"twins/q1", instTwins.env, instTwins.pts, 1, []int{0}, 2},
	} {
		for _, attrs := range c.attrs {
			name := c.name
			if attrs > 0 {
				name += fmt.Sprintf("/attrs%d", attrs)
			}
			t.Run(name, func(t *testing.T) {
				env := c.env(t, attrs)
				o := newWindowOracle(env)
				for set := range c.sets {
					q := Query{Points: c.pts(env, c.nq, set), UseAttrs: attrs > 0}
					got, windows, tests, scanned := checkWindows(t, o, q, Options{ColdCache: true})
					t.Logf("set %d: %d windows, %d entry tests (%d without live lists)", set, windows, tests, scanned)
					paper, _, _, _ := checkWindows(t, o, q, Options{ColdCache: true, DisablePLB: true})
					if err := sameSkyline(got, paper); err != nil {
						t.Errorf("set %d: DisablePLB: %v", set, err)
					}
					if windows == 0 {
						t.Errorf("set %d: no window", set)
					}
				}
			})
		}
	}
}

// seedWindows is what the window hook saw of one EDC query: each window's
// p-bar in order, the objects the windows fetched, and the seeds — every
// other object fetched, read from the shared fetched array once Run is done.
type seedWindows struct {
	res    *Result
	pbars  [][]float64
	seeds  map[graph.ObjectID]bool
	marked int // objects marked fetched
}

func runSeedWindows(t *testing.T, env *Env, q Query, opts Options) seedWindows {
	t.Helper()
	sw := seedWindows{seeds: map[graph.ObjectID]bool{}}
	var fetched []bool
	inWindow := map[graph.ObjectID]bool{}
	testHookEDCWindow = func(w *edcWindow, pbar []float64, batch []windowCand) {
		fetched = w.fetched
		sw.pbars = append(sw.pbars, slices.Clone(pbar))
		for _, c := range batch {
			inWindow[c.id] = true
		}
	}
	defer func() { testHookEDCWindow = nil }()
	res, err := Run(context.Background(), env, q, AlgEDC, opts)
	if err != nil {
		t.Fatal(err)
	}
	sw.res = res
	for id, f := range fetched {
		if f {
			sw.marked++
			if !inWindow[graph.ObjectID(id)] {
				sw.seeds[graph.ObjectID(id)] = true
			}
		}
	}
	return sw
}

// TestEDCDominatedSeedOpensNoWindow holds the default arm's seeds to the
// rule that a seed the front dominates opens no window, on CA at
// serve_open's shape (|Q| = 2 with one attribute, 49 sets in 10% regions)
// and on the islands, where vectors have +Inf components: no window's p-bar
// is dominated by an earlier one's; every seed that is a skyline point
// opened a window at its own vector; every candidate is marked fetched
// once; and the queries open fewer windows in all than under DisablePLB.
// One query may open more: on the islands the paper's EDC opens the window
// of a seed no query point reaches, whose p-bar is +Inf and fetches every
// object at once, and the default arm opens none for it. It logs seeds and
// windows per query for both arms.
//
// Seeded mutations: a dominated seed that opens its window again fails the
// window count; a seed dropped although its bounds are not dominated fails
// the skyline seeds' windows; a dropped seed left unmarked in fetched
// fails the count of objects marked.
func TestEDCDominatedSeedOpensNoWindow(t *testing.T) {
	var windows, paperWindows int
	serveOpen := func(env *Env) (sets [][]graph.Location) {
		for i := range 49 {
			sets = append(sets, gen.QueryPoints(env.G, 2, 0.1, int64(1+i)))
		}
		return sets
	}
	islands := func(env *Env) [][]graph.Location { return [][]graph.Location{islandPts(env, 0), islandPts(env, 1)} }
	for _, c := range []struct {
		name     string
		env      *Env
		useAttrs bool
		sets     func(env *Env) [][]graph.Location
	}{
		{"CA", pinCA.env(t, 1), true, serveOpen},
		{"islands", instIslands.env(t, 0), false, islands},
		{"islands/attrs", instIslands.env(t, 1), true, islands},
	} {
		t.Run(c.name, func(t *testing.T) {
			for set, pts := range c.sets(c.env) {
				q := Query{Points: pts, UseAttrs: c.useAttrs}
				def := runSeedWindows(t, c.env, q, Options{})
				paper := runSeedWindows(t, c.env, q, Options{DisablePLB: true})
				if err := sameSkyline(def.res, paper.res); err != nil {
					t.Errorf("set %d: the arms answer differently: %v", set, err)
				}
				t.Logf("set %d: %d seeds, %d windows (DisablePLB: %d seeds, %d windows)",
					set, len(def.seeds), len(def.pbars), len(paper.seeds), len(paper.pbars))
				for i, p := range def.pbars {
					for j, earlier := range def.pbars[:i] {
						if skyline.Dominates(earlier, p) {
							t.Errorf("set %d: window %d's p-bar %v is dominated by window %d's %v", set, i, p, j, earlier)
						}
					}
				}
				for _, sp := range def.res.Skyline {
					if def.seeds[sp.Object.ID] && !slices.ContainsFunc(def.pbars, func(p []float64) bool { return slices.Equal(p, sp.Vec) }) {
						t.Errorf("set %d: skyline seed %d opened no window", set, sp.Object.ID)
					}
				}
				if def.marked != def.res.Metrics.Candidates {
					t.Errorf("set %d: %d objects marked fetched for %d candidates", set, def.marked, def.res.Metrics.Candidates)
				}
				windows, paperWindows = windows+len(def.pbars), paperWindows+len(paper.pbars)
			}
		})
	}
	if windows >= paperWindows {
		t.Errorf("%d windows in all, DisablePLB opens %d: no dominated seed was skipped", windows, paperWindows)
	}
}

// matchesOracle holds res to bruteforce.NetworkSkyline as a set: the same
// objects, each distance with the same float64 bits.
func matchesOracle(env *Env, q Query, res *Result) error {
	ids, matrix := bruteforce.NetworkSkyline(env.G, env.Objects, q.Points, q.UseAttrs)
	if got := skylineIDs(res); !sameIDs(got, ids) {
		return fmt.Errorf("skyline %v, oracle %v", got, ids)
	}
	for _, p := range res.Skyline {
		for j, d := range p.Dists {
			if w := matrix[p.Object.ID][j]; math.Float64bits(d) != math.Float64bits(w) {
				return fmt.Errorf("object %d dist[%d] = %v, oracle %v", p.Object.ID, j, d, w)
			}
		}
	}
	return nil
}

// FuzzEDCWindow is TestEDCWindowMatchesRescan's fuzz entry: a random network
// and object set, |Q| from 1 to 4, 0 to 2 attributes and an R-tree fanout of
// 4, 8 or 100. Beside the windows, it holds the skyline of the default arm
// and of DisablePLB to bruteforce.NetworkSkyline. It builds no landmark
// table, which the window never reads, to keep each input fast.
func FuzzEDCWindow(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(0))
	f.Add(int64(2), uint8(4), uint8(1))
	f.Add(int64(3), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nq, attrs uint8) {
		rng := rand.New(rand.NewSource(seed))
		g := testnet.RandomGraph(rng, 40+rng.Intn(160))
		objs := testnet.RandomObjects(rng, g, 1+rng.Intn(300), int(attrs%3))
		env, err := NewEnv(g, objs, EnvConfig{RTreeFanout: []int{4, 8, 100}[rng.Intn(3)], Landmarks: -1})
		if err != nil {
			t.Fatal(err)
		}
		q := Query{Points: testnet.RandomLocations(rng, g, 1+int(nq%4)), UseAttrs: attrs%3 > 0}
		defer env.Close()
		o := newWindowOracle(env)
		for _, opts := range []Options{{}, {DisablePLB: true}} {
			res, _, _, _ := checkWindows(t, o, q, opts)
			if err := matchesOracle(env, q, res); err != nil {
				t.Fatalf("%+v: %v", opts, err)
			}
		}
	})
}
