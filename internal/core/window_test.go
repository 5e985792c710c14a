package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

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
	o.rects[tree.NumNodes()-1] = tree.Bounds() // the root, which SearchFunc enters without descend
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

// FuzzEDCWindow is TestEDCWindowMatchesRescan's fuzz entry: a random network
// and object set, |Q| from 1 to 4, 0 to 2 attributes and an R-tree fanout of
// 4, 8 or 100. It builds no landmark table, which the window never reads, to
// keep each input fast.
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
		checkWindows(t, newWindowOracle(env), q, Options{})
	})
}
