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

// windowOracle answers EDC's window query by brute force: every entry of
// the object R-tree in depth-first leaf order, its Euclidean vector computed
// afresh, and the rectangle of every node by id.
type windowOracle struct {
	env     *Env
	entries []rtree.Entry // depth-first leaf order
	pos     []int         // each entry's position in the tree's leaf order
	rects   []geom.Rect   // by node id; the root's is unused
}

func newWindowOracle(env *Env) *windowOracle {
	o := &windowOracle{env: env, rects: make([]geom.Rect, env.ObjTree.NumNodes())}
	env.ObjTree.SearchFunc(func(id int, r geom.Rect) bool {
		o.rects[id] = r
		return true
	}, func(pos int, e rtree.Entry) bool {
		o.entries, o.pos = append(o.entries, e), append(o.pos, pos)
		return true
	})
	return o
}

// check holds one window to the rescan: the same members in the same order
// with the same far bits. It then holds every distance the window's memos
// have filled to the value computed afresh, and their count to |Q| per node
// and entry of the tree at most.
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
		if err := filledAsComputed(w.node.peek(id), rectLowerBoundVec(w.qPts, buf[:n], r)); err != nil {
			return fmt.Errorf("node %d: %v", id, err)
		}
	}
	for i, e := range o.entries {
		if err := filledAsComputed(w.entry.peek(o.pos[i]), euclidVec(o.env, false, w.qPts, buf[:n], e)); err != nil {
			return fmt.Errorf("object %d: %v", e.ID, err)
		}
	}
	if most := n * (o.env.ObjTree.NumNodes() + o.env.ObjTree.Len()); w.fills > most {
		return fmt.Errorf("%d distances computed, more than |Q| = %d per node and entry (%d)", w.fills, n, most)
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

// peek returns index i's vector, or nil when its block was never allocated;
// unlike at it allocates nothing.
func (m *vecMemo) peek(i int) []float64 {
	if m.blocks[i/memoBlock] == nil {
		return nil
	}
	return m.at(i)
}

// checkWindows runs q under opts with every window held to the oracle, and
// returns the result and the number of windows.
func checkWindows(t testing.TB, o *windowOracle, q Query, opts Options) (*Result, int) {
	t.Helper()
	windows := 0
	var failed error
	testHookEDCWindow = func(w *edcWindow, pbar []float64, batch []windowCand) {
		windows++
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
	return res, windows
}

// TestEDCWindowMatchesRescan holds every window of EDC queries to a
// brute-force rescan of the unfetched objects: CA with 0, 1 and 2 attributes
// (and at fanout 4, six levels deep), islands, where p-bar
// has +Inf components, and twins, where vectors tie exactly; each with and
// without DisablePLB, which must also give the same answer.
//
// Seeded mutations: a memo that never stores what it computes fails the
// count of distances computed; a memoized object that skips the fetched
// test fails the batch; a node memo read one id off fails the node vectors.
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
					got, windows := checkWindows(t, o, q, Options{ColdCache: true})
					paper, _ := checkWindows(t, o, q, Options{ColdCache: true, DisablePLB: true})
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
