package rtree

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"roadskyline/internal/geom"
	"roadskyline/internal/skyline"
)

func randomPoints(rng *rand.Rand, n int) []Entry {
	entries := make([]Entry, n)
	for i := range entries {
		p := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		entries[i] = Entry{Rect: geom.RectFromPoint(p), ID: int32(i)}
	}
	return entries
}

func TestBulkLoadInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 5, 16, 17, 100, 1000, 12345} {
		tr := BulkLoad(randomPoints(rng, n), 16)
		if tr.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tr.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestSearchWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	entries := randomPoints(rng, 3000)
	tr := BulkLoad(append([]Entry(nil), entries...), 32)
	for trial := 0; trial < 50; trial++ {
		w := geom.RectFromPoints(
			geom.Point{X: rng.Float64(), Y: rng.Float64()},
			geom.Point{X: rng.Float64(), Y: rng.Float64()},
		)
		got := map[int32]bool{}
		tr.SearchFunc(func(_ int, r geom.Rect) bool { return intersects(w, r) }, func(_ int, leaf []Entry) bool {
			for _, e := range leaf {
				got[e.ID] = intersects(w, e.Rect)
			}
			return true
		})
		for _, e := range entries {
			want := intersects(w, e.Rect)
			if got[e.ID] != want {
				t.Fatalf("window %v entry %d: got %v, want %v", w, e.ID, got[e.ID], want)
			}
		}
	}
}

// TestSearchEarlyStop: a visit returning false ends the walk, so no later
// leaf is visited.
func TestSearchEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := BulkLoad(randomPoints(rng, 500), 16)
	count := 0
	tr.SearchFunc(func(int, geom.Rect) bool { return true }, func(int, []Entry) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Fatalf("early stop visited %d leaves", count)
	}
}

func TestSearchFuncDisks(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	entries := randomPoints(rng, 2000)
	tr := BulkLoad(append([]Entry(nil), entries...), 32)
	// Intersection of two disks, the EDC step-3 shape.
	c1, r1 := geom.Point{X: 0.3, Y: 0.3}, 0.4
	c2, r2 := geom.Point{X: 0.7, Y: 0.6}, 0.5
	descend := func(_ int, r geom.Rect) bool {
		return r.MinDist(c1) <= r1 && r.MinDist(c2) <= r2
	}
	got := map[int32]bool{}
	tr.SearchFunc(descend, func(_ int, leaf []Entry) bool {
		for _, e := range leaf {
			got[e.ID] = descend(0, e.Rect)
		}
		return true
	})
	for _, e := range entries {
		p := e.Point()
		want := p.Dist(c1) <= r1 && p.Dist(c2) <= r2
		if got[e.ID] != want {
			t.Fatalf("entry %d at %v: got %v, want %v", e.ID, p, got[e.ID], want)
		}
	}
}

// TestSearchFuncIDs: SearchFunc passes every node but the root to descend
// once under a distinct id in [0, NumNodes()), the root's being the last
// id, and each leaf to visit once, right after descend accepted it (a root
// that is a leaf, without descend): leaf k, with the contiguous positions
// [k*fanout, (k+1)*fanout) of the slice LoadSorted was given, as that
// sub-slice.
//
// Seeded mutation: a leaf passed with its position counted from 1 fails the
// slice check.
func TestSearchFuncIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, c := range []struct{ n, fanout int }{{0, 4}, {1, 4}, {4, 4}, {5, 4}, {17, 4}, {100, 4}, {1000, 16}, {12345, DefaultFanout}} {
		entries := randomPoints(rng, c.n)
		SortSTR(entries, c.fanout)
		tr := LoadSorted(slices.Clone(entries), c.fanout)
		if tr.Fanout() != c.fanout {
			t.Fatalf("n=%d: Fanout() = %d, built at %d", c.n, tr.Fanout(), c.fanout)
		}
		rects := make([]geom.Rect, tr.NumNodes())
		seen := make([]bool, tr.NumNodes())
		root := tr.NumNodes() - 1
		leaf := root
		pos := make([]bool, c.n)
		tr.SearchFunc(func(id int, r geom.Rect) bool {
			if id < 0 || id >= root || seen[id] {
				t.Fatalf("n=%d: node id %d out of [0, %d) or passed twice", c.n, id, root)
			}
			seen[id], rects[id], leaf = true, r, id
			return true
		}, func(first int, got []Entry) bool {
			if first != leaf*c.fanout {
				t.Fatalf("n=%d: leaf %d visited at position %d, want %d", c.n, leaf, first, leaf*c.fanout)
			}
			want := entries[first:min(first+c.fanout, c.n)]
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d: leaf at position %d holds %d entries unlike the slice's %d there", c.n, first, len(got), len(want))
			}
			for p := first; p < first+len(got); p++ {
				if pos[p] {
					t.Fatalf("n=%d: position %d visited twice", c.n, p)
				}
				pos[p] = true
			}
			return true
		})
		if i := slices.Index(seen[:root], false); i >= 0 {
			t.Fatalf("n=%d: node %d of %d never passed to descend", c.n, i, tr.NumNodes())
		}
		if i := slices.Index(pos, false); i >= 0 {
			t.Fatalf("n=%d: position %d never visited", c.n, i)
		}
		// The ids are the tree's, not the walk's: a second walk names the
		// same rectangles.
		tr.SearchFunc(func(id int, r geom.Rect) bool {
			if r != rects[id] {
				t.Fatalf("n=%d: node %d is %v, was %v", c.n, id, r, rects[id])
			}
			return true
		}, func(int, []Entry) bool { return true })
	}
}

func TestNNIteratorOrderAndCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	entries := randomPoints(rng, 1500)
	tr := BulkLoad(append([]Entry(nil), entries...), 16)
	for trial := 0; trial < 10; trial++ {
		q := geom.Point{X: rng.Float64() * 1.4, Y: rng.Float64() * 1.4}
		it := tr.NewNNIterator(q, nil)
		var dists []float64
		seen := map[int32]bool{}
		prev := -1.0
		for {
			e, d, ok := it.Next()
			if !ok {
				break
			}
			if d < prev-1e-12 {
				t.Fatalf("NN order violated: %v after %v", d, prev)
			}
			if math.Abs(d-q.Dist(e.Point())) > 1e-9 {
				t.Fatalf("NN distance wrong: %v vs %v", d, q.Dist(e.Point()))
			}
			prev = d
			seen[e.ID] = true
			dists = append(dists, d)
		}
		if len(seen) != len(entries) {
			t.Fatalf("iterator returned %d of %d entries", len(seen), len(entries))
		}
		// Spot-check against linear scan for the first neighbor.
		want := math.Inf(1)
		for _, e := range entries {
			if d := q.Dist(e.Point()); d < want {
				want = d
			}
		}
		if math.Abs(dists[0]-want) > 1e-9 {
			t.Fatalf("first NN %v, linear scan %v", dists[0], want)
		}
	}
}

func TestNNIteratorPrune(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	entries := randomPoints(rng, 800)
	tr := BulkLoad(append([]Entry(nil), entries...), 16)
	q := geom.Point{X: 0.5, Y: 0.5}
	// Prune everything left of x = 0.5.
	prune := func(r geom.Rect) bool { return r.MaxX < 0.5 }
	it := tr.NewNNIterator(q, prune)
	count := 0
	for {
		e, _, ok := it.Next()
		if !ok {
			break
		}
		if e.Point().X < 0.5 {
			t.Fatalf("pruned region leaked entry at %v", e.Point())
		}
		count++
	}
	want := 0
	for _, e := range entries {
		if e.Point().X >= 0.5 {
			want++
		}
	}
	if count != want {
		t.Fatalf("prune returned %d, want %d", count, want)
	}
}

// The prune function may become stricter mid-iteration; already-queued
// items must be re-checked at pop time.
func TestNNIteratorDynamicPrune(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	entries := randomPoints(rng, 500)
	tr := BulkLoad(append([]Entry(nil), entries...), 4) // deep tree
	q := geom.Point{X: 0, Y: 0}
	cut := math.Inf(1) // prune everything farther than cut from q
	prune := func(r geom.Rect) bool { return r.MinDist(q) > cut }
	it := tr.NewNNIterator(q, prune)
	e, d, ok := it.Next()
	if !ok {
		t.Fatal("no first entry")
	}
	_ = e
	cut = d + 0.05 // only entries within d+0.05 are acceptable now
	for {
		e, dist, ok := it.Next()
		if !ok {
			break
		}
		if dist > cut+1e-12 {
			t.Fatalf("entry %d at dist %v exceeds dynamic cut %v", e.ID, dist, cut)
		}
	}
}

func TestNearestNeighborEmpty(t *testing.T) {
	tr := BulkLoad(nil, 8)
	it := tr.NewNNIterator(geom.Point{}, nil)
	if _, _, ok := it.Next(); ok {
		t.Error("empty iterator returned a neighbor")
	}
	tr.SearchFunc(func(int, geom.Rect) bool { return true }, func(_ int, leaf []Entry) bool {
		if len(leaf) > 0 {
			t.Errorf("empty tree visited entries %v", leaf)
		}
		return true
	})
}

func TestSkylineIteratorMatchesBNL(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 40; trial++ {
		n := 50 + rng.Intn(400)
		entries := randomPoints(rng, n)
		tr := BulkLoad(append([]Entry(nil), entries...), 16)
		numQ := 1 + rng.Intn(4)
		qs := make([]geom.Point, numQ)
		for i := range qs {
			qs[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
		}
		// Reference: skyline of distance vectors.
		vecs := make([][]float64, n)
		for i, e := range entries {
			v := make([]float64, numQ)
			for j, q := range qs {
				v[j] = q.Dist(e.Point())
			}
			vecs[i] = v
		}
		want := map[int]bool{}
		for _, i := range skyline.Skyline(vecs) {
			want[i] = true
		}
		it := tr.NewSkylineIterator(qs, nil)
		got := map[int]bool{}
		prevSum := -1.0
		for {
			e, vec, ok := it.Next()
			if !ok {
				break
			}
			got[int(e.ID)] = true
			sum := 0.0
			for j, q := range qs {
				if math.Abs(vec[j]-q.Dist(e.Point())) > 1e-9 {
					t.Fatalf("vector component wrong")
				}
				sum += vec[j]
			}
			if sum < prevSum-1e-9 {
				t.Fatalf("skyline not in mindist order: %v after %v", sum, prevSum)
			}
			prevSum = sum
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d skyline points, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if !got[i] {
				t.Fatalf("trial %d: missing skyline point %d", trial, i)
			}
		}
	}
}

func TestSkylineIteratorExternalPrune(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	entries := randomPoints(rng, 300)
	tr := BulkLoad(append([]Entry(nil), entries...), 16)
	qs := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}}
	// Suppress everything whose distance to q0 exceeds 0.8.
	it := tr.NewSkylineIterator(qs, &SkylineOptions{Prune: func(vec []float64) bool { return vec[0] > 0.8 }})
	for {
		_, vec, ok := it.Next()
		if !ok {
			break
		}
		if vec[0] > 0.8 {
			t.Fatalf("externally pruned point returned: %v", vec)
		}
	}
}

func TestNodeAccessesCounting(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tr := BulkLoad(randomPoints(rng, 2000), 16)
	tr.ResetNodeAccesses()
	w := geom.Rect{MinX: 0.4, MinY: 0.4, MaxX: 0.6, MaxY: 0.6}
	tr.SearchFunc(func(_ int, r geom.Rect) bool { return intersects(w, r) }, func(int, []Entry) bool { return true })
	if tr.NodeAccesses() == 0 {
		t.Error("window query counted no node accesses")
	}
	tr.ResetNodeAccesses()
	if tr.NodeAccesses() != 0 {
		t.Error("ResetNodeAccesses failed")
	}
}

func TestBulkLoadHeightBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tr := BulkLoad(randomPoints(rng, 10000), 100)
	// 10000 entries at fanout 100 should pack into exactly 2 levels.
	if h := tr.height(); h != 2 {
		t.Errorf("height = %d, want 2", h)
	}
	// All leaves at the same depth.
	depths := map[int]bool{}
	var walk func(n *node, d int)
	walk = func(n *node, d int) {
		if n.leaf {
			depths[d] = true
			return
		}
		for _, c := range n.children {
			walk(c, d+1)
		}
	}
	walk(tr.root, 1)
	if len(depths) != 1 {
		t.Errorf("leaves at multiple depths: %v", depths)
	}
}

// NN iterator must visit far fewer nodes than a full scan on clustered
// queries (sanity check that best-first pruning works).
func TestNNIteratorEfficiency(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	tr := BulkLoad(randomPoints(rng, 20000), 100)
	tr.ResetNodeAccesses()
	it := tr.NewNNIterator(geom.Point{X: 0.5, Y: 0.5}, nil)
	for i := 0; i < 10; i++ {
		it.Next()
	}
	total := int64(1 + (20000+99)/100)
	if tr.NodeAccesses()*10 > total {
		t.Errorf("10-NN visited %d of %d nodes", tr.NodeAccesses(), total)
	}
}

func TestEntriesSortedStability(t *testing.T) {
	// BulkLoad reorders its input slice; verify Len/queries still see all.
	entries := []Entry{
		{Rect: geom.RectFromPoint(geom.Point{X: 0.9, Y: 0.1}), ID: 0},
		{Rect: geom.RectFromPoint(geom.Point{X: 0.1, Y: 0.9}), ID: 1},
		{Rect: geom.RectFromPoint(geom.Point{X: 0.5, Y: 0.5}), ID: 2},
	}
	tr := BulkLoad(entries, 4)
	var ids []int32
	tr.SearchFunc(func(int, geom.Rect) bool { return true }, func(_ int, leaf []Entry) bool {
		for _, e := range leaf {
			ids = append(ids, e.ID)
		}
		return true
	})
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) != 3 || ids[0] != 0 || ids[1] != 1 || ids[2] != 2 {
		t.Fatalf("ids = %v", ids)
	}
}

// treeShape serializes a tree depth first: every node's MBR, every leaf's
// entry ids. Two trees with equal shapes answer every query through the same
// nodes.
func treeShape(n *node, out *[]float64) {
	*out = append(*out, n.rect.MinX, n.rect.MinY, n.rect.MaxX, n.rect.MaxY, float64(len(n.children)), float64(len(n.entries)))
	for _, e := range n.entries {
		*out = append(*out, float64(e.ID))
	}
	for _, c := range n.children {
		treeShape(c, out)
	}
}

// LoadSorted over SortSTR's order — or over the ids of that order with the
// entries rebuilt from them, which is what a reopened network directory
// does — is BulkLoad's tree node for node, duplicates and tied coordinates
// included.
func TestLoadSortedMatchesBulkLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, n := range []int{0, 1, 3, 4, 5, 99, 100, 101, 1000, 5230} {
		for _, fanout := range []int{1, 4, 7, 100} {
			entries := randomPoints(rng, n)
			for i := range entries {
				if i%5 == 1 { // ties: a twin of the previous point, and shared X
					entries[i].Rect = entries[i-1].Rect
				} else if i%7 == 3 {
					entries[i].Rect = geom.RectFromPoint(geom.Point{X: 0.5, Y: entries[i].Rect.MinY})
				}
			}
			byID := append([]Entry(nil), entries...)
			want := BulkLoad(append([]Entry(nil), entries...), fanout)

			SortSTR(entries, fanout)
			rebuilt := make([]Entry, len(entries))
			for i, e := range entries {
				rebuilt[i] = byID[e.ID]
			}
			for name, got := range map[string]*Tree{"sorted": LoadSorted(entries, fanout), "rebuilt": LoadSorted(rebuilt, fanout)} {
				if err := got.CheckInvariants(); err != nil {
					t.Fatalf("n=%d fanout=%d %s: %v", n, fanout, name, err)
				}
				if got.Len() != want.Len() || got.height() != want.height() || got.root.rect != want.root.rect {
					t.Fatalf("n=%d fanout=%d %s: len/height/bounds %d/%d/%v, want %d/%d/%v", n, fanout, name,
						got.Len(), got.height(), got.root.rect, want.Len(), want.height(), want.root.rect)
				}
				var a, b []float64
				treeShape(got.root, &a)
				treeShape(want.root, &b)
				if !slices.Equal(a, b) {
					t.Fatalf("n=%d fanout=%d %s: tree differs from BulkLoad's", n, fanout, name)
				}
			}
		}
	}
}
