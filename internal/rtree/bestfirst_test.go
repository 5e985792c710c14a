package rtree

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"roadskyline/internal/geom"
)

// BestFirst with NN keys must reproduce the NN iterator exactly.
func TestBestFirstEqualsNN(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	entries := randomPoints(rng, 800)
	tr := BulkLoad(append([]Entry(nil), entries...), 16)
	q := geom.Point{X: 0.3, Y: 0.7}
	bf := tr.NewBestFirst(
		func(_ int, r geom.Rect) float64 { return r.MinDist(q) },
		func(_ int, e Entry) float64 { return e.Point().Dist(q) },
		nil, nil,
	)
	nn := tr.NewNNIterator(q, nil)
	for {
		e1, d1, ok1 := bf.Next()
		e2, d2, ok2 := nn.Next()
		if ok1 != ok2 {
			t.Fatalf("iterators disagree on exhaustion")
		}
		if !ok1 {
			break
		}
		if math.Abs(d1-d2) > 1e-12 {
			t.Fatalf("key mismatch: %v vs %v", d1, d2)
		}
		_ = e1
		_ = e2
	}
}

// A sum-of-distances key must come out in ascending order and complete.
func TestBestFirstSumKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	entries := randomPoints(rng, 500)
	tr := BulkLoad(append([]Entry(nil), entries...), 8)
	qs := []geom.Point{{X: 0.1, Y: 0.1}, {X: 0.9, Y: 0.9}}
	key := func(p geom.Point) float64 { return p.Dist(qs[0]) + p.Dist(qs[1]) }
	bf := tr.NewBestFirst(
		func(_ int, r geom.Rect) float64 { return r.MinDist(qs[0]) + r.MinDist(qs[1]) },
		func(_ int, e Entry) float64 { return key(e.Point()) },
		nil, nil,
	)
	var got []float64
	for {
		_, k, ok := bf.Next()
		if !ok {
			break
		}
		got = append(got, k)
	}
	if len(got) != len(entries) {
		t.Fatalf("returned %d of %d entries", len(got), len(entries))
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatal("keys not ascending")
	}
	var want []float64
	for _, e := range entries {
		want = append(want, key(e.Point()))
	}
	sort.Float64s(want)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("key %d: %v != %v", i, got[i], want[i])
		}
	}
}

// Node and entry pruning must be applied independently.
func TestBestFirstSplitPruning(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	entries := randomPoints(rng, 600)
	tr := BulkLoad(append([]Entry(nil), entries...), 8)
	q := geom.Point{}
	// Node prune: nothing (conservative); entry prune: odd ids.
	bf := tr.NewBestFirst(
		func(_ int, r geom.Rect) float64 { return r.MinDist(q) },
		func(_ int, e Entry) float64 { return e.Point().Dist(q) },
		nil,
		func(_ int, e Entry) bool { return e.ID%2 == 1 },
	)
	count := 0
	for {
		e, _, ok := bf.Next()
		if !ok {
			break
		}
		if e.ID%2 == 1 {
			t.Fatalf("pruned entry %d returned", e.ID)
		}
		count++
	}
	if count != 300 {
		t.Fatalf("returned %d, want 300", count)
	}
}

// Pruning that becomes stricter mid-iteration must hold at pop time.
func TestBestFirstDynamicPrune(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	entries := randomPoints(rng, 400)
	tr := BulkLoad(append([]Entry(nil), entries...), 4)
	q := geom.Point{}
	cut := math.Inf(1)
	bf := tr.NewBestFirst(
		func(_ int, r geom.Rect) float64 { return r.MinDist(q) },
		func(_ int, e Entry) float64 { return e.Point().Dist(q) },
		func(_ int, r geom.Rect) bool { return r.MinDist(q) > cut },
		func(_ int, e Entry) bool { return e.Point().Dist(q) > cut },
	)
	_, d, ok := bf.Next()
	if !ok {
		t.Fatal("no first entry")
	}
	cut = d + 0.1
	for {
		_, k, ok := bf.Next()
		if !ok {
			break
		}
		if k > cut+1e-12 {
			t.Fatalf("entry at %v beyond dynamic cut %v", k, cut)
		}
	}
}

func TestBestFirstEmptyTree(t *testing.T) {
	tr := BulkLoad(nil, 8)
	bf := tr.NewBestFirst(
		func(int, geom.Rect) float64 { return 0 },
		func(int, Entry) float64 { return 0 },
		nil, nil,
	)
	if _, _, ok := bf.Next(); ok {
		t.Fatal("empty tree returned an entry")
	}
}

// TestBestFirstIDs: BestFirst passes every node with the id SearchFunc
// gives it and every entry with its leaf-order position, to the key and to
// the prune callbacks alike.
func TestBestFirstIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	entries := randomPoints(rng, 2000)
	SortSTR(entries, 16)
	tr := LoadSorted(slices.Clone(entries), 16)
	rects := make([]geom.Rect, tr.NumNodes())
	tr.SearchFunc(func(id int, r geom.Rect) bool {
		rects[id] = r
		return true
	}, func(int, []Entry) bool { return true })
	rects[tr.NumNodes()-1] = tr.root.rect
	node := func(id int, r geom.Rect) {
		if r != rects[id] {
			t.Fatalf("node %d passed as %v, SearchFunc's is %v", id, r, rects[id])
		}
	}
	entry := func(pos int, e Entry) {
		if e != entries[pos] {
			t.Fatalf("entry %d passed at position %d, which holds %d", e.ID, pos, entries[pos].ID)
		}
	}
	q := geom.Point{X: 0.3, Y: 0.6}
	bf := tr.NewBestFirst(
		func(id int, r geom.Rect) float64 { node(id, r); return r.MinDist(q) },
		func(pos int, e Entry) float64 { entry(pos, e); return e.Point().Dist(q) },
		func(id int, r geom.Rect) bool { node(id, r); return false },
		func(pos int, e Entry) bool { entry(pos, e); return false },
	)
	count := 0
	for _, _, ok := bf.Next(); ok; _, _, ok = bf.Next() {
		count++
	}
	if count != len(entries) {
		t.Fatalf("%d entries popped of %d", count, len(entries))
	}
}
