package roadskyline

import (
	"context"
	"fmt"
	"math"
	"testing"

	"roadskyline/internal/bruteforce"
	"roadskyline/internal/graph"
)

// dupOracle computes the bruteforce skyline for an explicitly duplicated
// query-point list, independent of the engine's dedupe machinery.
func dupOracle(tr *fuzzTrial, pts []Location) map[int32][]float64 {
	gObjs := make([]graph.Object, len(tr.objs))
	for i, o := range tr.objs {
		gObjs[i] = graph.Object{
			ID:    graph.ObjectID(i),
			Loc:   graph.Location{Edge: graph.EdgeID(o.Loc.Edge), Offset: o.Loc.Offset},
			Attrs: o.Attrs,
		}
	}
	gPts := make([]graph.Location, len(pts))
	for i, p := range pts {
		gPts[i] = graph.Location{Edge: graph.EdgeID(p.Edge), Offset: p.Offset}
	}
	idx, dists := bruteforce.NetworkSkyline(tr.eng.net.g, gObjs, gPts, tr.use)
	want := map[int32][]float64{}
	for _, i := range idx {
		want[int32(i)] = dists[i]
	}
	return want
}

// TestDuplicateQueryPointsEquivalence pins the co-located-point collapse: a
// query repeating the same location must return exactly the bruteforce
// skyline of the duplicated list — full-width distance vectors, duplicated
// columns equal — while the engine computes in the collapsed point space
// (one searcher, hence one distance-cache lookup, per distinct location).
// Duplicating a vector coordinate never changes dominance order, so the
// collapsed skyline is the duplicated skyline; this test is the empirical
// check of that argument across every algorithm and LBC mode, including an
// LBC source index that lands on a duplicate.
func TestDuplicateQueryPointsEquivalence(t *testing.T) {
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for seed := int64(0); seed < int64(trials); seed++ {
		tr := newFuzzTrial(t, 9960+seed)
		// Duplicate the first point at the end (and the last point once
		// more when there are several), so duplicates appear both early and
		// late in the list.
		dup := append(append([]Location(nil), tr.pts...), tr.pts[0])
		if len(tr.pts) > 1 {
			dup = append(dup, tr.pts[len(tr.pts)-1])
		}
		want := dupOracle(tr, dup)

		queries := []Query{
			{Points: dup, UseAttrs: tr.use, Algorithm: CEAlg},
			{Points: dup, UseAttrs: tr.use, Algorithm: EDCAlg},
			{Points: dup, UseAttrs: tr.use, Algorithm: LBCAlg},
			{Points: dup, UseAttrs: tr.use, Algorithm: LBCAlg, Alternate: true},
			// A source index pointing at a duplicate entry must remap to
			// the collapsed searcher, not fail or change the skyline.
			{Points: dup, UseAttrs: tr.use, Algorithm: LBCAlg, Source: len(dup) - 1},
		}
		for qi, q := range queries {
			res, err := tr.eng.Skyline(q)
			if err != nil {
				t.Fatalf("seed %d dup query %d (%v): %v", tr.seed, qi, q.Algorithm, err)
			}
			label := fmt.Sprintf("seed %d dup query %d (%v)", tr.seed, qi, q.Algorithm)
			if len(res.Points) != len(want) {
				t.Fatalf("%s: %d skyline points, bruteforce has %d", label, len(res.Points), len(want))
			}
			for _, p := range res.Points {
				dists, ok := want[p.Object.ID]
				if !ok {
					t.Fatalf("%s: object %d not in bruteforce skyline", label, p.Object.ID)
				}
				if len(p.Distances) != len(dup) {
					t.Fatalf("%s: object %d has %d distances, want the full %d columns",
						label, p.Object.ID, len(p.Distances), len(dup))
				}
				for j := range dists {
					if math.Abs(p.Distances[j]-dists[j]) > 1e-9 {
						t.Fatalf("%s: object %d dist[%d] = %v, bruteforce %v",
							label, p.Object.ID, j, p.Distances[j], dists[j])
					}
				}
			}
		}

		// The iterator path dedupes too: drain it and compare.
		it, err := tr.eng.SkylineIterContext(context.Background(), Query{Points: dup, UseAttrs: tr.use})
		if err != nil {
			t.Fatalf("seed %d dup iterator: %v", tr.seed, err)
		}
		streamed := 0
		for {
			p, ok, err := it.Next()
			if err != nil {
				t.Fatalf("seed %d dup iterator: %v", tr.seed, err)
			}
			if !ok {
				break
			}
			streamed++
			if len(p.Distances) != len(dup) {
				t.Fatalf("seed %d dup iterator: object %d has %d distances, want %d",
					tr.seed, p.Object.ID, len(p.Distances), len(dup))
			}
			if _, ok := want[p.Object.ID]; !ok {
				t.Fatalf("seed %d dup iterator: object %d not in bruteforce skyline", tr.seed, p.Object.ID)
			}
		}
		if streamed != len(want) {
			t.Fatalf("seed %d dup iterator: streamed %d points, bruteforce has %d",
				tr.seed, streamed, len(want))
		}

		// One searcher per distinct location: the distance cache sees
		// exactly uniquePoints lookups, not one per duplicated entry.
		cached := tr.cachedEngine(t, 64)
		res, err := cached.Skyline(Query{Points: dup, UseAttrs: tr.use, Algorithm: LBCAlg})
		if err != nil {
			t.Fatalf("seed %d dup cached: %v", tr.seed, err)
		}
		uniq := uniquePoints(dup)
		if got := res.Stats.DistCacheHits + res.Stats.DistCacheMisses; got != uniq {
			t.Errorf("seed %d: duplicated query made %d cache lookups, want one per %d distinct points",
				tr.seed, got, uniq)
		}
	}
}
