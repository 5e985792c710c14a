package rtree

import (
	"math/rand"
	"testing"

	"roadskyline/internal/geom"
)

func BenchmarkBulkLoad(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	entries := randomPoints(rng, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BulkLoad(append([]Entry(nil), entries...), DefaultFanout)
	}
}

func BenchmarkNearestNeighbor(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	tr := BulkLoad(randomPoints(rng, 100000), DefaultFanout)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		tr.NewNNIterator(q, nil).Next()
	}
}

func BenchmarkWindowQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	tr := BulkLoad(randomPoints(rng, 100000), DefaultFanout)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := rng.Float64()*0.9, rng.Float64()*0.9
		w := geom.Rect{MinX: x, MinY: y, MaxX: x + 0.1, MaxY: y + 0.1}
		count := 0
		tr.SearchFunc(func(_ int, r geom.Rect) bool { return w.Intersects(r) }, func(_ int, leaf []Entry) bool {
			for _, e := range leaf {
				if w.Intersects(e.Rect) {
					count++
				}
			}
			return true
		})
	}
}

func BenchmarkSkylineIterator(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	tr := BulkLoad(randomPoints(rng, 50000), DefaultFanout)
	qs := []geom.Point{{X: 0.2, Y: 0.2}, {X: 0.8, Y: 0.3}, {X: 0.5, Y: 0.9}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := tr.NewSkylineIterator(qs, nil)
		for {
			if _, _, ok := it.Next(); !ok {
				break
			}
		}
	}
}
