package middlelayer

import (
	"testing"

	"roadskyline/internal/gen"
	"roadskyline/internal/geom"
	"roadskyline/internal/graph"
	"roadskyline/internal/pqueue"
	"roadskyline/internal/storage"
)

// sweepProbes lists the edge probes of one Dijkstra wavefront over all of g:
// every incident edge of every node, in the order the nodes settle, so each
// edge is probed twice, from either end.
func sweepProbes(g *graph.Graph, src graph.NodeID) []graph.EdgeID {
	settled := make([]bool, g.NumNodes())
	frontier := pqueue.New[graph.NodeID](g.NumNodes())
	frontier.Push(src, 0)
	var probes []graph.EdgeID
	for frontier.Len() > 0 {
		u, d := frontier.Pop()
		if settled[u] {
			continue
		}
		settled[u] = true
		for he := range g.Adj(u).All() {
			probes = append(probes, he.Edge)
			if !settled[he.To] {
				frontier.Push(he.To, d+he.Length)
			}
		}
	}
	return probes
}

// BenchmarkObjectsOn times one middle-layer probe on CA at omega 0.5 under
// the Hilbert edge keys the engine uses, over the probe sequence (and so the
// hit/miss mix) of a Dijkstra sweep: warm, and with the caches dropped
// before every sweep as a cold query has them.
func BenchmarkObjectsOn(b *testing.B) {
	g, err := gen.Generate(gen.CA)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]int64, g.NumEdges())
	for e := range keys {
		ed := g.Edge(graph.EdgeID(e))
		mid := g.NodePoint(ed.U).Lerp(g.NodePoint(ed.V), 0.5)
		keys[e] = int64(geom.HilbertKey(mid, g.Bounds())<<21) | int64(e)
	}
	l, err := Build(gen.Objects(g, 0.5, 0, 1), storage.NewMemFile(), storage.NewMemFile(), storage.DefaultBufferBytes, keys)
	if err != nil {
		b.Fatal(err)
	}
	probes := sweepProbes(g, 0)
	for _, cold := range []bool{false, true} {
		name := "warm"
		if cold {
			name = "cold"
		}
		b.Run(name, func(b *testing.B) {
			var buf []ObjRef
			hits := 0
			for i := 0; i < b.N; i++ {
				k := i % len(probes)
				if cold && k == 0 {
					l.InvalidateCaches()
				}
				if buf, err = l.ObjectsOn(probes[k], g.Edge(probes[k]).Length, buf[:0]); err != nil {
					b.Fatal(err)
				}
				if len(buf) > 0 {
					hits++
				}
			}
			b.ReportMetric(float64(hits)/float64(b.N), "hit-share")
		})
	}
}
