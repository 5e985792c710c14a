package sp_test

// An external test package: the session benchmark installs the landmark
// table, and internal/landmark imports sp.

import (
	"context"
	"math/rand"
	"testing"

	"roadskyline/internal/landmark"
	"roadskyline/internal/sp"
	"roadskyline/internal/testnet"
)

// BenchmarkDijkstraFullDrain and BenchmarkAStarManyTargets build the
// network and one scratch before the clock starts, so they time
// settlement, not the set-up and a fresh scratch's allocation.
func BenchmarkDijkstraFullDrain(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := testnet.RandomGraph(rng, 20000)
	objs := testnet.RandomObjects(rng, g, 2000, 0)
	srcs := testnet.RandomLocations(rng, g, 64)
	net := testnet.NewMemNet(g, objs)
	sc := sp.NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := sp.NewDijkstraWith(context.Background(), net, srcs[i%len(srcs)], sc)
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, ok, err := d.NextObject(); err != nil {
				b.Fatal(err)
			} else if !ok {
				break
			}
		}
	}
}

func BenchmarkAStarManyTargets(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := testnet.RandomGraph(rng, 20000)
	objs := testnet.RandomObjects(rng, g, 200, 0)
	srcs := testnet.RandomLocations(rng, g, 64)
	net := testnet.NewMemNet(g, objs)
	sc := sp.NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := sp.NewAStarWith(context.Background(), net, srcs[i%len(srcs)], g.Point(srcs[i%len(srcs)]), sc)
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range objs {
			if _, err := a.NewSession(o.Loc, g.Point(o.Loc)).Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAStarSessionRekey times what LBC spends its CPU on: opening
// sessions on a searcher whose wavefront is already a few hundred nodes
// wide, with the landmark bound installed. Half of the sessions are dropped
// unadvanced (a candidate dominated on its opening bounds), the rest take a
// few steps before they are dropped (dominated on a tightened bound), so
// both the opening scan and the deferred heap are on the clock while the
// wavefront stays a few hundred nodes wide.
func BenchmarkAStarSessionRekey(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := testnet.RandomGraph(rng, 20000)
	net := testnet.NewMemNet(g, nil)
	table := landmark.Build(g, landmark.DefaultK)
	src := testnet.RandomLocations(rng, g, 1)[0]
	targets := testnet.RandomLocations(rng, g, 200)
	sc := sp.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a, err := sp.NewAStarWith(context.Background(), net, src, g.Point(src), sc)
		if err != nil {
			b.Fatal(err)
		}
		a.UseHeuristicSource(table)
		// Warm-up: grow the wavefront to 400 settled nodes.
		for w := a.NewSession(targets[0], g.Point(targets[0])); a.NodesExpanded() < 400; {
			if _, done, err := w.Advance(); err != nil || done {
				b.Fatalf("warm-up stopped after %d nodes: done=%v err=%v", a.NodesExpanded(), done, err)
			}
		}
		b.StartTimer()
		for j, t := range targets {
			s := a.NewSession(t, g.Point(t))
			if j%2 == 0 {
				continue // abandoned on its opening bound
			}
			for step := 0; step < 4 && !s.Done(); step++ {
				if _, _, err := s.Advance(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
