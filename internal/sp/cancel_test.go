package sp

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"roadskyline/internal/graph"
	"roadskyline/internal/testnet"
)

// cancelTestNet builds a network large enough that the amortized
// cancellation check (every cancelCheckEvery settlements) must fire well
// before the expansion exhausts the graph.
func cancelTestNet(t *testing.T) (*testnet.MemNet, *graph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	g := testnet.RandomGraph(rng, 10*cancelCheckEvery)
	objs := testnet.RandomObjects(rng, g, 5, 0)
	return testnet.NewMemNet(g, objs), g
}

// TestDijkstraCancellation: a cancelled context stops NextObject within a
// bounded number of settlements instead of expanding the whole graph.
func TestDijkstraCancellation(t *testing.T) {
	net, g := cancelTestNet(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d, err := NewDijkstraWith(ctx, net, graph.Location{Edge: 0, Offset: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, ok, err := d.NextObject()
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			break
		}
		if !ok {
			t.Fatal("search exhausted the graph despite a cancelled context")
		}
	}
	if d.NodesExpanded() >= g.NumNodes() {
		t.Errorf("expanded %d of %d nodes before noticing cancellation",
			d.NodesExpanded(), g.NumNodes())
	}
	if d.NodesExpanded() > 2*cancelCheckEvery {
		t.Errorf("expanded %d nodes, want the check to fire within %d",
			d.NodesExpanded(), 2*cancelCheckEvery)
	}
}

// TestAStarCancellation: the same bound for a Session.Run on a cancelled
// context.
func TestAStarCancellation(t *testing.T) {
	net, g := cancelTestNet(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := graph.Location{Edge: 0, Offset: 0}
	dst := graph.Location{Edge: graph.EdgeID(g.NumEdges() - 1), Offset: 0}
	srcPt, dstPt := g.Point(src), g.Point(dst)
	a, err := NewAStarWith(ctx, net, src, srcPt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.NewSession(dst, dstPt).Run(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if a.NodesExpanded() >= g.NumNodes() {
		t.Errorf("expanded %d of %d nodes before noticing cancellation",
			a.NodesExpanded(), g.NumNodes())
	}
}

// TestNilContextDefaultsToBackground: passing nil must behave like an
// uncancellable context, not panic.
func TestNilContextDefaultsToBackground(t *testing.T) {
	net, _ := cancelTestNet(t)
	d, err := NewDijkstraWith(nil, net, graph.Location{Edge: 0, Offset: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for {
		_, ok, err := d.NextObject()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		hits++
	}
	if hits != 5 {
		t.Errorf("reported %d objects, want 5", hits)
	}
}
