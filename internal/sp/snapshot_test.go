package sp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"roadskyline/internal/bruteforce"
	"roadskyline/internal/graph"
	"roadskyline/internal/testnet"
)

// drainObjects runs a Dijkstra wavefront to exhaustion, returning the
// reported object distances.
func drainObjects(t *testing.T, d *AStar) map[graph.ObjectID]float64 {
	t.Helper()
	out := map[graph.ObjectID]float64{}
	for {
		hit, ok, err := d.NextObject()
		if err != nil {
			t.Fatalf("NextObject: %v", err)
		}
		if !ok {
			return out
		}
		if _, dup := out[hit.ID]; dup {
			t.Fatalf("object %d reported twice", hit.ID)
		}
		out[hit.ID] = hit.Dist
	}
}

// TestDijkstraSnapshotRestoreEquivalence checks the cache's core soundness
// claim for CE: a wavefront restored from a snapshot — taken at any point
// of a previous run — reports exactly the objects and distances a fresh
// wavefront does, while re-settling only nodes beyond the snapshot.
func TestDijkstraSnapshotRestoreEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		g := testnet.RandomGraph(rng, 15+rng.Intn(50))
		objs := testnet.RandomObjects(rng, g, 1+rng.Intn(30), 0)
		src := testnet.RandomLocations(rng, g, 1)[0]
		net := testnet.NewMemNet(g, objs)

		cold, err := NewDijkstraWith(context.Background(), net, src, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Stop the first run after a random number of reported objects so
		// snapshots cover partially expanded wavefronts, then drain a
		// restored copy of the partial snapshot and compare.
		stopAfter := rng.Intn(len(objs) + 1)
		for i := 0; i < stopAfter; i++ {
			if _, ok, err := cold.NextObject(); err != nil || !ok {
				break
			}
		}
		snap := cold.Snapshot()
		if snap.Src != src {
			t.Fatalf("trial %d: snapshot src %+v, want %+v", trial, snap.Src, src)
		}
		want := bruteforce.ObjectDistances(g, objs, src)

		warm := NewDijkstraFromWith(context.Background(), net, snap, nil)
		got := drainObjects(t, warm)
		for i, w := range want {
			id := graph.ObjectID(i)
			d, ok := got[id]
			if math.IsInf(w, 1) {
				if ok {
					t.Fatalf("trial %d: unreachable object %d reported", trial, id)
				}
				continue
			}
			if !ok || math.Abs(d-w) > 1e-9 {
				t.Fatalf("trial %d: restored wavefront object %d = %v (%v), oracle %v", trial, id, d, ok, w)
			}
		}
		// The restored run must not redo the snapshot's settlements.
		if warm.NodesExpanded()+len(snap.Settled) > g.NumNodes() {
			t.Fatalf("trial %d: restored run settled %d nodes on top of %d snapshotted (graph has %d)",
				trial, warm.NodesExpanded(), len(snap.Settled), g.NumNodes())
		}
	}
}

// TestDijkstraSnapshotImmutable checks that a snapshot is decoupled both
// from the searcher it came from and from searchers restored from it.
func TestDijkstraSnapshotImmutable(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := testnet.RandomGraph(rng, 60)
	objs := testnet.RandomObjects(rng, g, 20, 0)
	src := testnet.RandomLocations(rng, g, 1)[0]
	net := testnet.NewMemNet(g, objs)

	d, err := NewDijkstraWith(context.Background(), net, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := d.Snapshot()
	settled, frontier, objBest := len(snap.Settled), len(snap.Frontier), len(snap.ObjBest)
	drainObjects(t, d) // keep expanding the original
	w1 := NewDijkstraFromWith(context.Background(), net, snap, nil)
	drainObjects(t, w1) // and a restored copy
	if len(snap.Settled) != settled || len(snap.Frontier) != frontier || len(snap.ObjBest) != objBest {
		t.Fatalf("snapshot mutated: settled %d->%d frontier %d->%d objBest %d->%d",
			settled, len(snap.Settled), frontier, len(snap.Frontier), objBest, len(snap.ObjBest))
	}
	// A second restore from the same snapshot must behave identically.
	w2 := NewDijkstraFromWith(context.Background(), net, snap, nil)
	a, b := drainObjects(t, NewDijkstraFromWith(context.Background(), net, snap, nil)), drainObjects(t, w2)
	if len(a) != len(b) {
		t.Fatalf("two restores reported %d vs %d objects", len(a), len(b))
	}
	for id, dist := range a {
		if b[id] != dist {
			t.Fatalf("two restores disagree on object %d: %v vs %v", id, dist, b[id])
		}
	}
}

// TestAStarSnapshotRestoreEquivalence checks the cache's soundness claim
// for EDC/LBC: distances computed by a searcher restored from another
// searcher's snapshot are exact, for all heuristic configurations —
// including restoring a wavefront expanded under a different heuristic,
// since a valid (settled, frontier) pair does not depend on the heuristic
// that ordered the expansion.
func TestAStarSnapshotRestoreEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 40; trial++ {
		g := testnet.RandomGraph(rng, 15+rng.Intn(50))
		src := testnet.RandomLocations(rng, g, 1)[0]
		dests := testnet.RandomLocations(rng, g, 5)
		net := testnet.NewMemNet(g, nil)

		cold, err := NewAStarWith(context.Background(), net, src, g.Point(src), nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if trial%2 == 1 {
			cold.DisableHeuristic()
		}
		want := make([]float64, len(dests))
		for i, dst := range dests {
			if want[i], err = cold.NewSession(dst, g.Point(dst)).Run(); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}

		snap := cold.Snapshot()
		warm := NewAStarFromWith(context.Background(), net, snap, g.Point(src), nil)
		if trial%3 == 0 {
			// Resume under the other heuristic configuration than the one
			// that produced the snapshot.
			warm.DisableHeuristic()
		}
		for i, dst := range dests {
			got, err := warm.NewSession(dst, g.Point(dst)).Run()
			if err != nil {
				t.Fatalf("trial %d: restored session: %v", trial, err)
			}
			if got != want[i] && !(math.IsInf(got, 1) && math.IsInf(want[i], 1)) {
				t.Fatalf("trial %d dest %d: restored distance %v, cold %v", trial, i, got, want[i])
			}
		}
		// Re-resolving the snapshot's own targets must be nearly free: the
		// wavefront already settled what those sessions needed.
		if warm.NodesExpanded() > cold.NodesExpanded() {
			t.Fatalf("trial %d: restored searcher expanded %d nodes, cold run needed %d",
				trial, warm.NodesExpanded(), cold.NodesExpanded())
		}
	}
}

// TestForkResumesWavefront: a fork of an object-mode wavefront — fresh,
// stopped after a random number of reports (none leaves the seeds alone on
// the frontier), or restored from its snapshot; copied or taking the
// origin's scratch over — keeps a well-formed frontier list, opens every
// session toward an object at a bound no higher than the oracle's distance
// and measures it at that distance under the Euclidean heuristic while
// settling only nodes its origin had not, and leaves a copied origin
// reporting what a fresh wavefront would.
func TestForkResumesWavefront(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 60; trial++ {
		g := testnet.RandomGraph(rng, 15+rng.Intn(50))
		objs := testnet.RandomObjects(rng, g, 1+rng.Intn(30), 0)
		src := testnet.RandomLocations(rng, g, 1)[0]
		net := testnet.NewMemNet(g, objs)
		want := bruteforce.ObjectDistances(g, objs, src)

		origin, err := NewDijkstraWith(ctx, net, src, nil)
		if err != nil {
			t.Fatal(err)
		}
		reported := map[graph.ObjectID]float64{}
		reports := rng.Intn(len(objs) + 1)
		if trial%4 == 0 {
			reports = 0 // the seeds alone on the frontier
		}
		for range reports {
			hit, ok, err := origin.NextObject()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			reported[hit.ID] = hit.Dist
		}
		if trial%3 == 2 {
			origin = NewDijkstraFromWith(ctx, net, origin.Snapshot(), nil)
			reported = map[graph.ObjectID]float64{}
		}
		settled := len(origin.Snapshot().Settled)
		nodes := origin.NodesExpanded()

		// Odd trials take the origin's scratch over; the origin is then
		// spent.
		var sc *Scratch
		if trial%2 == 1 {
			sc = origin.Scratch()
		}
		fork, err := origin.Fork(g.Point(src), sc)
		if err != nil {
			t.Fatal(err)
		}
		if err := fork.Scratch().CheckFrontier(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i, o := range objs {
			s := fork.NewSession(o.Loc, g.Point(o.Loc))
			w := want[i]
			if plb := s.PLB(); plb > w+1e-9 {
				t.Fatalf("trial %d: fork opens object %d at bound %v above the oracle's %v", trial, i, plb, w)
			}
			d, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if d != w && !(math.Abs(d-w) <= 1e-9) {
				t.Fatalf("trial %d: fork measures object %d at %v, oracle %v", trial, i, d, w)
			}
		}
		if settled+fork.NodesExpanded() > g.NumNodes() {
			t.Fatalf("trial %d: fork settled %d nodes on top of its origin's %d (graph has %d)", trial, fork.NodesExpanded(), settled, g.NumNodes())
		}
		if origin.NodesExpanded() != nodes {
			t.Fatalf("trial %d: forking moved the origin from %d settlements to %d", trial, nodes, origin.NodesExpanded())
		}
		if sc != nil {
			continue
		}
		for id, d := range drainObjects(t, origin) {
			reported[id] = d
		}
		for i, w := range want {
			if d, ok := reported[graph.ObjectID(i)]; ok != !math.IsInf(w, 1) || ok && math.Abs(d-w) > 1e-9 {
				t.Fatalf("trial %d: origin reports object %d at %v (%v) after the fork, oracle %v", trial, i, d, ok, w)
			}
		}
	}
}
