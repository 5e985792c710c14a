package sp

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"roadskyline/internal/bruteforce"
	"roadskyline/internal/graph"
	"roadskyline/internal/testnet"
)

// TestDijkstraIncrementalNN cross-validates the incremental object stream
// against the brute-force oracle on many random networks: every reachable
// object must be reported exactly once, in ascending distance, with the
// exact network distance.
func TestDijkstraIncrementalNN(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		g := testnet.RandomGraph(rng, 10+rng.Intn(60))
		objs := testnet.RandomObjects(rng, g, rng.Intn(40), 0)
		src := testnet.RandomLocations(rng, g, 1)[0]
		want := bruteforce.ObjectDistances(g, objs, src)

		net := testnet.NewMemNet(g, objs)
		d, err := NewDijkstraWith(context.Background(), net, src, nil)
		if err != nil {
			t.Fatalf("trial %d: NewDijkstraWith: %v", trial, err)
		}
		seen := map[graph.ObjectID]float64{}
		prev := 0.0
		for {
			hit, ok, err := d.NextObject()
			if err != nil {
				t.Fatalf("trial %d: NextObject: %v", trial, err)
			}
			if !ok {
				break
			}
			if _, dup := seen[hit.ID]; dup {
				t.Fatalf("trial %d: object %d reported twice", trial, hit.ID)
			}
			if hit.Dist < prev-1e-9 {
				t.Fatalf("trial %d: order violated: %v after %v", trial, hit.Dist, prev)
			}
			prev = hit.Dist
			seen[hit.ID] = hit.Dist
		}
		for i, w := range want {
			id := graph.ObjectID(i)
			got, ok := seen[id]
			if math.IsInf(w, 1) {
				if ok {
					t.Fatalf("trial %d: unreachable object %d reported at %v", trial, id, got)
				}
				continue
			}
			if !ok {
				t.Fatalf("trial %d: reachable object %d (dist %v) never reported", trial, id, w)
			}
			if math.Abs(got-w) > 1e-9 {
				t.Fatalf("trial %d: object %d dist %v, oracle %v", trial, id, got, w)
			}
		}
	}
}

func TestDijkstraNoObjects(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := testnet.RandomGraph(rng, 20)
	net := testnet.NewMemNet(g, nil)
	d, err := NewDijkstraWith(context.Background(), net, testnet.RandomLocations(rng, g, 1)[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := d.NextObject(); err != nil || ok {
		t.Fatalf("empty object set: ok=%v err=%v", ok, err)
	}
}

func TestDijkstraSourceEdgeObjects(t *testing.T) {
	// Source and objects on the same edge, including the degenerate case
	// where a roundabout path via the endpoints would be longer.
	b := graph.NewBuilder(2, 1)
	b.AddNode(pt(0, 0))
	b.AddNode(pt(1, 0))
	b.AddEdge(0, 1, 1)
	g := b.MustBuild()
	objs := []graph.Object{
		{ID: 0, Loc: graph.Location{Edge: 0, Offset: 0.9}},
		{ID: 1, Loc: graph.Location{Edge: 0, Offset: 0.4}},
	}
	net := testnet.NewMemNet(g, objs)
	d, err := NewDijkstraWith(context.Background(), net, graph.Location{Edge: 0, Offset: 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	h1, ok, _ := d.NextObject()
	if !ok || h1.ID != 1 || math.Abs(h1.Dist-0.1) > 1e-12 {
		t.Fatalf("first hit = %+v ok=%v, want object 1 at 0.1", h1, ok)
	}
	h2, ok, _ := d.NextObject()
	if !ok || h2.ID != 0 || math.Abs(h2.Dist-0.4) > 1e-12 {
		t.Fatalf("second hit = %+v, want object 0 at 0.4", h2)
	}
}

// A shortcut via a parallel path can beat travelling along the object's own
// long edge; the expansion must find it.
func TestDijkstraShortcutBeatsOwnEdge(t *testing.T) {
	b := graph.NewBuilder(3, 3)
	b.AddNode(pt(0, 0))   // 0
	b.AddNode(pt(1, 0))   // 1
	b.AddNode(pt(0.5, 0)) // 2: midpoint on a fast parallel route
	b.AddEdge(0, 1, 10)   // slow edge carrying the object
	b.AddEdge(0, 2, 0.5)
	b.AddEdge(2, 1, 0.5)
	g := b.MustBuild()
	// Object near the far end of the slow edge: direct along edge from
	// offset 0 would be 9; via the shortcut it is 0.5+0.5+ (10-9)=2.
	objs := []graph.Object{{ID: 0, Loc: graph.Location{Edge: 0, Offset: 9}}}
	net := testnet.NewMemNet(g, objs)
	d, _ := NewDijkstraWith(context.Background(), net, graph.Location{Edge: 0, Offset: 0}, nil)
	hit, ok, _ := d.NextObject()
	if !ok || math.Abs(hit.Dist-2.0) > 1e-12 {
		t.Fatalf("hit = %+v, want dist 2.0 via shortcut", hit)
	}
}

func pt(x, y float64) (p struct{ X, Y float64 }) {
	p.X, p.Y = x, y
	return p
}

// TestAStarMatchesOracle runs many targets sequentially on one searcher
// (resume path) and checks each distance against the oracle.
func TestAStarMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		g := testnet.RandomGraph(rng, 10+rng.Intn(80))
		objs := testnet.RandomObjects(rng, g, 1+rng.Intn(30), 0)
		src := testnet.RandomLocations(rng, g, 1)[0]
		want := bruteforce.ObjectDistances(g, objs, src)

		net := testnet.NewMemNet(g, objs)
		a, err := NewAStarWith(context.Background(), net, src, g.Point(src), nil)
		if err != nil {
			t.Fatalf("NewAStarWith: %v", err)
		}
		// Visit objects in random order to stress resumption.
		order := rng.Perm(len(objs))
		for _, i := range order {
			got, err := a.NewSession(objs[i].Loc, g.Point(objs[i].Loc)).Run()
			if err != nil {
				t.Fatalf("session: %v", err)
			}
			w := want[i]
			if math.IsInf(w, 1) != math.IsInf(got, 1) || (!math.IsInf(w, 1) && math.Abs(got-w) > 1e-9) {
				t.Fatalf("trial %d object %d: got %v, oracle %v", trial, i, got, w)
			}
		}
	}
}

// Re-running a distance on the same searcher must be free (fully settled)
// and still exact.
func TestAStarRepeatTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := testnet.RandomGraph(rng, 50)
	objs := testnet.RandomObjects(rng, g, 5, 0)
	src := testnet.RandomLocations(rng, g, 1)[0]
	net := testnet.NewMemNet(g, objs)
	a, _ := NewAStarWith(context.Background(), net, src, g.Point(src), nil)
	d1, err := a.NewSession(objs[0].Loc, g.Point(objs[0].Loc)).Run()
	if err != nil {
		t.Fatal(err)
	}
	before := a.NodesExpanded()
	d2, err := a.NewSession(objs[0].Loc, g.Point(objs[0].Loc)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("repeat distance changed: %v -> %v", d1, d2)
	}
	if a.NodesExpanded() != before {
		t.Errorf("repeat target expanded %d more nodes", a.NodesExpanded()-before)
	}
}

// PLB must start at least at the Euclidean distance, never decrease, never
// exceed the true distance, and finish equal to it.
func TestPLBInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		g := testnet.RandomGraph(rng, 10+rng.Intn(60))
		objs := testnet.RandomObjects(rng, g, 1+rng.Intn(10), 0)
		src := testnet.RandomLocations(rng, g, 1)[0]
		want := bruteforce.ObjectDistances(g, objs, src)
		net := testnet.NewMemNet(g, objs)
		a, _ := NewAStarWith(context.Background(), net, src, g.Point(src), nil)
		for i, o := range objs {
			s := a.NewSession(o.Loc, g.Point(o.Loc))
			prev := s.PLB()
			trueDist := want[i]
			if prev > trueDist+1e-9 {
				t.Fatalf("initial plb %v exceeds true dist %v", prev, trueDist)
			}
			for !s.Done() {
				plb, done, err := s.Advance()
				if err != nil {
					t.Fatalf("Advance: %v", err)
				}
				if plb < prev-1e-12 {
					t.Fatalf("plb decreased: %v -> %v", prev, plb)
				}
				if plb > trueDist+1e-9 {
					t.Fatalf("plb %v exceeds true dist %v", plb, trueDist)
				}
				prev = plb
				if done {
					break
				}
			}
			got := s.Dist()
			if math.IsInf(trueDist, 1) {
				if !math.IsInf(got, 1) {
					t.Fatalf("unreachable target got dist %v", got)
				}
				continue
			}
			if math.Abs(got-trueDist) > 1e-9 {
				t.Fatalf("dist %v, oracle %v", got, trueDist)
			}
			if math.Abs(s.PLB()-got) > 1e-9 {
				t.Fatalf("final plb %v != dist %v", s.PLB(), got)
			}
		}
	}
}

func TestSessionStaleness(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := testnet.RandomGraph(rng, 30)
	objs := testnet.RandomObjects(rng, g, 3, 0)
	src := testnet.RandomLocations(rng, g, 1)[0]
	net := testnet.NewMemNet(g, objs)
	a, _ := NewAStarWith(context.Background(), net, src, g.Point(src), nil)
	s1 := a.NewSession(objs[0].Loc, g.Point(objs[0].Loc))
	s2 := a.NewSession(objs[1].Loc, g.Point(objs[1].Loc))
	if !s1.Done() {
		if _, _, err := s1.Advance(); err != ErrStaleSession {
			t.Errorf("stale session Advance err = %v, want ErrStaleSession", err)
		}
	}
	if _, err := s2.Run(); err != nil {
		t.Errorf("fresh session Run: %v", err)
	}
}

// TestScratchSessionWrap forces the session counter around zero: stale
// exact-key marks must be cleared and session 0, which every never-marked
// node would match, must be skipped.
func TestScratchSessionWrap(t *testing.T) {
	sc := NewScratch()
	sc.begin(4, 0)
	sc.newSession()
	sc.exact[2] = sc.session
	sc.session = ^uint32(0)
	sc.newSession()
	if sc.session != 1 {
		t.Fatalf("session after wrap = %d, want 1", sc.session)
	}
	for v, mark := range sc.exact {
		if mark != 0 {
			t.Fatalf("stale mark %d on node %d aliases a post-wrap session", mark, v)
		}
	}
}

func TestDistPanicsBeforeDone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := testnet.RandomGraph(rng, 200)
	objs := testnet.RandomObjects(rng, g, 1, 0)
	src := testnet.RandomLocations(rng, g, 1)[0]
	net := testnet.NewMemNet(g, objs)
	a, _ := NewAStarWith(context.Background(), net, src, g.Point(src), nil)
	s := a.NewSession(objs[0].Loc, g.Point(objs[0].Loc))
	if s.Done() {
		t.Skip("session completed immediately")
	}
	defer func() {
		if recover() == nil {
			t.Error("Dist before Done did not panic")
		}
	}()
	s.Dist()
}

// A* directional expansion should settle no more nodes than Dijkstra needs
// for the same target (it is the paper's argument for EDC over CE).
func TestAStarExpandsNoMoreThanDijkstraRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	total := struct{ a, d int }{}
	for trial := 0; trial < 20; trial++ {
		g := testnet.RandomGraph(rng, 300)
		objs := testnet.RandomObjects(rng, g, 5, 0)
		src := testnet.RandomLocations(rng, g, 1)[0]
		net1 := testnet.NewMemNet(g, objs)
		a, _ := NewAStarWith(context.Background(), net1, src, g.Point(src), nil)
		// Single farthest object: worst case for directional search.
		want := bruteforce.ObjectDistances(g, objs, src)
		far, fd := 0, -1.0
		for i, w := range want {
			if !math.IsInf(w, 1) && w > fd {
				far, fd = i, w
			}
		}
		if _, err := a.NewSession(objs[far].Loc, g.Point(objs[far].Loc)).Run(); err != nil {
			t.Fatal(err)
		}
		net2 := testnet.NewMemNet(g, objs)
		d, _ := NewDijkstraWith(context.Background(), net2, src, nil)
		for {
			hit, ok, _ := d.NextObject()
			if !ok || hit.ID == objs[far].ID {
				break
			}
		}
		total.a += a.NodesExpanded()
		total.d += d.NodesExpanded()
	}
	if total.a > total.d {
		t.Errorf("A* settled %d nodes in total, Dijkstra %d", total.a, total.d)
	}
}

// Distances computed through sessions abandoned midway must stay correct.
func TestAbandonedSessionsDoNotCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		g := testnet.RandomGraph(rng, 100)
		objs := testnet.RandomObjects(rng, g, 20, 0)
		src := testnet.RandomLocations(rng, g, 1)[0]
		want := bruteforce.ObjectDistances(g, objs, src)
		net := testnet.NewMemNet(g, objs)
		a, _ := NewAStarWith(context.Background(), net, src, g.Point(src), nil)
		for i, o := range objs {
			s := a.NewSession(o.Loc, g.Point(o.Loc))
			if i%2 == 0 {
				// Abandon after a few steps.
				for k := 0; k < 3 && !s.Done(); k++ {
					if _, _, err := s.Advance(); err != nil {
						t.Fatal(err)
					}
				}
				continue
			}
			got, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			w := want[i]
			if math.IsInf(w, 1) != math.IsInf(got, 1) || (!math.IsInf(w, 1) && math.Abs(got-w) > 1e-9) {
				t.Fatalf("trial %d obj %d: got %v, oracle %v", trial, i, got, w)
			}
		}
	}
}

// Sorted object distances from the Dijkstra stream equal the sorted oracle
// distances (stream completeness under ties).
func TestDijkstraTiesComplete(t *testing.T) {
	// Symmetric diamond: many equal distances.
	b := graph.NewBuilder(4, 4)
	b.AddNode(pt(0, 0))
	b.AddNode(pt(1, 1))
	b.AddNode(pt(1, -1))
	b.AddNode(pt(2, 0))
	d := math.Sqrt2
	b.AddEdge(0, 1, d)
	b.AddEdge(0, 2, d)
	b.AddEdge(1, 3, d)
	b.AddEdge(2, 3, d)
	g := b.MustBuild()
	objs := []graph.Object{
		{ID: 0, Loc: graph.Location{Edge: 0, Offset: d / 2}},
		{ID: 1, Loc: graph.Location{Edge: 1, Offset: d / 2}},
		{ID: 2, Loc: graph.Location{Edge: 2, Offset: d / 2}},
		{ID: 3, Loc: graph.Location{Edge: 3, Offset: d / 2}},
	}
	src := graph.Location{Edge: 0, Offset: 0}
	net := testnet.NewMemNet(g, objs)
	dij, _ := NewDijkstraWith(context.Background(), net, src, nil)
	var got []float64
	for {
		hit, ok, _ := dij.NextObject()
		if !ok {
			break
		}
		got = append(got, hit.Dist)
	}
	want := bruteforce.ObjectDistances(g, objs, src)
	sort.Float64s(want)
	if len(got) != len(want) {
		t.Fatalf("got %d hits, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("sorted dist %d: %v != %v", i, got[i], want[i])
		}
	}
}
