package core

import (
	"context"
	"errors"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"roadskyline/internal/gen"
	"roadskyline/internal/geom"
	"roadskyline/internal/graph"
	"roadskyline/internal/obs"
	"roadskyline/internal/testnet"
)

// The EDC pins: window candidates are verified bounds-first
// (boundVec.refine against the front of exact vectors), which must change
// the work and nothing else. Each cell pins the paper's EDC — the DisablePLB
// arm, every candidate's vector computed in full — to the counters and the
// exact skyline (object ids, distance bits, report order) the one and only
// EDC recorded at the parent commit, and holds the default arm to the same
// answer and the same candidate set for no more work.

// edcCell is a fixed seeded workload answered by EDC.
type edcCell struct {
	name  string
	env   func(testing.TB) *Env
	pts   func(env *Env, set int) []graph.Location
	attrs bool
	opts  Options
	want  pinned // the paper's EDC, recorded at the parent commit
}

func (p *pinNet) with(attrs int) func(testing.TB) *Env {
	return func(t testing.TB) *Env { return p.env(t, attrs) }
}

// regionPts draws nq query points in a tenth of the network, as pinCell does.
func regionPts(nq int) func(*Env, int) []graph.Location {
	return func(env *Env, set int) []graph.Location {
		return gen.QueryPoints(env.G, nq, 0.1, 1+int64(set))
	}
}

// islandsGraph is two random networks of half nodes each sharing the unit
// square and no edge.
func islandsGraph(rng *rand.Rand, half int) *graph.Graph {
	b := graph.NewBuilder(2*half, 4*half)
	pts := make([]geom.Point, 2*half)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
		b.AddNode(pts[i])
	}
	for island := 0; island < 2; island++ {
		base := island * half
		edge := func(u, v int) {
			b.AddEdge(graph.NodeID(base+u), graph.NodeID(base+v), pts[base+u].Dist(pts[base+v])*(1+rng.Float64()*0.5))
		}
		for i := 1; i < half; i++ {
			edge(i, rng.Intn(i))
		}
		for k := 0; k < half/2; k++ {
			if u, v := rng.Intn(half), rng.Intn(half); u != v {
				edge(u, v)
			}
		}
	}
	return b.MustBuild()
}

// islandsEnv is two islands of 150 nodes with objects (one attribute each) on
// both. The Euclidean window fetches objects of either island, so EDC meets
// all-+Inf and partly +Inf vectors.
func islandsEnv(t testing.TB) *Env {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	g := islandsGraph(rng, 150)
	env, err := NewEnv(g, testnet.RandomObjects(rng, g, 200, 1), EnvConfig{})
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	return env
}

// islandPts puts set 0's three query points on one island (the other
// island's objects are unreachable from all of them) and spreads set 1's
// over both (every vector has a +Inf component).
func islandPts(env *Env, set int) []graph.Location {
	rng := rand.New(rand.NewSource(int64(set)))
	var first, second []graph.EdgeID
	for i := 0; i < env.G.NumEdges(); i++ {
		if e := env.G.Edge(graph.EdgeID(i)); e.U < 150 {
			first = append(first, e.ID)
		} else {
			second = append(second, e.ID)
		}
	}
	on := func(edges []graph.EdgeID) graph.Location {
		e := env.G.Edge(edges[rng.Intn(len(edges))])
		return graph.Location{Edge: e.ID, Offset: rng.Float64() * e.Length}
	}
	if set == 0 {
		return []graph.Location{on(first), on(first), on(first)}
	}
	return []graph.Location{on(first), on(second), on(first)}
}

// twinsEnv doubles every object: each location holds two objects with the
// same vector, and two pairs sit on the edge ends.
func twinsEnv(t testing.TB) *Env {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	g := testnet.RandomGraph(rng, 300)
	objs := testnet.RandomObjects(rng, g, 240, 0)
	for i := 0; i < len(objs); i += 2 {
		objs[i+1].Loc = objs[i].Loc
	}
	objs[0].Loc.Offset, objs[1].Loc.Offset = 0, 0
	l := g.Edge(objs[2].Loc.Edge).Length
	objs[2].Loc.Offset, objs[3].Loc.Offset = l, l
	env, err := NewEnv(g, objs, EnvConfig{})
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	return env
}

// twinPts is three random locations, the first of set 1 on top of a twin pair.
func twinPts(env *Env, set int) []graph.Location {
	pts := testnet.RandomLocations(rand.New(rand.NewSource(20+int64(set))), env.G, 3)
	if set == 1 {
		pts[0] = env.Objects[10].Loc
	}
	return pts
}

// onTwins is one query point on top of a twin pair: both are at distance 0.
func onTwins(env *Env, set int) []graph.Location {
	return []graph.Location{env.Objects[10+2*set].Loc}
}

var edcCells = []edcCell{
	{name: "CA/q1", env: pinCA.with(0), pts: regionPts(1), want: pinned{3, 2, 2, 2, 2, 0xdf0ea8ee71d2ee44}},
	{name: "CA/q2", env: pinCA.with(0), pts: regionPts(2), want: pinned{1694, 532, 1064, 31, 31, 0x8ba2cc7d9c3092b0}},
	{name: "CA/q4", env: pinCA.with(0), pts: regionPts(4), want: pinned{14285, 2357, 9428, 105, 96, 0x731ebe1f4be51880}},
	{name: "CA/q8", env: pinCA.with(0), pts: regionPts(8), want: pinned{30421, 2580, 20640, 107, 133, 0x365185cab30a3553}},
	{name: "CA/q4/attrs", env: pinCA.with(2), pts: regionPts(4), attrs: true, want: pinned{19951, 2748, 10992, 142, 218, 0x151ecfa7e2d08e73}},
	{name: "CA/q4/nolandmarks", env: pinCA.with(0), pts: regionPts(4), opts: Options{DisableLandmarks: true}, want: pinned{17699, 2357, 9428, 119, 96, 0x731ebe1f4be51880}},
	{name: "CA/q4/noheuristic", env: pinCA.with(0), pts: regionPts(4), opts: Options{DisableAStarHeuristic: true}, want: pinned{21910, 2357, 9428, 142, 96, 0x731ebe1f4be51880}},
	{name: "NA60/q4", env: pinNA.with(0), pts: regionPts(4), want: pinned{39410, 6369, 25476, 310, 867, 0x5d905eafec65e2c6}},
	{name: "islands", env: islandsEnv, pts: islandPts, want: pinned{652, 400, 1200, 18, 11, 0x6d1b8aeb2db0585f}},
	{name: "islands/attrs", env: islandsEnv, pts: islandPts, attrs: true, want: pinned{653, 400, 1200, 18, 29, 0x20372faa7e8e578a}},
	{name: "twins/q1", env: twinsEnv, pts: onTwins, want: pinned{0, 4, 4, 4, 4, 0x51774be8f5a41b25}},
	{name: "twins", env: twinsEnv, pts: twinPts, want: pinned{995, 480, 1440, 18, 64, 0x129102631f89caf1}},
}

// run answers the cell's queries with EDC under opts and returns the summed
// work.
func (c edcCell) run(t testing.TB, opts Options) pinned {
	t.Helper()
	env := c.env(t)
	h := fnv.New64a()
	opts.ColdCache = true
	var got pinned
	for set := 0; set < pinQueries; set++ {
		res, err := Run(context.Background(), env, Query{Points: c.pts(env, set), UseAttrs: c.attrs}, AlgEDC, opts)
		if err != nil {
			t.Fatalf("%s set %d: %v", c.name, set, err)
		}
		for _, p := range res.Skyline {
			hashVec(h, p.Object.ID, p.Vec)
		}
		got.points += len(res.Skyline)
		got.nodes += res.Metrics.NodesExpanded
		got.cands += res.Metrics.Candidates
		got.distComp += res.Metrics.DistanceComputations
		got.pages += res.Metrics.NetworkPages
	}
	got.hash = h.Sum64()
	return got
}

// TestEDCBoundFirstPinsWork: the paper's EDC repeats the parent's counters
// and answer exactly; the default arm gives the same answer in the same
// order from the same candidates, and may only do less.
func TestEDCBoundFirstPinsWork(t *testing.T) {
	for _, c := range edcCells {
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && c.name == "NA60/q4" {
				t.Skip("NA cell skipped in -short")
			}
			paper := c.opts
			paper.DisablePLB = true
			if got := c.run(t, paper); got != c.want {
				t.Errorf("the paper's EDC changed:\n got  %v\n want %v", got, c.want)
			}
			got := c.run(t, c.opts)
			t.Logf("bound-first %v", got)
			if got.hash != c.want.hash || got.points != c.want.points || got.cands != c.want.cands {
				t.Errorf("bound-first EDC answers differently:\n got  %v\n want %v", got, c.want)
			}
			if got.nodes > c.want.nodes || got.pages > c.want.pages || got.distComp > c.want.distComp {
				t.Errorf("bound-first EDC does more work:\n got  %v\n paper's %v", got, c.want)
			}
		})
	}
}

// errCounter is a context that counts its Err calls and stamps the time
// of each; from call cancelAt on (when positive) it reads as cancelled.
type errCounter struct {
	context.Context
	cancelAt int
	stamps   []time.Time
}

func (c *errCounter) Err() error {
	c.stamps = append(c.stamps, time.Now())
	if c.cancelAt > 0 && len(c.stamps) >= c.cancelAt {
		return context.Canceled
	}
	return c.Context.Err()
}

// TestEDCCancelledInsideRefine: a context cancelled while a window candidate
// is being verified comes back through fail — the error, and the metrics of
// the work done so far — before the batch is finished.
func TestEDCCancelledInsideRefine(t *testing.T) {
	env := pinCA.env(t, 0)
	q := Query{Points: gen.QueryPoints(env.G, 8, 0.1, 1)}
	for _, paper := range []bool{false, true} {
		// A dry run traced: its edc.verify spans alternate a seed's and its
		// window batch's, and its context stamps every check. Cold cache
		// makes the second run repeat the same checks in the same order.
		opts := Options{ColdCache: true, DisablePLB: paper, Trace: obs.NewInflight().Begin("EDC", len(q.Points))}
		dry := &errCounter{Context: context.Background()}
		if _, err := Run(dry, env, q, AlgEDC, opts); err != nil {
			t.Fatal(err)
		}
		// Pick the first batch whose span holds at least two of the
		// searchers' checks (one per 64 settlements), and cancel at its
		// second: the query must fail inside that batch.
		cancelAt, through, verifies := 0, 0, 0
		for _, s := range opts.Trace.Spans() {
			through += s.Nodes
			if s.Name != string(obs.PhaseEDCVerify) {
				continue
			}
			if verifies++; verifies%2 == 1 {
				continue // a seed's
			}
			var inside []int
			for i, at := range dry.stamps {
				if at.After(s.Start) && at.Before(s.Start.Add(s.Dur)) {
					inside = append(inside, i+1)
				}
			}
			if len(inside) >= 2 {
				cancelAt = inside[1]
				break
			}
		}
		if cancelAt == 0 {
			t.Fatalf("DisablePLB=%v: no window batch spans two context checks", paper)
		}
		opts.Trace = nil
		res, err := Run(&errCounter{Context: context.Background(), cancelAt: cancelAt}, env, q, AlgEDC, opts)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("DisablePLB=%v: err = %v, want context.Canceled", paper, err)
		}
		if res == nil || res.Metrics.Candidates < 2 || res.Metrics.Total == 0 || len(res.Skyline) != 0 {
			t.Fatalf("DisablePLB=%v: cancelled query's result: %+v", paper, res)
		}
		// The two runs are the same up to the cancel, so a batch the error
		// left half-way has settled fewer nodes than the whole one.
		if got := res.Metrics.NodesExpanded; got == 0 || got >= through {
			t.Errorf("DisablePLB=%v: %d nodes expanded at the abort, %d at the end of batch %d: the abort did not come from inside it",
				paper, got, through, verifies/2)
		}
	}
}
