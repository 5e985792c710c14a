package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"roadskyline/internal/gen"
	"roadskyline/internal/graph"
)

// The bound-first pins: LBC and aggregate NN test their stop rule on
// frontier-free bounds before opening A* sessions, and open the sessions of
// an undominated candidate one at a time. That must not change the work:
// no session advances before all of a candidate's sessions are open, and
// from then on the bound vector is what opening all of them up front
// produced. The cells below pin every work counter and the exact skyline
// (object ids and distance bits) to the values the open-all-first loop
// recorded at the parent commit, and pin the point of the change — most
// sessions are never opened.

// pinNet is a generated network shared by the pin cells.
type pinNet struct {
	once sync.Once
	spec gen.Spec
	g    *graph.Graph
	envs map[int]*Env // by attribute count
}

var (
	pinCA = &pinNet{spec: gen.CA}
	// NA at the trajectory gate's large-cell scale (0.6, ~52k nodes).
	pinNA = &pinNet{spec: func() gen.Spec {
		s := gen.NA
		s.Nodes, s.Edges = int(float64(s.Nodes)*0.6), int(float64(s.Edges)*0.6)
		return s
	}()}
)

func (p *pinNet) env(t testing.TB, attrs int) *Env {
	t.Helper()
	p.once.Do(func() {
		spec := p.spec
		spec.Seed = 1
		g, err := gen.Generate(spec)
		if err != nil {
			t.Fatalf("generate %s: %v", spec.Name, err)
		}
		p.g, p.envs = g, map[int]*Env{}
	})
	if p.g == nil {
		t.Fatalf("network %s failed to generate", p.spec.Name)
	}
	if env, ok := p.envs[attrs]; ok {
		return env
	}
	env, err := NewEnv(p.g, gen.Objects(p.g, 0.5, attrs, 1), EnvConfig{})
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	p.envs[attrs] = env
	return env
}

// pinned is the recorded work of one cell.
type pinned struct {
	nodes, cands, distComp int
	pages                  int64
	points                 int
	hash                   uint64 // FNV-1a over (object id, distance bits) in report order
}

func (p pinned) String() string {
	return fmt.Sprintf("pinned{%d, %d, %d, %d, %d, %#x}", p.nodes, p.cands, p.distComp, p.pages, p.points, p.hash)
}

func hashVec(h interface{ Write([]byte) (int, error) }, id graph.ObjectID, vec []float64) {
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(id))
	for _, d := range vec {
		put(math.Float64bits(d))
	}
}

// pinCell is a fixed seeded workload: pinQueries query sets of nq points in a
// tenth of the network, answered by LBC, or by aggregate NN when k > 0.
type pinCell struct {
	name  string
	net   *pinNet
	nq    int
	attrs int
	opts  Options
	k     int // aggregate NN: neighbours asked for
	agg   Agg
	want  pinned // recorded at the parent commit (every session opened first)
	// scans is the recorded number of sessions opened with a frontier scan.
	// The parent's is one per (candidate, non-source searcher) pair less the
	// pairs resolved on settled endpoints.
	scans int
}

var pinCells = []pinCell{
	{name: "CA/q2", net: pinCA, nq: 2, want: pinned{453, 241, 246, 21, 31, 0x6b9b6cbd2dff6764}, scans: 9},
	{name: "CA/q4", net: pinCA, nq: 4, want: pinned{1514, 466, 567, 40, 96, 0xaf53529b994a0374}, scans: 216},
	{name: "CA/q8", net: pinCA, nq: 8, want: pinned{2767, 648, 1054, 44, 133, 0x24f0c9b278344c67}, scans: 1145},
	{name: "CA/q4/source2", net: pinCA, nq: 4, opts: Options{LBCSource: 2}, want: pinned{1521, 472, 550, 40, 96, 0x270677df0553b3ec}, scans: 191},
	{name: "CA/q4/alternate", net: pinCA, nq: 4, opts: Options{LBCAlternate: true}, want: pinned{3687, 468, 1940, 43, 96, 0xe14c1c9223f43fd8}, scans: 178},
	{name: "CA/q4/nolandmarks", net: pinCA, nq: 4, opts: Options{DisableLandmarks: true}, want: pinned{3635, 466, 554, 85, 96, 0xaf53529b994a0374}, scans: 746},
	{name: "CA/q4/noheuristic", net: pinCA, nq: 4, opts: Options{DisableAStarHeuristic: true}, want: pinned{7700, 466, 513, 122, 96, 0xaf53529b994a0374}, scans: 485},
	{name: "CA/q4/noplb", net: pinCA, nq: 4, opts: Options{DisablePLB: true}, want: pinned{1515, 466, 566, 40, 96, 0xaf53529b994a0374}, scans: 212},
	{name: "CA/q4/attrs", net: pinCA, nq: 4, attrs: 2, want: pinned{7099, 671, 1019, 109, 218, 0x72815c4143039d03}, scans: 503},
	{name: "CA/q8/alternate/attrs", net: pinCA, nq: 8, attrs: 2, opts: Options{LBCAlternate: true}, want: pinned{21675, 866, 7620, 112, 268, 0xa71c5a57908656f9}, scans: 1278},
	{name: "NA60/q2", net: pinNA, nq: 2, want: pinned{3801, 1859, 1866, 106, 171, 0x3b297bdef23dda0b}, scans: 196},
	{name: "NA60/q4", net: pinNA, nq: 4, want: pinned{12252, 3464, 3907, 177, 867, 0x6d17008f950bd142}, scans: 1726},
	{name: "NA60/q8", net: pinNA, nq: 8, want: pinned{38496, 6559, 9727, 310, 1744, 0xb4405470a2994e16}, scans: 11159},
	{name: "NA60/q4/alternate", net: pinNA, nq: 4, opts: Options{LBCAlternate: true}, want: pinned{21630, 3461, 14286, 184, 867, 0x48d038e030cdbdc2}, scans: 1606},
	{name: "NA60/q4/nolandmarks", net: pinNA, nq: 4, opts: Options{DisableLandmarks: true}, want: pinned{15707, 3464, 3741, 190, 867, 0x6d17008f950bd142}, scans: 2533},
	{name: "ANN/CA/sum/q4/k5", net: pinCA, nq: 4, k: 5, agg: AggSum, want: pinned{354, 297, 47, 16, 10, 0xb8f8f9f0777a9789}, scans: 99},
	{name: "ANN/CA/max/q4/k5", net: pinCA, nq: 4, k: 5, agg: AggMax, want: pinned{335, 188, 34, 18, 10, 0x64489534c551d934}, scans: 101},
	{name: "ANN/CA/sum/q4/k5/noheuristic", net: pinCA, nq: 4, k: 5, agg: AggSum, opts: Options{DisableAStarHeuristic: true}, want: pinned{2368, 297, 25, 46, 10, 0xb8f8f9f0777a9789}, scans: 474},
	{name: "ANN/NA60/sum/q4/k10", net: pinNA, nq: 4, k: 10, agg: AggSum, want: pinned{1423, 1404, 91, 59, 20, 0xd18dfa5b539b06da}, scans: 664},
	{name: "ANN/NA60/max/q8/k10", net: pinNA, nq: 8, k: 10, agg: AggMax, want: pinned{3877, 602, 126, 97, 20, 0x15a913c6bc9f3fea}, scans: 421},
}

// pinQueries is the number of seeded query sets summed per cell.
const pinQueries = 2

// run answers the cell's queries and returns their summed work, the scanning
// session opens and the number of (candidate, non-source searcher) pairs.
func (c pinCell) run(t testing.TB) (got pinned, scans, pairs int) {
	t.Helper()
	env := c.net.env(t, c.attrs)
	h := fnv.New64a()
	opts := c.opts
	opts.ColdCache = true
	for set := 0; set < pinQueries; set++ {
		pts := gen.QueryPoints(env.G, c.nq, 0.1, 1+int64(set))
		var m Metrics
		if c.k > 0 {
			res, err := AggregateNN(context.Background(), env, pts, c.k, c.agg, opts)
			if err != nil {
				t.Fatalf("%s set %d: %v", c.name, set, err)
			}
			for _, nb := range res.Neighbors {
				hashVec(h, nb.Object.ID, nb.Dists)
			}
			m, got.points, pairs = res.Metrics, got.points+len(res.Neighbors), pairs+res.Metrics.Candidates*c.nq
		} else {
			res, err := Run(context.Background(), env, Query{Points: pts, UseAttrs: c.attrs > 0}, AlgLBC, opts)
			if err != nil {
				t.Fatalf("%s set %d: %v", c.name, set, err)
			}
			for _, p := range res.Skyline {
				hashVec(h, p.Object.ID, p.Vec)
			}
			m, got.points, pairs = res.Metrics, got.points+len(res.Skyline), pairs+res.Metrics.Candidates*(c.nq-1)
		}
		got.nodes += m.NodesExpanded
		got.cands += m.Candidates
		got.distComp += m.DistanceComputations
		got.pages += m.NetworkPages
		scans += m.sessionScans
	}
	got.hash = h.Sum64()
	return got, scans, pairs
}

// TestBoundFirstPinsWork: the counters and the answer must repeat exactly;
// the scanning session opens may only fall, and on the NA cells stay under
// half of one per (candidate, non-source searcher) pair.
func TestBoundFirstPinsWork(t *testing.T) {
	for _, c := range pinCells {
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && c.net == pinNA {
				t.Skip("NA cells skipped in -short")
			}
			got, scans, pairs := c.run(t)
			t.Logf("%v, scans: %d of %d", got, scans, pairs)
			if got != c.want {
				t.Errorf("work changed:\n got  %v\n want %v", got, c.want)
			}
			if scans > c.scans {
				t.Errorf("%d sessions opened with a frontier scan, pinned at %d", scans, c.scans)
			}
			if c.net == pinNA && 2*scans > pairs {
				t.Errorf("%d sessions opened with a frontier scan for %d (candidate, searcher) pairs, want at most half", scans, pairs)
			}
		})
	}
}
