package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"roadskyline/internal/bruteforce"
	"sync"
	"testing"

	"roadskyline/internal/gen"
	"roadskyline/internal/graph"
)

// The bound-first pins: LBC and aggregate NN test their stop rule on
// frontier-free bounds before opening A* sessions, open the sessions of an
// undominated candidate one at a time, and LBC's source stream confirms a
// Euclidean head only when the bound it was parked under comes up. The cells
// below pin every work counter and the exact answer (object ids and distance
// bits, in report order) so that a change to any of it shows as a number.
//
// Three generations are recorded. The answers of the single-source LBC cells
// and of the aggregate NN cells date from the loop that opened every session
// of every candidate first; `scans` pins what testing bounds first saves on
// that; `was` keeps the LBC counters from when the stream confirmed every
// head, which the pending heap may only lower. Alternating streams interleave
// differently since, so those cells report in a new order: their hashes were
// re-recorded, under the standing check that every LBC answer here equals
// CE's as a set. ANN/NA60/sum/q4/k10 was re-recorded too: taking bounds at
// their floor moved its last neighbour to the oracle's (the raw bound had kept
// an object one ulp farther), which the cell now asserts.

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
// tenth of the network (or what pts draws on the env network), answered by
// LBC, or by aggregate NN when k > 0.
type pinCell struct {
	name  string
	net   *pinNet
	nq    int
	attrs int
	env   func(testing.TB) *Env            // instead of net and attrs
	pts   func(*Env, int) []graph.Location // with env: the query points of a set
	opts  Options
	k     int // aggregate NN: neighbours asked for
	agg   Agg
	want  pinned
	// was is an LBC cell's record from before the source stream parked its
	// heads (when it confirmed every one): the ceiling of the counters, and
	// with a single source the answer, order included. Zero for newer cells.
	was pinned
	// scans is the recorded number of sessions opened with a frontier scan.
	// Opening every session first costs one per (candidate, non-source
	// searcher) pair less the pairs resolved on settled endpoints.
	scans int
}

var pinCells = []pinCell{
	{name: "CA/q2", net: pinCA, nq: 2, want: pinned{250, 67, 72, 11, 31, 0x6b9b6cbd2dff6764}, was: pinned{453, 241, 246, 21, 31, 0x6b9b6cbd2dff6764}, scans: 9},
	{name: "CA/q4", net: pinCA, nq: 4, want: pinned{866, 169, 270, 19, 96, 0xaf53529b994a0374}, was: pinned{1514, 466, 567, 40, 96, 0xaf53529b994a0374}, scans: 216},
	{name: "CA/q8", net: pinCA, nq: 8, want: pinned{2099, 289, 695, 24, 133, 0x24f0c9b278344c67}, was: pinned{2767, 648, 1054, 44, 133, 0x24f0c9b278344c67}, scans: 1145},
	{name: "CA/q4/source2", net: pinCA, nq: 4, opts: Options{LBCSource: 2}, want: pinned{867, 169, 247, 19, 96, 0x270677df0553b3ec}, was: pinned{1521, 472, 550, 40, 96, 0x270677df0553b3ec}, scans: 191},
	{name: "CA/q4/alternate", net: pinCA, nq: 4, opts: Options{LBCAlternate: true}, want: pinned{1068, 169, 762, 19, 96, 0xa1c3cf4f51d943e8}, was: pinned{3687, 468, 1940, 43, 96, 0xe14c1c9223f43fd8}, scans: 215},
	{name: "CA/q4/nolandmarks", net: pinCA, nq: 4, opts: Options{DisableLandmarks: true}, want: pinned{3635, 466, 554, 85, 96, 0xaf53529b994a0374}, was: pinned{3635, 466, 554, 85, 96, 0xaf53529b994a0374}, scans: 746},
	{name: "CA/q4/noheuristic", net: pinCA, nq: 4, opts: Options{DisableAStarHeuristic: true}, want: pinned{7700, 466, 513, 122, 96, 0xaf53529b994a0374}, was: pinned{7700, 466, 513, 122, 96, 0xaf53529b994a0374}, scans: 485},
	{name: "CA/q4/noplb", net: pinCA, nq: 4, opts: Options{DisablePLB: true}, want: pinned{867, 169, 269, 19, 96, 0xaf53529b994a0374}, was: pinned{1515, 466, 566, 40, 96, 0xaf53529b994a0374}, scans: 212},
	{name: "CA/q4/attrs", net: pinCA, nq: 4, attrs: 2, want: pinned{6074, 292, 640, 82, 218, 0x72815c4143039d03}, was: pinned{7099, 671, 1019, 109, 218, 0x72815c4143039d03}, scans: 503},
	{name: "CA/q8/alternate/attrs", net: pinCA, nq: 8, attrs: 2, opts: Options{LBCAlternate: true}, want: pinned{12818, 380, 3879, 88, 268, 0x917854ceb571e3c1}, was: pinned{21675, 866, 7620, 112, 268, 0xa71c5a57908656f9}, scans: 1395},
	{name: "NA60/q2", net: pinNA, nq: 2, want: pinned{2308, 763, 770, 63, 171, 0x3b297bdef23dda0b}, was: pinned{3801, 1859, 1866, 106, 171, 0x3b297bdef23dda0b}, scans: 196},
	{name: "NA60/q4", net: pinNA, nq: 4, want: pinned{10252, 2041, 2484, 120, 867, 0x6d17008f950bd142}, was: pinned{12252, 3464, 3907, 177, 867, 0x6d17008f950bd142}, scans: 1726},
	{name: "NA60/q8", net: pinNA, nq: 8, want: pinned{34645, 3866, 7034, 204, 1744, 0xb4405470a2994e16}, was: pinned{38496, 6559, 9727, 310, 1744, 0xb4405470a2994e16}, scans: 11159},
	{name: "NA60/q4/alternate", net: pinNA, nq: 4, opts: Options{LBCAlternate: true}, want: pinned{13975, 2041, 8621, 131, 867, 0xc9e53acbb6e49412}, was: pinned{21630, 3461, 14286, 184, 867, 0x48d038e030cdbdc2}, scans: 1677},
	{name: "NA60/q4/nolandmarks", net: pinNA, nq: 4, opts: Options{DisableLandmarks: true}, want: pinned{15704, 3458, 3735, 190, 867, 0x6d17008f950bd142}, was: pinned{15707, 3464, 3741, 190, 867, 0x6d17008f950bd142}, scans: 2533},
	{name: "ANN/CA/sum/q4/k5", net: pinCA, nq: 4, k: 5, agg: AggSum, want: pinned{354, 297, 47, 16, 10, 0xb8f8f9f0777a9789}, scans: 100},
	{name: "ANN/CA/max/q4/k5", net: pinCA, nq: 4, k: 5, agg: AggMax, want: pinned{335, 188, 34, 18, 10, 0x64489534c551d934}, scans: 101},
	{name: "ANN/CA/sum/q4/k5/noheuristic", net: pinCA, nq: 4, k: 5, agg: AggSum, opts: Options{DisableAStarHeuristic: true}, want: pinned{2368, 297, 25, 46, 10, 0xb8f8f9f0777a9789}, scans: 474},
	{name: "ANN/NA60/sum/q4/k10", net: pinNA, nq: 4, k: 10, agg: AggSum, want: pinned{1428, 1404, 94, 59, 20, 0x5a06feda6e797b4}, scans: 664},
	{name: "ANN/NA60/max/q8/k10", net: pinNA, nq: 8, k: 10, agg: AggMax, want: pinned{3877, 602, 126, 97, 20, 0x15a913c6bc9f3fea}, scans: 421},
	// Every location holds two objects: each skyline point has a twin with
	// the same vector, and every aggregate occurs twice.
	{name: "twins/source0", env: twinsEnv, pts: twinPts, want: pinned{351, 304, 335, 18, 64, 0x1c60068a820a6de9}, scans: 232},
	{name: "twins/source1", env: twinsEnv, pts: twinPts, opts: Options{LBCSource: 1}, want: pinned{352, 304, 330, 18, 64, 0x19d54b14fdd938e1}, scans: 160},
	{name: "twins/source2", env: twinsEnv, pts: twinPts, opts: Options{LBCSource: 2}, want: pinned{392, 304, 338, 18, 64, 0x884c3339858a4b89}, scans: 419},
	{name: "twins/alternate", env: twinsEnv, pts: twinPts, opts: Options{LBCAlternate: true}, want: pinned{731, 304, 944, 18, 64, 0x60dfe8d580f2073d}, scans: 239},
	{name: "twins/nolandmarks", env: twinsEnv, pts: twinPts, opts: Options{DisableLandmarks: true}, want: pinned{993, 480, 494, 18, 64, 0x55ff64ea3f38cded}, scans: 606},
	{name: "twins/q1", env: twinsEnv, pts: onTwins, want: pinned{0, 4, 4, 4, 4, 0x8bd51434fd9ed2e5}, scans: 0},
	{name: "twins/q1/alternate", env: twinsEnv, pts: onTwins, opts: Options{LBCAlternate: true}, want: pinned{0, 4, 4, 4, 4, 0x8bd51434fd9ed2e5}, scans: 0},
	{name: "ANN/twins/sum/k5", env: twinsEnv, pts: twinPts, k: 5, agg: AggSum, want: pinned{275, 480, 50, 18, 10, 0x17232af39fe435db}, scans: 308},
	{name: "ANN/twins/max/k5", env: twinsEnv, pts: twinPts, k: 5, agg: AggMax, want: pinned{267, 480, 46, 18, 10, 0x8d583ff4a51d9d0c}, scans: 386},
	{name: "ANN/twins/q1/sum/k3", env: twinsEnv, pts: onTwins, k: 3, agg: AggSum, want: pinned{54, 78, 3, 11, 6, 0x66a9fc5f8cf9592}, scans: 12},
}

// pinQueries is the number of seeded query sets summed per cell.
const pinQueries = 2

// run answers the cell's queries and returns their summed work, the scanning
// session opens and the number of (candidate, non-source searcher) pairs.
// Every answer is first held to an independent one: an LBC skyline to CE's
// (same objects, same distances), aggregate neighbours to the brute-force
// oracle's aggregates, bit for bit.
func (c pinCell) run(t testing.TB) (got pinned, scans, pairs int) {
	t.Helper()
	ctx := context.Background()
	var env *Env
	if c.env != nil {
		env = c.env(t)
	} else {
		env = c.net.env(t, c.attrs)
	}
	h := fnv.New64a()
	opts := c.opts
	opts.ColdCache = true
	for set := 0; set < pinQueries; set++ {
		var pts []graph.Location
		if c.pts != nil {
			pts = c.pts(env, set)
		} else {
			pts = gen.QueryPoints(env.G, c.nq, 0.1, 1+int64(set))
		}
		var m Metrics
		if c.k > 0 {
			res, err := AggregateNN(ctx, env, pts, c.k, c.agg, opts)
			if err != nil {
				t.Fatalf("%s set %d: %v", c.name, set, err)
			}
			want := oracleAggNN(env, pts, c.k, c.agg)
			if len(res.Neighbors) != len(want) {
				t.Fatalf("%s set %d: %d neighbours, oracle %d", c.name, set, len(res.Neighbors), len(want))
			}
			for i, nb := range res.Neighbors {
				if nb.Agg != want[i] {
					t.Errorf("%s set %d: rank %d is object %d at %v, oracle %v", c.name, set, i, nb.Object.ID, nb.Agg, want[i])
				}
				hashVec(h, nb.Object.ID, nb.Dists)
			}
			m, got.points, pairs = res.Metrics, got.points+len(res.Neighbors), pairs+res.Metrics.Candidates*len(pts)
		} else {
			q := Query{Points: pts, UseAttrs: c.attrs > 0}
			res, err := Run(ctx, env, q, AlgLBC, opts)
			if err != nil {
				t.Fatalf("%s set %d: %v", c.name, set, err)
			}
			ce, err := Run(ctx, env, q, AlgCE, Options{ColdCache: true})
			if err != nil {
				t.Fatalf("%s set %d: CE: %v", c.name, set, err)
			}
			if err := sameSkyline(res, ce); err != nil {
				t.Errorf("%s set %d: LBC against CE: %v", c.name, set, err)
			}
			for _, p := range res.Skyline {
				hashVec(h, p.Object.ID, p.Vec)
			}
			m, got.points, pairs = res.Metrics, got.points+len(res.Skyline), pairs+res.Metrics.Candidates*(len(pts)-1)
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

// sameSkyline reports how two results differ as sets: the objects, or a
// vector entry by more than 1e-9.
func sameSkyline(got, want *Result) error {
	if g, w := skylineIDs(got), skylineIDs(want); !sameIDs(g, w) {
		return fmt.Errorf("%d skyline points %v, want %d %v", len(g), g, len(w), w)
	}
	vecs := make(map[graph.ObjectID][]float64, len(want.Skyline))
	for _, p := range want.Skyline {
		vecs[p.Object.ID] = p.Vec
	}
	for _, p := range got.Skyline {
		for i, d := range p.Vec {
			if w := vecs[p.Object.ID][i]; d != w && !(math.Abs(d-w) <= 1e-9) {
				return fmt.Errorf("object %d entry %d is %v, want %v", p.Object.ID, i, d, w)
			}
		}
	}
	return nil
}

// TestBoundFirstPinsWork: the counters and the answer must repeat exactly;
// the scanning session opens may only fall, and on the NA cells stay under
// half of one per (candidate, non-source searcher) pair. Against the stream
// that confirmed every head, no counter is higher and a single source reports
// the same points in the same order.
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
			if was := c.was; was != (pinned{}) {
				if got.nodes > was.nodes || got.cands > was.cands || got.distComp > was.distComp || got.pages > was.pages || got.points != was.points {
					t.Errorf("more work than confirming every head:\n got %v\n was %v", got, was)
				}
				if !c.opts.LBCAlternate && got.hash != was.hash {
					t.Errorf("answer hash %#x, was %#x: a single source reports in a new order", got.hash, was.hash)
				}
			}
		})
	}
}

// TestTwinsMatchOracle: on the network where every location holds two
// objects, LBC from every source and alternating, and aggregate NN for both
// aggregates, return what the brute-force oracle and CE return. A bound taken
// raw instead of at its floor lets a skyline point "strictly" dominate its
// bit-identical twin here, and loses it.
func TestTwinsMatchOracle(t *testing.T) {
	ctx := context.Background()
	env := twinsEnv(t)
	for set := 0; set < 4; set++ {
		pts := twinPts(env, set)
		q := Query{Points: pts}
		want, _ := bruteforce.NetworkSkyline(env.G, env.Objects, pts, false)
		ce, err := Run(ctx, env, q, AlgCE, Options{ColdCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := skylineIDs(ce); !sameIDs(got, want) {
			t.Errorf("set %d: CE reports %d points, oracle %d", set, len(got), len(want))
		}
		arms := map[string]Options{
			"alternate":   {LBCAlternate: true},
			"nolandmarks": {DisableLandmarks: true},
			"noplb":       {DisablePLB: true},
		}
		for src := range pts {
			arms[fmt.Sprint("source", src)] = Options{LBCSource: src}
		}
		for name, opts := range arms {
			opts.ColdCache = true
			res, err := Run(ctx, env, q, AlgLBC, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := skylineIDs(res); !sameIDs(got, want) {
				t.Errorf("set %d LBC/%s: %d of %d skyline points: %v, oracle %v", set, name, len(got), len(want), got, want)
			} else if err := sameSkyline(res, ce); err != nil {
				t.Errorf("set %d LBC/%s against CE: %v", set, name, err)
			}
		}
		for _, agg := range []Agg{AggSum, AggMax} {
			for _, k := range []int{1, 2, 5, 16} {
				res, err := AggregateNN(ctx, env, pts, k, agg, Options{ColdCache: true})
				if err != nil {
					t.Fatal(err)
				}
				want := oracleAggNN(env, pts, k, agg)
				if len(res.Neighbors) != len(want) {
					t.Fatalf("set %d ANN %v k=%d: %d neighbours, oracle %d", set, agg, k, len(res.Neighbors), len(want))
				}
				for i, nb := range res.Neighbors {
					if nb.Agg != want[i] {
						t.Errorf("set %d ANN %v k=%d: rank %d is object %d at %v, oracle %v", set, agg, k, i, nb.Object.ID, nb.Agg, want[i])
					}
				}
			}
		}
	}
}
