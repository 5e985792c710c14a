package core

import (
	"cmp"
	"context"
	"slices"
	"testing"
	"time"

	"roadskyline/internal/distcache"
	"roadskyline/internal/gen"
	"roadskyline/internal/geom"
	"roadskyline/internal/graph"
	"roadskyline/internal/rtree"
	"roadskyline/internal/skyline"
	"roadskyline/internal/sp"
	"roadskyline/internal/storage"
)

// BenchmarkLBCCheck times LBC's step 2 alone: the dominance check of the
// next candidates of a query that is already under way — |Q| = 3 on NA at
// 0.6 with landmarks, the searchers' wavefronts 400 settled nodes wide on
// average (which takes a skyline of some 60 points). A donor iterator runs
// to that state and draws the next candidates; each iteration restores the
// wavefronts from the donor's snapshots and checks the same candidates
// against the same skyline, so bounds, session opens and the few advances
// are on the clock and the NN stream is not.
func BenchmarkLBCCheck(b *testing.B) {
	const (
		nq         = 3
		wavefront  = 400
		skylineMin = 12
		candidates = 200
	)
	ctx := context.Background()
	env := pinNA.env(b, 0)
	q := Query{Points: gen.QueryPoints(env.G, nq, 0.1, 1)}
	donor, err := NewLBCIterator(ctx, env, q, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer donor.Close()
	settled := func() (total int) {
		for _, a := range donor.searchers {
			total += a.NodesExpanded()
		}
		return total
	}
	for len(donor.skyVecs) < skylineMin || settled() < nq*wavefront {
		if _, ok, err := donor.Next(); err != nil || !ok {
			b.Fatalf("donor stopped with %d skyline points: ok=%v err=%v", len(donor.skyVecs), ok, err)
		}
	}
	cands := make([]srcCand, 0, candidates)
	for len(cands) < candidates {
		c, ok, err := donor.streams[0].next()
		if err != nil || !ok {
			b.Fatalf("donor stream stopped after %d candidates: ok=%v err=%v", len(cands), ok, err)
		}
		cands = append(cands, c)
	}
	snaps := make([]*distcache.State, nq)
	scratches := make([]*sp.Scratch, nq)
	for i, a := range donor.searchers {
		snaps[i], scratches[i] = a.Snapshot(), sp.NewScratch()
	}
	sky := slices.Clone(donor.skyVecs)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		it := &LBCIterator{frame: &frame{env: env, q: q, n: nq, dims: nq, searchers: make([]*sp.AStar, nq)}, skyVecs: slices.Clone(sky)}
		for j, st := range snaps {
			it.searchers[j] = sp.NewAStarFromWith(ctx, env, st, donor.qPts[j], scratches[j])
			it.searchers[j].UseHeuristicSource(env.Landmarks)
		}
		it.initBounds()
		b.StartTimer()
		for _, c := range cands {
			if _, _, err := it.check(0, c); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEDCVerify times EDC's verification of one window batch alone, on
// a |Q| = 4 query on CA (the paper_cold cell): the window of a late seed,
// refined farthest-first against the query's network skyline — the front a
// late batch meets. Each iteration restores the searchers to where the
// seed's own vector left them, so the frontier-free bounds, the dominance
// tests and the sessions of the candidates that are not dominated are on the
// clock, and the R-tree is not.
func BenchmarkEDCVerify(b *testing.B) {
	const nq = 4
	ctx := context.Background()
	env := pinCA.env(b, 0)
	q := Query{Points: gen.QueryPoints(env.G, nq, 0.1, 1)}
	res, err := Run(ctx, env, q, AlgEDC, Options{ColdCache: true})
	if err != nil {
		b.Fatal(err)
	}
	qPts := make([]geom.Point, nq)
	for i, p := range q.Points {
		qPts[i] = env.G.Point(p)
	}
	euclid := make([][]float64, len(env.Objects))
	for i, o := range env.Objects {
		euclid[i] = make([]float64, nq)
		for j, qp := range qPts {
			euclid[i][j] = env.G.Point(o.Loc).Dist(qp)
		}
	}
	front := make([][]float64, len(res.Skyline))
	for i, p := range res.Skyline {
		front[i] = p.Vec
	}
	// The seed is the object an eighth of the way down the Euclidean order
	// EDC draws its seeds in: late seeds are the ones with wide windows.
	byEuclid := slices.Clone(env.Objects)
	sum := func(o graph.Object) (s float64) {
		for _, d := range euclid[o.ID] {
			s += d
		}
		return s
	}
	slices.SortFunc(byEuclid, func(x, y graph.Object) int { return cmp.Compare(sum(x), sum(y)) })
	seed := byEuclid[len(byEuclid)/8]

	pbar := make([]float64, nq)
	snaps := make([]*distcache.State, nq)
	scratches := make([]*sp.Scratch, nq)
	for i, p := range q.Points {
		scratches[i] = sp.NewScratch()
		a, err := sp.NewAStarWith(ctx, env, p, qPts[i], scratches[i])
		if err != nil {
			b.Fatal(err)
		}
		a.UseHeuristicSource(env.Landmarks)
		if pbar[i], err = a.NewSession(seed.Loc, env.G.Point(seed.Loc)).Run(); err != nil {
			b.Fatal(err)
		}
		snaps[i] = a.Snapshot()
	}
	var batch []graph.Object
	for _, o := range env.Objects {
		if o.ID != seed.ID && skyline.DominatesOrEqual(euclid[o.ID], pbar) {
			batch = append(batch, o)
		}
	}
	slices.SortFunc(batch, func(x, y graph.Object) int { return cmp.Compare(slices.Max(euclid[y.ID]), slices.Max(euclid[x.ID])) })

	dropped := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		astars := make([]*sp.AStar, nq)
		for j, st := range snaps {
			astars[j] = sp.NewAStarFromWith(ctx, env, st, qPts[j], scratches[j])
			astars[j].UseHeuristicSource(env.Landmarks)
		}
		var m Metrics
		bounds := newBoundVec(astars, nq, &m)
		dominated := func() bool { return skyline.DominatedBy(bounds.test(), front) }
		b.StartTimer()
		for _, o := range batch {
			exact, err := bounds.refine(sp.Target{Loc: o.Loc, Pt: env.G.Point(o.Loc)}, nil, dominated)
			if err != nil {
				b.Fatal(err)
			}
			if !exact {
				dropped++
			}
		}
	}
	b.ReportMetric(float64(len(batch)), "candidates")
	b.ReportMetric(float64(dropped)/float64(b.N), "dropped")
}

// BenchmarkLBCStream times LBC with its source stream on the clock: whole
// queries drained through the iterator (the stream needs the growing skyline
// to prune against), a |Q| = 2 and a |Q| = 4 query per op on CA (the mix the
// serve workloads draw from) and a |Q| = 4 query per op on NA at 0.6, each
// with landmarks and without. It is the in-package pair of the ledger's
// core.lbc_ms_p50. confirmations/op are the A* runs the stream made from the
// source, dropped/op the pending entries whose bounds the skyline dominated
// before any was made; without landmarks the stream is the paper's IER, less
// the few entries the skyline overtook while they were the look-ahead.
func BenchmarkLBCStream(b *testing.B) {
	ctx := context.Background()
	for _, c := range []struct {
		name string
		net  *pinNet
		nqs  []int
	}{
		{"CA", pinCA, []int{2, 4}},
		{"NA60", pinNA, []int{4}},
	} {
		for _, landmarks := range []bool{true, false} {
			name := c.name + "/landmarks"
			if !landmarks {
				name = c.name + "/nolandmarks"
			}
			b.Run(name, func(b *testing.B) {
				env := c.net.env(b, 0)
				opts := Options{ColdCache: true, DisableLandmarks: !landmarks}
				var queries []Query
				for _, nq := range c.nqs {
					queries = append(queries, Query{Points: gen.QueryPoints(env.G, nq, 0.1, 1)})
				}
				confirmed, dropped := 0, 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, q := range queries {
						it, err := NewLBCIterator(ctx, env, q, opts)
						if err != nil {
							b.Fatal(err)
						}
						streams := it.streams // exhaustion releases the iterator's hold
						for ok := true; ok; {
							if _, ok, err = it.Next(); err != nil {
								b.Fatal(err)
							}
						}
						for _, s := range streams {
							confirmed, dropped = confirmed+s.confirmed, dropped+s.dropped
						}
					}
				}
				b.ReportMetric(float64(confirmed)/float64(b.N), "confirmations/op")
				b.ReportMetric(float64(dropped)/float64(b.N), "dropped/op")
			})
		}
	}
}

// naDir is full-scale NA with the benchmark harness's object set (omega 0.5,
// no attributes): the network whose directory `na_mmap_lbc` builds and
// reopens, so these two benchmarks are the in-package pair of its setup_s
// and of storage.build_ms / storage.open_ms.
func naDir(b *testing.B) (*graph.Graph, []graph.Object, EnvConfig) {
	g, err := gen.Generate(gen.NA)
	if err != nil {
		b.Fatalf("generate NA: %v", err)
	}
	cfg := EnvConfig{Dir: b.TempDir(), RTreeFanout: rtree.DefaultFanout, Landmarks: DefaultLandmarks}
	applyEnvDefaults(&cfg)
	return g, gen.Objects(g, 0.5, 0, 1), cfg
}

// BenchmarkBuildDir times writing a network directory: page files, slabs and
// everything derived from the graph that the directory keeps.
func BenchmarkBuildDir(b *testing.B) {
	b.Run("NA", func(b *testing.B) {
		g, objs, cfg := naDir(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := buildDir(g, objs, 0, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkOpenEnv times reopening a built directory with the default
// configuration (landmarks on) through each backend; B/op is what an open
// puts on the heap.
func BenchmarkOpenEnv(b *testing.B) {
	g, objs, cfg := naDir(b)
	if err := buildDir(g, objs, 0, cfg); err != nil {
		b.Fatal(err)
	}
	for _, backend := range []storage.Backend{storage.BackendFile, storage.BackendMmap} {
		b.Run("NA/"+backend.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				env, err := OpenEnv(cfg.Dir, EnvConfig{Backend: backend})
				if err != nil {
					b.Fatal(err)
				}
				if err := env.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEDCWindow times whole EDC queries, window walks included, at two
// shapes of the ledger: serve_open's (CA, |Q| = 2 with
// one attribute, 49 query sets in 10% regions, warm buffers) and
// paper_cold's (CA, |Q| = 4, 9 sets, cold). One op answers every set once.
// first-us is the median time to the first skyline point, EDC's share of
// initial_ms_p50; windows/op is counted through testHookEDCWindow. It uses
// nothing but Run and the hook, so the same file times a parent commit too;
// rtree-nodes/op, windows/op and candidates/op are then equal on both sides
// for a change that claims only CPU.
func BenchmarkEDCWindow(b *testing.B) {
	ctx := context.Background()
	for _, c := range []struct {
		name      string
		nq, attrs int
		sets      int
		opts      Options
	}{
		{"serve_open", 2, 1, 49, Options{}},
		{"paper_cold", 4, 0, 9, Options{ColdCache: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			env := pinCA.env(b, c.attrs)
			queries := make([]Query, c.sets)
			for i := range queries {
				queries[i] = Query{Points: gen.QueryPoints(env.G, c.nq, 0.1, int64(1+i)), UseAttrs: c.attrs > 0}
			}
			var nodes, cands, windows int64
			var first []time.Duration
			testHookEDCWindow = func(*edcWindow, []float64, []windowCand) { windows++ }
			defer func() { testHookEDCWindow = nil }()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					res, err := Run(ctx, env, q, AlgEDC, c.opts)
					if err != nil {
						b.Fatal(err)
					}
					nodes, cands = nodes+res.Metrics.RTreeNodes, cands+int64(res.Metrics.Candidates)
					first = append(first, res.Metrics.Initial)
				}
			}
			slices.Sort(first)
			b.ReportMetric(float64(first[len(first)/2].Microseconds()), "first-us")
			b.ReportMetric(float64(nodes)/float64(b.N), "rtree-nodes/op")
			b.ReportMetric(float64(windows)/float64(b.N), "windows/op")
			b.ReportMetric(float64(cands)/float64(b.N), "candidates/op")
		})
	}
}

// BenchmarkServeOpenMix times whole queries of each algorithm at
// serve_open's shape: CA, |Q| = 2 with one attribute, 49 query sets in 10%
// regions, warm buffers, default options. One op answers every set once.
// nodes/q, cands/q and sky/q are the work per query, which must be equal
// on both sides of a change that claims only CPU. It is the in-package pair
// of serve_open's cpu_ms_per_query and uses nothing but Run, so the same
// file times a parent commit too.
func BenchmarkServeOpenMix(b *testing.B) { benchMix(b, 2, 1, 49, Options{}) }

// BenchmarkPaperColdMix is BenchmarkServeOpenMix at paper_cold's shape: CA,
// |Q| = 4, 27 query sets in 10% regions, every query cold. pages/q are the
// buffer misses per query, scans/q the A* sessions opened with a frontier
// scan.
func BenchmarkPaperColdMix(b *testing.B) { benchMix(b, 4, 0, 27, Options{ColdCache: true}) }

// benchMix answers sets query sets of nq points (and attrs attributes) under
// opts with each algorithm in turn, one sub-benchmark per algorithm.
func benchMix(b *testing.B, nq, attrs, sets int, opts Options) {
	ctx := context.Background()
	env := pinCA.env(b, attrs)
	queries := make([]Query, sets)
	for i := range queries {
		queries[i] = Query{Points: gen.QueryPoints(env.G, nq, 0.1, int64(1+i)), UseAttrs: attrs > 0}
	}
	for _, alg := range []Algorithm{AlgCE, AlgEDC, AlgLBC} {
		b.Run(alg.String(), func(b *testing.B) {
			var nodes, pages, scans, cands, sky int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					res, err := Run(ctx, env, q, alg, opts)
					if err != nil {
						b.Fatal(err)
					}
					m := res.Metrics
					nodes += int64(m.NodesExpanded)
					pages += m.NetworkPages
					scans += int64(m.sessionScans)
					cands += int64(m.Candidates)
					sky += int64(len(res.Skyline))
				}
			}
			perQuery := float64(b.N * sets)
			b.ReportMetric(float64(nodes)/perQuery, "nodes/q")
			b.ReportMetric(float64(pages)/perQuery, "pages/q")
			b.ReportMetric(float64(scans)/perQuery, "scans/q")
			b.ReportMetric(float64(cands)/perQuery, "cands/q")
			b.ReportMetric(float64(sky)/perQuery, "sky/q")
		})
	}
}
