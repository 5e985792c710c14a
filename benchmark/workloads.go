package main

import (
	"fmt"
	"time"

	"roadskyline"
	"roadskyline/internal/graph"
)

// workload is one traffic mix and the system it is sent to. The numbers
// here — catalog shapes, client counts, the open-loop rate — are frozen:
// later changes are measured against them, so changing one is a change to
// the benchmark, not to the program.
type workload struct {
	name string
	why  string
	seed int64

	dataset  string // "CA" or "NA"
	objAttrs int    // static attributes generated per object

	// The system under test: a skylineserve child (serve), or an in-process
	// Engine, behind a Pool when pool.Workers is set.
	serve     bool
	serveArgs []string
	engine    roadskyline.EngineConfig
	mmapDir   bool
	pool      roadskyline.PoolConfig

	callers  int     // client goroutines / connections
	openRate float64 // > 0: open loop at this many arrivals per second
	warm     int     // untimed warm-up queries before the clock starts
	setups   int     // set-ups per run; setup_s is their median

	catalog func(ds *dataset, seed int64, quick bool) ([]query, error)
}

// serveEngine and servePool are what cmd/skylineserve builds at its
// production defaults; the traced pass builds the same in process to time
// the pool without the HTTP front.
var (
	serveEngine = roadskyline.EngineConfig{
		WarmCache:      true,
		FlightRecorder: roadskyline.FlightRecorderConfig{Size: 512, SlowN: 32, SampleEvery: 1},
	}
	servePool = roadskyline.PoolConfig{Workers: 2, Window: true, RuntimeSample: 5 * time.Second}
)

func workloads(seed int64, quick bool) []*workload {
	ws := []*workload{
		{
			name:    "paper_cold",
			why:     "the paper's Section 6 default as a library call: core, sp, rtree and the page-counting storage stack do everything; pool, HTTP and both caches are bypassed and must not move it",
			dataset: "CA", callers: 1, setups: 15,
			catalog: catalogPaperCold,
		},
		{
			name:    "serve_small",
			why:     "sub-millisecond queries through a real skylineserve child: URL parsing, snapping, admission, default-on tracing and JSON are about half of latency here and a rounding error elsewhere",
			dataset: "CA", serve: true, callers: 2, warm: 512, setups: 9,
			catalog: catalogServeSmall,
		},
		{
			name:    "serve_open",
			why:     "independent users: Poisson arrivals at a fixed rate with attribute dimensions on, so CPU saved shows amplified in p95 through queueing and batching shows its cost",
			dataset: "CA", objAttrs: 1, serve: true, serveArgs: []string{"-attrs", "1"},
			callers: 2, openRate: serveOpenRate, warm: 147, setups: 9,
			catalog: catalogServeOpen,
		},
		{
			name:    "pool_hot",
			why:     "two of three query points repeat, so distcache and shared wavefronts do the work while the fresh third pays Put, deep copy and eviction: a cache change shows both sides in one run",
			dataset: "CA", callers: 2, warm: 300, setups: 15,
			engine: roadskyline.EngineConfig{
				WarmCache:       true,
				DistCache:       roadskyline.DistCacheConfig{Entries: poolHotCache(quick)},
				ShareWavefronts: true,
			},
			pool:    roadskyline.PoolConfig{Workers: 2},
			catalog: catalogPoolHot,
		},
		{
			name:    "na_mmap_lbc",
			why:     "28x CA's size behind mmap with buffer pools smaller than the working set: A*, landmark bounds and the R-tree at scale, real buffer misses, and a set-up large enough to see build changes",
			dataset: "NA", mmapDir: true, callers: 2, warm: 48, setups: 3,
			engine:  roadskyline.EngineConfig{WarmCache: true},
			pool:    roadskyline.PoolConfig{Workers: 2},
			catalog: catalogNA,
		},
	}
	for _, w := range ws {
		w.seed = seed
		if quick {
			w.setups, w.warm = 1, min(w.warm, 32)
		}
	}
	return ws
}

// serveOpenRate is serve_open's arrival rate, a quarter of what two
// closed-loop connections reach on the same mix at the seed commit
// (~180/s). An open loop turns a slower machine into longer queues, and the
// sandbox's speed drifts by 30% over minutes: at 60/s that moved p50 by 60%
// from one ten-run series to the next, at 45/s queues stay short enough for
// two series to agree.
const serveOpenRate = 45

// poolHotEntries is pool_hot's distance-cache capacity. The catalog holds
// 1.5x as many fresh points, so a fresh point is evicted before a later
// pass asks for it again, and one pass stays a few seconds long.
const poolHotEntries = 256

func poolHotCache(quick bool) int {
	if quick {
		return poolHotEntries / 8
	}
	return poolHotEntries
}

var allAlgs = []roadskyline.Algorithm{roadskyline.CEAlg, roadskyline.EDCAlg, roadskyline.LBCAlg}

// strata is the side of the grid of region origins (see regionPoints).
func strata(full int, quick bool) int {
	if quick {
		return (full + 2) / 3
	}
	return full
}

func locations(ls []graph.Location) []roadskyline.Location {
	out := make([]roadskyline.Location, len(ls))
	for i, l := range ls {
		out[i] = ploc(l)
	}
	return out
}

// catalogPaperCold: 81 query sets of |Q|=4 in 10% regions, one region per
// cell of a 9x9 grid, each set run by CE, EDC and LBC.
func catalogPaperCold(ds *dataset, seed int64, quick bool) ([]query, error) {
	base, rng, n := newRand(baseSeed), newRand(seed), strata(9, quick)
	var cat []query
	for c := 0; c < n*n; c++ {
		pts := locations(regionPoints(ds.g, base, rng, 0.10, c%n, c/n, n, 4))
		for _, alg := range allAlgs {
			cat = append(cat, query{pts: pts, alg: alg})
		}
	}
	return cat, nil
}

// catalogServeSmall: 512 distinct sets of |Q|=2 in 2% regions (two per cell
// of a 16x16 grid), LBC.
func catalogServeSmall(ds *dataset, seed int64, quick bool) ([]query, error) {
	base, rng, n := newRand(baseSeed), newRand(seed), strata(16, quick)
	var cat []query
	for c := 0; c < n*n; c++ {
		for k := 0; k < 2; k++ {
			q := query{pts: locations(regionPoints(ds.g, base, rng, 0.02, c%n, c/n, n, 2)), alg: roadskyline.LBCAlg}
			if err := httpQuery(ds, &q); err != nil {
				return nil, err
			}
			cat = append(cat, q)
		}
	}
	return cat, nil
}

// catalogServeOpen: 49 sets of |Q|=2 in 10% regions (7x7 grid) with the
// objects' attribute as a third dimension, CE/EDC/LBC round-robin: 147
// requests, so a 10 s run at 45/s replays the catalog three times. (|Q|=4 with the
// attribute costs 30 ms a query, which caps this machine near 60/s: too few
// arrivals in a run for a p95.)
func catalogServeOpen(ds *dataset, seed int64, quick bool) ([]query, error) {
	base, rng, n := newRand(baseSeed), newRand(seed), strata(7, quick)
	var cat []query
	for c := 0; c < n*n; c++ {
		pts := locations(regionPoints(ds.g, base, rng, 0.10, c%n, c/n, n, 2))
		for _, alg := range allAlgs {
			q := query{pts: append([]roadskyline.Location(nil), pts...), alg: alg, attrs: true}
			if err := httpQuery(ds, &q); err != nil {
				return nil, err
			}
			cat = append(cat, q)
		}
	}
	return cat, nil
}

// catalogPoolHot: |Q|=3 inside one 10% region; two points come from 16
// fixed hot locations, the third is fresh (see poolHotEntries). One query in
// three is CE, the others LBC: at one in two the median latency would sit on
// the boundary between the two algorithms' costs and jump from run to run.
func catalogPoolHot(ds *dataset, seed int64, quick bool) ([]query, error) {
	base, rng := newRand(baseSeed), newRand(seed)
	size := poolHotCache(quick) * 3 / 2
	pts := regionPoints(ds.g, base, rng, 0.10, 1, 2, 4, 16+size)
	hot, fresh := pts[:16], pts[16:]
	cat := make([]query, size)
	for i := range cat {
		a := rng.Intn(16)
		b := (a + 1 + rng.Intn(15)) % 16
		alg := roadskyline.LBCAlg
		if i%3 == 0 {
			alg = roadskyline.CEAlg
		}
		cat[i] = query{pts: locations([]graph.Location{hot[a], hot[b], fresh[i]}), alg: alg}
	}
	return cat, nil
}

// catalogNA: |Q|=3 in 2% regions, LBC. Each cell of a 5x5 grid holds five
// points and contributes their ten triples, so 250 sets — enough for a p95
// over the catalog — cost the oracle 125 exhaustive Dijkstras over 86k
// nodes instead of 750. (In 5% regions a query costs 50 ms and a run fits
// one pass; at 2% it costs 12 ms, still faults 27 pages, and a run fits five.)
func catalogNA(ds *dataset, seed int64, quick bool) ([]query, error) {
	base, rng, n := newRand(baseSeed), newRand(seed), strata(5, quick)
	var cat []query
	for c := 0; c < n*n; c++ {
		p := regionPoints(ds.g, base, rng, 0.02, c%n, c/n, n, 5)
		for i := 0; i < len(p); i++ {
			for j := i + 1; j < len(p); j++ {
				for k := j + 1; k < len(p); k++ {
					cat = append(cat, query{pts: locations([]graph.Location{p[i], p[j], p[k]}), alg: roadskyline.LBCAlg})
				}
			}
		}
	}
	return cat, nil
}

func findWorkload(ws []*workload, name string) (*workload, error) {
	for _, w := range ws {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
