package roadskyline

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"roadskyline/internal/testnet"
)

// The trajectory workload is fully determined by its seeds, so its work
// counters repeat bit for bit: TestTrajectory holds every cell to its group
// of testdata/pins.json with zero tolerance. These are the cells that need
// an Engine, a Pool-style warm engine or a built mmap directory; the cells
// that only need core run in internal/core.
const (
	trajectorySeed       = 2007
	trajectoryScale      = 0.25
	trajectorySets       = 4 // query sets per (alg, |Q|) cell
	trajectoryHotQueries = 48
	trajectoryHotSets    = 8
	trajectoryCacheSize  = 256
	// Duplicate copies of the single hot query in the wavefront cells: the
	// off cell runs them serially, the on cell holds the leader until all
	// K-1 copies subscribe, so both cells' counters are deterministic.
	trajectoryWavefrontDupes = 4
	// The large cells run on NA at this scale (>= 50k nodes), where the
	// per-node search state dominates; the full-scale cell serves the
	// unscaled NA network from a built directory through the mmap backend.
	trajectoryLargeScale = 0.6
	trajectoryLargeSets  = 2
	trajectoryFullSets   = 2
)

// trajectoryCell is a cell's instance and how to answer it: run adds the
// work of the cell's queries to its pin.
type trajectoryCell struct {
	testnet.Pin
	run func(t *testing.T, c *testnet.Pin)
}

// TestTrajectory answers each cell in its own subtest and requires its pin
// back exactly: nodes expanded, network pages, candidates, distances,
// skyline size and distance-cache hit rate, in both directions — a counter
// that falls fails as surely as one that grows. A change that means to alter
// the work rewrites the file with -update, which logs every value that moved.
func TestTrajectory(t *testing.T) {
	cells := trajectoryCells(t)
	names := make([]string, len(cells))
	for i, c := range cells {
		names[i] = c.Name
	}
	pins := testnet.LoadPins(t, testnet.PinsFile, *updateGolden, names)
	for _, c := range cells {
		t.Run(c.Name, func(t *testing.T) {
			got := c.Pin
			c.run(t, &got)
			pins.Check(t, got)
		})
	}
}

// trajectorySpec scales a preset's node and edge budgets, keeping at least
// 100 nodes and a spanning tree's worth of edges, and stamps the seed.
func trajectorySpec(spec NetworkSpec, scale float64) NetworkSpec {
	if scale != 1 {
		spec.Nodes = max(int(float64(spec.Nodes)*scale), 100)
		spec.Edges = max(int(float64(spec.Edges)*scale), spec.Nodes-1)
	}
	spec.Seed = trajectorySeed
	return spec
}

func trajectoryNetwork(t *testing.T, spec NetworkSpec, scale float64) *Network {
	t.Helper()
	n, err := Generate(trajectorySpec(spec, scale))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func trajectoryEngine(t *testing.T, n *Network, attrs int, cfg EngineConfig) *Engine {
	t.Helper()
	eng, err := NewEngine(n, n.GenerateObjects(0.5, attrs, trajectorySeed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// trajectoryCells lists the workload's 15 cells: every algorithm at |Q| in
// {2, 4, 8} cold on CA at a quarter of its size, the distance cache hot, the
// wavefront herd with and without sharing, CE and LBC on NA60, and LBC on
// the full NA network through the mmap backend.
func trajectoryCells(t *testing.T) []trajectoryCell {
	n := trajectoryNetwork(t, CA, trajectoryScale)
	eng := trajectoryEngine(t, n, 0, EngineConfig{})
	ca := testnet.Pin{Net: "CA25", Seed: trajectorySeed}
	var cells []trajectoryCell

	algs := []Algorithm{CEAlg, EDCAlg, LBCAlg}
	for _, alg := range algs {
		for _, nq := range []int{2, 4, 8} {
			c := ca
			c.Name, c.Q, c.Queries, c.Alg = fmt.Sprintf("%s/q%d", alg, nq), nq, trajectorySets, alg.String()
			cells = append(cells, trajectoryCell{c, func(t *testing.T, c *testnet.Pin) {
				for set := range c.Queries {
					addResult(c, trajectoryQuery(t, eng, Query{
						Points: n.GenerateQueryPoints(nq, 0.1, trajectorySeed+int64(set)), Algorithm: alg,
					}))
				}
			}})
		}
	}

	// A few hot point sets asked repeatedly on a warm engine with the
	// distance cache on, rotating the algorithms.
	hot := ca
	hot.Name, hot.Q, hot.Queries, hot.Alg = "distcache/hot", 4, trajectoryHotQueries, "mixed"
	hot.Options = fmt.Sprintf("WarmCache DistCache.Entries=%d", trajectoryCacheSize)
	cells = append(cells, trajectoryCell{hot, func(t *testing.T, c *testnet.Pin) {
		hotEng := trajectoryEngine(t, n, 0, EngineConfig{WarmCache: true, DistCache: DistCacheConfig{Entries: trajectoryCacheSize}})
		sets := make([][]Location, trajectoryHotSets)
		for i := range sets {
			sets[i] = n.GenerateQueryPoints(4, 0.1, trajectorySeed+int64(i))
		}
		for i := range c.Queries {
			addResult(c, trajectoryQuery(t, hotEng, Query{Points: sets[i%trajectoryHotSets], Algorithm: algs[i%len(algs)]}))
		}
		if st := hotEng.DistCacheStats(); st.Hits+st.Misses > 0 {
			c.HitRate = float64(st.Hits) / float64(st.Hits+st.Misses)
		}
	}})

	for _, share := range []bool{false, true} {
		c := ca
		c.Name, c.Q, c.Attrs, c.Queries, c.Alg, c.Options = "wavefront/off", 1, 2, trajectoryWavefrontDupes, "CE", "WarmCache"
		if share {
			c.Name, c.Options = "wavefront/on", "WarmCache ShareWavefronts"
		}
		cells = append(cells, trajectoryCell{c, func(t *testing.T, c *testnet.Pin) {
			for _, res := range wavefrontHerd(t, n, share) {
				addResult(c, res)
			}
		}})
	}

	// NA at trajectoryLargeScale: CE stresses the Dijkstra wavefronts,
	// LBC the chained A* sessions. Both cells share one engine.
	var large *Network
	var largeEng *Engine
	for _, alg := range []Algorithm{CEAlg, LBCAlg} {
		c := testnet.Pin{Name: fmt.Sprintf("NA%.0f/%s/q4", 100*trajectoryLargeScale, alg), Net: "NA60", Seed: trajectorySeed,
			Q: 4, Queries: trajectoryLargeSets, Alg: alg.String()}
		cells = append(cells, trajectoryCell{c, func(t *testing.T, c *testnet.Pin) {
			if largeEng == nil {
				large = trajectoryNetwork(t, NA, trajectoryLargeScale)
				largeEng = trajectoryEngine(t, large, 0, EngineConfig{})
			}
			for set := range c.Queries {
				addResult(c, trajectoryQuery(t, largeEng, Query{
					Points: large.GenerateQueryPoints(4, 0.1, trajectorySeed+int64(set)), Algorithm: alg,
				}))
			}
		}})
	}

	full := testnet.Pin{Name: "NAfull/mmap/LBC/q4", Net: "NA", Seed: trajectorySeed, Q: 4, Queries: trajectoryFullSets, Alg: "LBC", Options: "mmap"}
	return append(cells, trajectoryCell{full, fullScaleMmapCell})
}

func addResult(c *testnet.Pin, res *Result) {
	c.Nodes += res.Stats.NodesExpanded
	c.Pages += res.Stats.NetworkPages
	c.Candidates += res.Stats.Candidates
	c.Distances += res.Stats.DistanceComputations
	c.Skyline += len(res.Points)
}

func trajectoryQuery(t *testing.T, eng *Engine, q Query) *Result {
	t.Helper()
	res, err := eng.Skyline(q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// fullScaleMmapCell builds the unscaled NA network into a directory and
// answers LBC from it through the mmap backend. The backend cannot change
// the counters, so this cell catches storage-layer drift (changed page
// layout, extra page requests) at the paper's largest network size.
func fullScaleMmapCell(t *testing.T, c *testnet.Pin) {
	n := trajectoryNetwork(t, NA, 1)
	dir := t.TempDir()
	if err := trajectoryEngine(t, n, 0, EngineConfig{DiskDir: dir}).Close(); err != nil {
		t.Fatal(err)
	}
	eng, err := OpenEngine(dir, EngineConfig{Backend: BackendMmap})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for set := range c.Queries {
		addResult(c, trajectoryQuery(t, eng, Query{
			Points: n.GenerateQueryPoints(4, 0.1, trajectorySeed+int64(set)), Algorithm: LBCAlg,
		}))
	}
}

// wavefrontHerd runs the same single-point CE query (attributes on, so the
// wavefront covers a real slice of the network) trajectoryWavefrontDupes
// times: serially without sharing, or concurrently with sharing and the
// leader held at its gate until every other copy has subscribed, so the
// herd is one leader expansion plus K-1 resumed subscribers.
func wavefrontHerd(t *testing.T, n *Network, share bool) []*Result {
	t.Helper()
	const K = trajectoryWavefrontDupes
	q := Query{Points: n.GenerateQueryPoints(1, 0.1, trajectorySeed), UseAttrs: true, Algorithm: CEAlg}
	eng := trajectoryEngine(t, n, 2, EngineConfig{WarmCache: true, ShareWavefronts: share})
	results := make([]*Result, K)
	if !share {
		for i := range results {
			results[i] = trajectoryQuery(t, eng, q)
		}
		return results
	}
	gate := leadGate(eng)
	errs := make([]error, K)
	var wg sync.WaitGroup
	for i := range K {
		ctx := context.Background()
		if i == 0 {
			ctx = gate
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = eng.Clone().SkylineContext(ctx, q)
		}()
		if i == 0 {
			gate.wait(t)
		}
	}
	waitForWaiting(t, eng, K-1)
	close(gate.release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if ws := eng.WavefrontStats(); ws.Leads != 1 || ws.Shares != K-1 {
		t.Fatalf("leads=%d shares=%d, want 1/%d", ws.Leads, ws.Shares, K-1)
	}
	return results
}
