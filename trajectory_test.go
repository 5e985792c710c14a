package roadskyline

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"
)

// The trajectory workload is fully determined by (scale, seed, disk
// latency), so its work counters repeat bit for bit: TestTrajectory holds
// every cell's counters to BENCH_7.json with zero tolerance. The response
// times (pages x trajectoryDiskLatency plus CPU) are recorded for the
// reader but not compared; timing is benchmark/'s job.
const (
	trajectoryFile        = "BENCH_7.json"
	trajectorySeed        = 2007
	trajectoryScale       = 0.25
	trajectoryDiskLatency = 2 * time.Millisecond
	trajectorySets        = 4 // query sets per (alg, |Q|) cell
	trajectoryHotQueries  = 48
	trajectoryHotSets     = 8
	trajectoryCacheSize   = 256
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

// trajectoryConfig is the workload's configuration as BENCH_7.json
// records it; two documents are comparable only if it is equal.
type trajectoryConfig struct {
	Kind          string  `json:"kind"` // always "trajectory"
	Network       string  `json:"network"`
	Nodes         int     `json:"nodes"`
	Edges         int     `json:"edges"`
	Scale         float64 `json:"scale"`
	Seed          int64   `json:"seed"`
	DiskLatencyMs float64 `json:"disk_latency_ms"`
}

// trajectoryDoc is the document committed as BENCH_7.json.
type trajectoryDoc struct {
	trajectoryConfig
	Entries []trajectoryCell `json:"entries"`
}

// trajectoryCell is one workload cell: the summed counters and response
// times of its queries.
type trajectoryCell struct {
	Name          string  `json:"name"`
	Alg           string  `json:"alg"`
	NumPoints     int     `json:"num_points"`
	Queries       int     `json:"queries"`
	NodesExpanded int     `json:"nodes_expanded"`
	NetworkPages  int64   `json:"network_pages"`
	Candidates    int     `json:"candidates"`
	SkylinePoints int     `json:"skyline_points"`
	ResponseMs    float64 `json:"response_ms"`
	InitialMs     float64 `json:"initial_ms"`
	// DistCacheHitRate is the cross-query cache hit rate (only the
	// distcache cell exercises the cache).
	DistCacheHitRate float64 `json:"distcache_hit_rate"`
}

func (c *trajectoryCell) add(res *Result) {
	c.NodesExpanded += res.Stats.NodesExpanded
	c.NetworkPages += res.Stats.NetworkPages
	c.Candidates += res.Stats.Candidates
	c.SkylinePoints += len(res.Points)
	c.ResponseMs += float64(res.Stats.Total) / float64(time.Millisecond)
	c.InitialMs += float64(res.Stats.Initial) / float64(time.Millisecond)
}

// exact is c without its response times: the part compared exactly.
func (c trajectoryCell) exact() trajectoryCell {
	c.ResponseMs, c.InitialMs = 0, 0
	return c
}

// TestTrajectory runs BENCH_7.json's workload and requires the committed
// document back exactly: the config, the set of cells, and each cell's
// nodes expanded, network pages, candidates, skyline size and distance-
// cache hit rate, in both directions — a counter that falls fails as
// surely as one that grows. A change that means to alter the work
// regenerates the file with -update and says so.
func TestTrajectory(t *testing.T) {
	fresh := runTrajectory(t)
	if *updateGolden {
		data, err := json.MarshalIndent(fresh, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(trajectoryFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(trajectoryFile)
	if err != nil {
		t.Fatal(err)
	}
	var base trajectoryDoc
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("%s: %v", trajectoryFile, err)
	}
	if base.trajectoryConfig != fresh.trajectoryConfig {
		t.Fatalf("config %+v, %s has %+v", fresh.trajectoryConfig, trajectoryFile, base.trajectoryConfig)
	}
	got := make(map[string]trajectoryCell, len(fresh.Entries))
	for _, c := range fresh.Entries {
		got[c.Name] = c
	}
	for _, want := range base.Entries {
		t.Run(want.Name, func(t *testing.T) {
			c, ok := got[want.Name]
			if !ok {
				t.Fatalf("cell missing from the run")
			}
			delete(got, want.Name)
			if c.exact() != want.exact() {
				t.Errorf("work changed:\n got  %+v\n want %+v", c.exact(), want.exact())
			}
		})
	}
	for name := range got {
		t.Errorf("%s: cell not in %s", name, trajectoryFile)
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

// runTrajectory answers the workload's 15 cells and returns the document.
func runTrajectory(t *testing.T) *trajectoryDoc {
	t.Helper()
	spec := trajectorySpec(CA, trajectoryScale)
	n, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	doc := &trajectoryDoc{trajectoryConfig: trajectoryConfig{
		Kind: "trajectory", Network: spec.Name, Nodes: spec.Nodes, Edges: spec.Edges,
		Scale: trajectoryScale, Seed: trajectorySeed,
		DiskLatencyMs: float64(trajectoryDiskLatency) / float64(time.Millisecond),
	}}
	objs := n.GenerateObjects(0.5, 0, trajectorySeed)
	eng, err := NewEngine(n, objs, EngineConfig{DiskLatency: trajectoryDiskLatency})
	if err != nil {
		t.Fatal(err)
	}

	// Every algorithm at |Q| in {2, 4, 8}, cold cache.
	algs := []Algorithm{CEAlg, EDCAlg, LBCAlg}
	for _, alg := range algs {
		for _, nq := range []int{2, 4, 8} {
			c := trajectoryCell{Name: fmt.Sprintf("%s/q%d", alg, nq), Alg: alg.String(), NumPoints: nq, Queries: trajectorySets}
			for set := 0; set < trajectorySets; set++ {
				c.add(trajectoryQuery(t, eng, Query{
					Points: n.GenerateQueryPoints(nq, 0.1, trajectorySeed+int64(set)), Algorithm: alg,
				}))
			}
			doc.Entries = append(doc.Entries, c)
		}
	}

	// A few hot point sets asked repeatedly on a warm engine with the
	// distance cache on, rotating the algorithms.
	hotEng, err := NewEngine(n, objs, EngineConfig{
		WarmCache:   true,
		DiskLatency: trajectoryDiskLatency,
		DistCache:   DistCacheConfig{Entries: trajectoryCacheSize},
	})
	if err != nil {
		t.Fatal(err)
	}
	hot := make([][]Location, trajectoryHotSets)
	for i := range hot {
		hot[i] = n.GenerateQueryPoints(4, 0.1, trajectorySeed+int64(i))
	}
	c := trajectoryCell{Name: "distcache/hot", Alg: "mixed", NumPoints: 4, Queries: trajectoryHotQueries}
	for i := 0; i < trajectoryHotQueries; i++ {
		c.add(trajectoryQuery(t, hotEng, Query{Points: hot[i%trajectoryHotSets], Algorithm: algs[i%len(algs)]}))
	}
	c.DistCacheHitRate = hotEng.DistCacheStats().HitRate()
	doc.Entries = append(doc.Entries, c)

	doc.Entries = append(doc.Entries, wavefrontCells(t, n)...)

	// NA at trajectoryLargeScale: CE stresses the Dijkstra wavefronts,
	// LBC the chained A* sessions.
	large, err := Generate(trajectorySpec(NA, trajectoryLargeScale))
	if err != nil {
		t.Fatal(err)
	}
	largeEng, err := NewEngine(large, large.GenerateObjects(0.5, 0, trajectorySeed), EngineConfig{DiskLatency: trajectoryDiskLatency})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{CEAlg, LBCAlg} {
		c := trajectoryCell{Name: fmt.Sprintf("NA%.0f/%s/q4", 100*trajectoryLargeScale, alg), Alg: alg.String(), NumPoints: 4, Queries: trajectoryLargeSets}
		for set := 0; set < trajectoryLargeSets; set++ {
			c.add(trajectoryQuery(t, largeEng, Query{
				Points: large.GenerateQueryPoints(4, 0.1, trajectorySeed+int64(set)), Algorithm: alg,
			}))
		}
		doc.Entries = append(doc.Entries, c)
	}

	doc.Entries = append(doc.Entries, fullScaleMmapCell(t))
	return doc
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
func fullScaleMmapCell(t *testing.T) trajectoryCell {
	t.Helper()
	n, err := Generate(trajectorySpec(NA, 1))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	built, err := NewEngine(n, n.GenerateObjects(0.5, 0, trajectorySeed), EngineConfig{DiskDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	eng, err := OpenEngine(dir, EngineConfig{Backend: BackendMmap, DiskLatency: trajectoryDiskLatency})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	c := trajectoryCell{Name: "NAfull/mmap/LBC/q4", Alg: "LBC", NumPoints: 4, Queries: trajectoryFullSets}
	for set := 0; set < trajectoryFullSets; set++ {
		c.add(trajectoryQuery(t, eng, Query{
			Points: n.GenerateQueryPoints(4, 0.1, trajectorySeed+int64(set)), Algorithm: LBCAlg,
		}))
	}
	return c
}

// wavefrontCells runs the same single-point CE query (attributes on, so
// the wavefront covers a real slice of the network) trajectoryWavefrontDupes
// times: serially without sharing for the off cell, then concurrently with
// sharing and the leader held at its gate until every other copy has
// subscribed, so the on cell is one leader expansion plus K-1 resumed
// subscribers.
func wavefrontCells(t *testing.T, n *Network) []trajectoryCell {
	t.Helper()
	const K = trajectoryWavefrontDupes
	pts := n.GenerateQueryPoints(1, 0.1, trajectorySeed)
	objs := n.GenerateObjects(0.5, 2, trajectorySeed)
	q := Query{Points: pts, UseAttrs: true, Algorithm: CEAlg}
	newEng := func(share bool) *Engine {
		eng, err := NewEngine(n, objs, EngineConfig{
			WarmCache: true, DiskLatency: trajectoryDiskLatency, ShareWavefronts: share,
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}

	off := trajectoryCell{Name: "wavefront/off", Alg: "CE", NumPoints: 1, Queries: K}
	offEng := newEng(false)
	for i := 0; i < K; i++ {
		off.add(trajectoryQuery(t, offEng, q))
	}

	on := trajectoryCell{Name: "wavefront/on", Alg: "CE", NumPoints: 1, Queries: K}
	onEng := newEng(true)
	gate := leadGate(onEng)
	results := make([]*Result, K)
	errs := make([]error, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		ctx := context.Background()
		if i == 0 {
			ctx = gate
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = onEng.Clone().SkylineContext(ctx, q)
		}()
		if i == 0 {
			gate.wait(t)
		}
	}
	waitForWaiting(t, onEng, K-1)
	close(gate.release)
	wg.Wait()
	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("wavefront/on query %d: %v", i, errs[i])
		}
		on.add(results[i])
	}
	if ws := onEng.WavefrontStats(); ws.Leads != 1 || ws.Shares != K-1 {
		t.Fatalf("wavefront/on: leads=%d shares=%d, want 1/%d", ws.Leads, ws.Shares, K-1)
	}
	return []trajectoryCell{off, on}
}
