// Command skylinebench regenerates the paper's evaluation figures
// (Section 6) at full paper scale, printing one table per figure in the
// same layout as the published plots.
//
// Usage:
//
//	skylinebench                  # everything (takes a while at scale 1)
//	skylinebench -fig 4a          # just Figure 4(a)
//	skylinebench -fig 5 -trials 3 # Figures 5(a)-(c) with 3 query sets
//	skylinebench -scale 0.2       # all figures on 20%-size networks
//	skylinebench -fig ablations   # the design-choice ablations
//	skylinebench -parallel 8      # pool throughput: serial vs 8 workers
//	skylinebench -singleflight 8  # wavefront sharing ablation: off vs on under duplicate load
//	skylinebench -backends        # storage tiers: in-memory vs file vs mmap on identical work
//	skylinebench -trajectory -json BENCH_7.json       # record the regression baseline
//	skylinebench -compare BENCH_7.json                # gate: fail on regression vs baseline
//	skylinebench -trajectory -cpuprofile cpu.pprof    # profile any mode (-memprofile for allocations)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"roadskyline"
	"roadskyline/internal/experiments"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "figure to run: 4a 4b 4c 5 6q 6w ablations all")
		scale   = flag.Float64("scale", 1.0, "network size scale (1 = paper scale)")
		trials  = flag.Int("trials", 10, "query sets averaged per setting (paper: 10)")
		seed    = flag.Int64("seed", 2007, "random seed")
		quickQ  = flag.Bool("quick", false, "use the reduced Quick configuration")
		csv     = flag.Bool("csv", false, "emit tables as CSV")
		par     = flag.Int("parallel", 0, "run the pool throughput benchmark with this many workers instead of figures")
		queries = flag.Int("queries", 96, "queries in the -parallel workload")
		lms     = flag.Int("landmarks", 0, "ALT landmark count per environment (0 = default, negative disables)")
		dcache  = flag.Int("distcache", 0, "run the distance-cache ablation with this many cache entries instead of figures")
		sflight = flag.Int("singleflight", 0, "run the wavefront single-flight ablation with this many pool workers instead of figures")
		backs   = flag.Bool("backends", false, "run the storage-backend comparison (mem vs file vs mmap) instead of figures")
		jsonOut = flag.String("json", "", "also write machine-readable results to this JSON file")
		traj    = flag.Bool("trajectory", false, "run the deterministic regression workload instead of figures (the BENCH_7.json trajectory)")
		compare = flag.String("compare", "", "trajectory baseline JSON to gate against: run the trajectory workload and exit non-zero on regression (implies -trajectory)")
		thresh  = flag.Float64("threshold", 0.10, "allowed relative growth in the trajectory's deterministic work counters before -compare fails")
		traceF  = flag.String("trace", "", "run one traced query per algorithm and write the slowest one's Chrome trace-event JSON (Perfetto-loadable) to this file instead of figures")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of whichever mode runs to this file (go tool pprof)")
		memProf = flag.String("memprofile", "", "write an allocation profile of whichever mode runs to this file on exit")
	)
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "skylinebench: %v\n", err)
		os.Exit(1)
	}
	defer stopProfiles()
	// exit is os.Exit for the paths below: deferred calls do not run on
	// os.Exit, and a failed run's profile is still worth having.
	exit := func(code int) {
		stopProfiles()
		os.Exit(code)
	}

	if *traceF != "" {
		if err := traceBench(*scale, *seed, *lms, *traceF); err != nil {
			fmt.Fprintf(os.Stderr, "skylinebench: trace: %v\n", err)
			exit(1)
		}
		return
	}

	if *traj || *compare != "" {
		// The trajectory pins its own scale so the committed baseline and
		// CI runs agree without coordinating flags; -scale still overrides.
		tscale := trajectoryScale
		if flagSet("scale") {
			tscale = *scale
		}
		if err := trajectoryMain(tscale, *seed, *lms, *jsonOut, *compare, *thresh); err != nil {
			fmt.Fprintf(os.Stderr, "skylinebench: trajectory: %v\n", err)
			exit(1)
		}
		return
	}

	if *par > 0 {
		if err := parallelBench(*scale, *par, *queries, *seed, *lms, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "skylinebench: parallel: %v\n", err)
			exit(1)
		}
		return
	}
	if *dcache > 0 {
		if err := distCacheBench(*scale, *dcache, *queries, *seed, *lms, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "skylinebench: distcache: %v\n", err)
			exit(1)
		}
		return
	}
	if *sflight > 0 {
		if err := singleFlightBench(*scale, *sflight, *queries, *seed, *lms, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "skylinebench: singleflight: %v\n", err)
			exit(1)
		}
		return
	}
	if *backs {
		if err := backendsBench(*scale, *queries, *seed, *lms, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "skylinebench: backends: %v\n", err)
			exit(1)
		}
		return
	}

	cfg := experiments.Default()
	if *quickQ {
		cfg = experiments.Quick()
	}
	cfg.Scale = *scale
	cfg.Trials = *trials
	cfg.Seed = *seed
	cfg.Landmarks = *lms
	if *quickQ && !flagSet("scale") {
		cfg.Scale = experiments.Quick().Scale
	}
	if *quickQ && !flagSet("trials") {
		cfg.Trials = experiments.Quick().Trials
	}
	lab := experiments.NewLab(cfg)

	fmt.Printf("reproducing ICDE'07 multi-source road-network skyline figures "+
		"(scale=%.2f, trials=%d, seed=%d)\n\n", cfg.Scale, cfg.Trials, cfg.Seed)

	start := time.Now()
	want := strings.ToLower(*fig)
	ran := false
	var collected []experiments.Table
	show := func(t experiments.Table) {
		collected = append(collected, t)
		if *csv {
			fmt.Printf("# %s — %s\n%s\n", t.Figure, t.Title, t.CSV())
			return
		}
		fmt.Println(t)
	}
	run1 := func(name string, f func() (experiments.Table, error)) {
		if want != "all" && want != name {
			return
		}
		ran = true
		tab, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "skylinebench: %s: %v\n", name, err)
			exit(1)
		}
		show(tab)
	}
	run3 := func(name string, f func() ([3]experiments.Table, error)) {
		if want != "all" && want != name {
			return
		}
		ran = true
		tabs, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "skylinebench: %s: %v\n", name, err)
			exit(1)
		}
		for _, t := range tabs {
			show(t)
		}
	}

	run1("4a", lab.Fig4a)
	run1("4b", lab.Fig4b)
	run1("4c", lab.Fig4c)
	run3("5", lab.Fig5)
	run3("6q", lab.Fig6Q)
	run3("6w", lab.Fig6W)
	if want == "all" || want == "ablations" {
		ran = true
		for _, f := range []func() (experiments.Table, error){
			lab.AblationPLB, lab.AblationAStar, lab.AblationLandmarks, lab.AblationClustering, lab.AblationBuffer,
		} {
			tab, err := f()
			if err != nil {
				fmt.Fprintf(os.Stderr, "skylinebench: ablation: %v\n", err)
				exit(1)
			}
			show(tab)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "skylinebench: unknown figure %q (want 4a 4b 4c 5 6q 6w ablations all)\n", *fig)
		exit(2)
	}
	elapsed := time.Since(start)
	fmt.Printf("done in %v\n", elapsed.Round(time.Millisecond))
	if *jsonOut != "" {
		out := benchJSON{
			Figure: want, Scale: cfg.Scale, Trials: cfg.Trials, Seed: cfg.Seed,
			Quick: *quickQ, ElapsedSeconds: elapsed.Seconds(), Tables: collected,
		}
		if err := writeJSON(*jsonOut, out); err != nil {
			fmt.Fprintf(os.Stderr, "skylinebench: %v\n", err)
			exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
}

// benchJSON is the machine-readable result document behind -json: the run
// configuration plus every table produced, in the order printed.
type benchJSON struct {
	Figure         string              `json:"figure"`
	Scale          float64             `json:"scale"`
	Trials         int                 `json:"trials"`
	Seed           int64               `json:"seed"`
	Quick          bool                `json:"quick"`
	ElapsedSeconds float64             `json:"elapsed_seconds"`
	Tables         []experiments.Table `json:"tables"`
}

// parallelJSON is -json's document for the -parallel throughput bench.
type parallelJSON struct {
	Network         string  `json:"network"`
	Nodes           int     `json:"nodes"`
	Edges           int     `json:"edges"`
	Queries         int     `json:"queries"`
	Workers         int     `json:"workers"`
	SerialSeconds   float64 `json:"serial_seconds"`
	ParallelSeconds float64 `json:"parallel_seconds"`
	SerialQPS       float64 `json:"serial_qps"`
	ParallelQPS     float64 `json:"parallel_qps"`
	Speedup         float64 `json:"speedup"`
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parallelBench measures concurrent query throughput: the same mixed
// CE/EDC/LBC workload answered serially on one engine and then through a
// Pool of `workers` clones, reporting wall time, queries/s and speedup.
func parallelBench(scale float64, workers, queries int, seed int64, landmarks int, jsonOut string) error {
	if queries < 1 {
		return fmt.Errorf("-queries must be at least 1 (got %d)", queries)
	}
	spec := scaleSpec(roadskyline.CA, scale, seed)
	fmt.Printf("pool throughput on %s (%d nodes, %d edges), %d queries, %d workers\n",
		spec.Name, spec.Nodes, spec.Edges, queries, workers)
	n, err := roadskyline.Generate(spec)
	if err != nil {
		return err
	}
	eng, err := roadskyline.NewEngine(n, n.GenerateObjects(0.5, 0, seed), roadskyline.EngineConfig{
		Landmarks:   landmarks,
		NoLandmarks: landmarks < 0,
	})
	if err != nil {
		return err
	}
	algs := []roadskyline.Algorithm{roadskyline.CEAlg, roadskyline.EDCAlg, roadskyline.LBCAlg}
	work := make([]roadskyline.Query, queries)
	for i := range work {
		work[i] = roadskyline.Query{
			Points:    n.GenerateQueryPoints(4, 0.1, seed+int64(i)),
			Algorithm: algs[i%len(algs)],
		}
	}

	serialStart := time.Now()
	for i, q := range work {
		if _, err := eng.Skyline(q); err != nil {
			return fmt.Errorf("serial query %d: %w", i, err)
		}
	}
	serial := time.Since(serialStart)

	pool, err := roadskyline.NewPool(eng, roadskyline.PoolConfig{Workers: workers})
	if err != nil {
		return err
	}
	defer pool.Close()
	poolStart := time.Now()
	_, errs := pool.SkylineBatch(context.Background(), work)
	parallel := time.Since(poolStart)
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("pooled query %d: %w", i, err)
		}
	}

	qps := func(d time.Duration) float64 { return float64(queries) / d.Seconds() }
	fmt.Printf("%-20s%14s%14s\n", "", "wall", "queries/s")
	fmt.Printf("%-20s%14v%14.1f\n", "serial (1 engine)", serial.Round(time.Millisecond), qps(serial))
	fmt.Printf("%-20s%14v%14.1f\n", fmt.Sprintf("pool (%d workers)", workers),
		parallel.Round(time.Millisecond), qps(parallel))
	fmt.Printf("speedup: %.2fx\n", serial.Seconds()/parallel.Seconds())
	if jsonOut != "" {
		out := parallelJSON{
			Network: spec.Name, Nodes: spec.Nodes, Edges: spec.Edges,
			Queries: queries, Workers: workers,
			SerialSeconds: serial.Seconds(), ParallelSeconds: parallel.Seconds(),
			SerialQPS: qps(serial), ParallelQPS: qps(parallel),
			Speedup: serial.Seconds() / parallel.Seconds(),
		}
		if err := writeJSON(jsonOut, out); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonOut)
	}
	return nil
}

// traceBench runs one traced query per algorithm on a warm engine and
// writes the slowest one's causal trace as Chrome trace-event JSON — a
// one-command way to get a Perfetto-loadable trace out of the benchmark
// environment (see docs/OBSERVABILITY.md).
func traceBench(scale float64, seed int64, landmarks int, out string) error {
	spec := scaleSpec(roadskyline.CA, scale, seed)
	n, err := roadskyline.Generate(spec)
	if err != nil {
		return err
	}
	eng, err := roadskyline.NewEngine(n, n.GenerateObjects(0.5, 0, seed), roadskyline.EngineConfig{
		Landmarks:      landmarks,
		NoLandmarks:    landmarks < 0,
		WarmCache:      true,
		FlightRecorder: roadskyline.FlightRecorderConfig{Size: 16},
	})
	if err != nil {
		return err
	}
	points := n.GenerateQueryPoints(4, 0.1, seed)
	var slowest roadskyline.FlightRecord
	for _, alg := range []roadskyline.Algorithm{roadskyline.CEAlg, roadskyline.EDCAlg, roadskyline.LBCAlg} {
		res, err := eng.Skyline(roadskyline.Query{Points: points, Algorithm: alg, Trace: true})
		if err != nil {
			return fmt.Errorf("%v query: %w", alg, err)
		}
		rec, ok := eng.TraceRecord(res.TraceID)
		if !ok {
			return fmt.Errorf("%v query: trace %s not retained", alg, res.TraceID)
		}
		fmt.Printf("%-4v trace %s: %d spans, %d skyline points, total %v\n",
			alg, rec.TraceID, len(rec.Spans), len(res.Points), rec.Total.Round(time.Microsecond))
		if rec.Total > slowest.Total {
			slowest = rec
		}
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := roadskyline.WriteTraceEvents(f, slowest); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (trace %s, load it at https://ui.perfetto.dev)\n", out, slowest.TraceID)
	return nil
}

// distCacheJSON is -json's document for the -distcache ablation bench.
type distCacheJSON struct {
	Network          string  `json:"network"`
	Nodes            int     `json:"nodes"`
	Edges            int     `json:"edges"`
	Queries          int     `json:"queries"`
	HotPointSets     int     `json:"hot_point_sets"`
	CacheEntries     int     `json:"cache_entries"`
	OffSeconds       float64 `json:"off_seconds"`
	OnSeconds        float64 `json:"on_seconds"`
	OffNodesExpanded int     `json:"off_nodes_expanded"`
	OnNodesExpanded  int     `json:"on_nodes_expanded"`
	ExpansionRatio   float64 `json:"expansion_ratio"`
	HitRate          float64 `json:"hit_rate"`
	Speedup          float64 `json:"speedup"`
}

// distCacheBench measures the cross-query distance cache on the workload it
// targets: a small set of hot query-point sets asked over and over (the
// repeated-location pattern of a live service), rotating CE, EDC and LBC.
// The same workload runs on two warm-cache engines — without and with the
// cache — and the report compares node expansions, wall time and hit rate.
// Both engines run warm (WarmCache: true): the cache is bypassed in
// cold-cache paper mode, so the published figures are unaffected either way.
func distCacheBench(scale float64, entries, queries int, seed int64, landmarks int, jsonOut string) error {
	if queries < 1 {
		return fmt.Errorf("-queries must be at least 1 (got %d)", queries)
	}
	spec := scaleSpec(roadskyline.CA, scale, seed)
	n, err := roadskyline.Generate(spec)
	if err != nil {
		return err
	}
	objs := n.GenerateObjects(0.5, 0, seed)

	// A handful of hot point sets cycled across the whole workload: every
	// set repeats queries/hotSets times, so the cache — keyed by quantized
	// query-point location — can serve all but the first round.
	const hotSets = 8
	hot := make([][]roadskyline.Location, hotSets)
	for i := range hot {
		hot[i] = n.GenerateQueryPoints(4, 0.1, seed+int64(i))
	}
	algs := []roadskyline.Algorithm{roadskyline.CEAlg, roadskyline.EDCAlg, roadskyline.LBCAlg}
	work := make([]roadskyline.Query, queries)
	for i := range work {
		work[i] = roadskyline.Query{Points: hot[i%hotSets], Algorithm: algs[i%len(algs)]}
	}

	run := func(cacheEntries int) (time.Duration, int, *roadskyline.Engine, error) {
		eng, err := roadskyline.NewEngine(n, objs, roadskyline.EngineConfig{
			WarmCache:   true,
			Landmarks:   landmarks,
			NoLandmarks: landmarks < 0,
			DistCache:   roadskyline.DistCacheConfig{Entries: cacheEntries},
		})
		if err != nil {
			return 0, 0, nil, err
		}
		nodes := 0
		start := time.Now()
		for i, q := range work {
			res, err := eng.Skyline(q)
			if err != nil {
				return 0, 0, nil, fmt.Errorf("query %d: %w", i, err)
			}
			nodes += res.Stats.NodesExpanded
		}
		return time.Since(start), nodes, eng, nil
	}

	fmt.Printf("distance-cache ablation on %s (%d nodes, %d edges), %d queries over %d hot point sets\n",
		spec.Name, spec.Nodes, spec.Edges, queries, hotSets)
	offWall, offNodes, _, err := run(0)
	if err != nil {
		return err
	}
	onWall, onNodes, onEng, err := run(entries)
	if err != nil {
		return err
	}
	cs := onEng.DistCacheStats()

	ratio := 0.0
	if onNodes > 0 {
		ratio = float64(offNodes) / float64(onNodes)
	}
	fmt.Printf("%-24s%14s%16s\n", "", "wall", "nodes expanded")
	fmt.Printf("%-24s%14v%16d\n", "cache off", offWall.Round(time.Millisecond), offNodes)
	fmt.Printf("%-24s%14v%16d\n", fmt.Sprintf("cache on (%d entries)", entries),
		onWall.Round(time.Millisecond), onNodes)
	fmt.Printf("expansion ratio: %.2fx fewer, hit rate %.0f%% (%d hits / %d lookups), speedup %.2fx\n",
		ratio, 100*cs.HitRate(), cs.Hits, cs.Hits+cs.Misses, offWall.Seconds()/onWall.Seconds())
	if jsonOut != "" {
		out := distCacheJSON{
			Network: spec.Name, Nodes: spec.Nodes, Edges: spec.Edges,
			Queries: queries, HotPointSets: hotSets, CacheEntries: entries,
			OffSeconds: offWall.Seconds(), OnSeconds: onWall.Seconds(),
			OffNodesExpanded: offNodes, OnNodesExpanded: onNodes,
			ExpansionRatio: ratio, HitRate: cs.HitRate(),
			Speedup: offWall.Seconds() / onWall.Seconds(),
		}
		if err := writeJSON(jsonOut, out); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonOut)
	}
	return nil
}

// singleFlightJSON is -json's document for the -singleflight ablation.
type singleFlightJSON struct {
	Network          string  `json:"network"`
	Nodes            int     `json:"nodes"`
	Edges            int     `json:"edges"`
	Queries          int     `json:"queries"`
	HotPointSets     int     `json:"hot_point_sets"`
	Workers          int     `json:"workers"`
	OffSeconds       float64 `json:"off_seconds"`
	OnSeconds        float64 `json:"on_seconds"`
	OffNodesExpanded int     `json:"off_nodes_expanded"`
	OnNodesExpanded  int     `json:"on_nodes_expanded"`
	ExpansionRatio   float64 `json:"expansion_ratio"`
	ShareRate        float64 `json:"share_rate"`
	Leads            int64   `json:"leads"`
	Shares           int64   `json:"shares"`
	Bypasses         int64   `json:"bypasses"`
	Speedup          float64 `json:"speedup"`
}

// singleFlightBench measures in-flight wavefront sharing on the workload it
// targets: a duplicate-heavy burst pattern where every round submits
// `workers` identical queries at once (the thundering-herd shape of a live
// service behind a load balancer), cycling a few hot point sets and
// rotating CE, EDC and LBC between rounds. The same batch runs through two
// pools — sharing off and sharing on — and the report compares node
// expansions, wall time and the broker's share rate. Coalescing here is
// opportunistic (duplicates must overlap in flight), so the share rate is
// below 100% but the expansion ratio still shows the herd collapsing;
// the deterministic leader/subscriber accounting is pinned by the gated
// wavefront trajectory cells instead.
func singleFlightBench(scale float64, workers, queries int, seed int64, landmarks int, jsonOut string) error {
	if queries < 1 {
		return fmt.Errorf("-queries must be at least 1 (got %d)", queries)
	}
	if workers < 2 {
		return fmt.Errorf("-singleflight needs at least 2 workers to overlap duplicates (got %d)", workers)
	}
	spec := scaleSpec(roadskyline.CA, scale, seed)
	n, err := roadskyline.Generate(spec)
	if err != nil {
		return err
	}
	objs := n.GenerateObjects(0.5, 0, seed)

	// Each round is `workers` copies of one (point set, algorithm) query:
	// SkylineBatch keeps identical queries adjacent, so a whole round is in
	// flight together and all but one copy can subscribe to the leader.
	const hotSets = 8
	hot := make([][]roadskyline.Location, hotSets)
	for i := range hot {
		hot[i] = n.GenerateQueryPoints(4, 0.1, seed+int64(i))
	}
	algs := []roadskyline.Algorithm{roadskyline.CEAlg, roadskyline.EDCAlg, roadskyline.LBCAlg}
	work := make([]roadskyline.Query, queries)
	for i := range work {
		round := i / workers
		work[i] = roadskyline.Query{Points: hot[round%hotSets], Algorithm: algs[round%len(algs)]}
	}

	run := func(share bool) (time.Duration, int, *roadskyline.Engine, error) {
		eng, err := roadskyline.NewEngine(n, objs, roadskyline.EngineConfig{
			WarmCache:       true,
			Landmarks:       landmarks,
			NoLandmarks:     landmarks < 0,
			ShareWavefronts: share,
		})
		if err != nil {
			return 0, 0, nil, err
		}
		pool, err := roadskyline.NewPool(eng, roadskyline.PoolConfig{Workers: workers})
		if err != nil {
			return 0, 0, nil, err
		}
		defer pool.Close()
		start := time.Now()
		results, errs := pool.SkylineBatch(context.Background(), work)
		wall := time.Since(start)
		nodes := 0
		for i, err := range errs {
			if err != nil {
				return 0, 0, nil, fmt.Errorf("query %d: %w", i, err)
			}
			nodes += results[i].Stats.NodesExpanded
		}
		return wall, nodes, eng, nil
	}

	fmt.Printf("wavefront single-flight ablation on %s (%d nodes, %d edges), %d queries in rounds of %d duplicates over %d hot point sets\n",
		spec.Name, spec.Nodes, spec.Edges, queries, workers, hotSets)
	offWall, offNodes, _, err := run(false)
	if err != nil {
		return err
	}
	onWall, onNodes, onEng, err := run(true)
	if err != nil {
		return err
	}
	ws := onEng.WavefrontStats()

	ratio := 0.0
	if onNodes > 0 {
		ratio = float64(offNodes) / float64(onNodes)
	}
	fmt.Printf("%-24s%14s%16s\n", "", "wall", "nodes expanded")
	fmt.Printf("%-24s%14v%16d\n", "sharing off", offWall.Round(time.Millisecond), offNodes)
	fmt.Printf("%-24s%14v%16d\n", fmt.Sprintf("sharing on (%d workers)", workers),
		onWall.Round(time.Millisecond), onNodes)
	fmt.Printf("expansion ratio: %.2fx fewer, share rate %.0f%% (%d shares / %d leads / %d bypasses), speedup %.2fx\n",
		ratio, 100*ws.ShareRate(), ws.Shares, ws.Leads, ws.Bypasses, offWall.Seconds()/onWall.Seconds())
	if jsonOut != "" {
		out := singleFlightJSON{
			Network: spec.Name, Nodes: spec.Nodes, Edges: spec.Edges,
			Queries: queries, HotPointSets: hotSets, Workers: workers,
			OffSeconds: offWall.Seconds(), OnSeconds: onWall.Seconds(),
			OffNodesExpanded: offNodes, OnNodesExpanded: onNodes,
			ExpansionRatio: ratio, ShareRate: ws.ShareRate(),
			Leads: ws.Leads, Shares: ws.Shares, Bypasses: ws.Bypasses,
			Speedup: offWall.Seconds() / onWall.Seconds(),
		}
		if err := writeJSON(jsonOut, out); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonOut)
	}
	return nil
}

// startProfiles starts the CPU profile and arranges the allocation profile
// behind -cpuprofile/-memprofile; either path may be empty. The returned
// stop function finishes both; it runs once, deferred on return or from
// exit.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "skylinebench: cpuprofile: %v\n", err)
			}
		}
		if memPath != "" {
			if err := writeAllocProfile(memPath); err != nil {
				fmt.Fprintf(os.Stderr, "skylinebench: memprofile: %v\n", err)
			}
		}
	}, nil
}

// writeAllocProfile writes the allocs profile (every allocation since the
// start, which is what per-query allocation hunting needs) after a GC so
// the in-use figures are current too.
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}
