package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"roadskyline"
	"roadskyline/internal/core"
	"roadskyline/internal/distcache"
	"roadskyline/internal/graph"
	"roadskyline/internal/storage"
)

// The traced pass takes the per-layer ledger from outside the program: it
// times calls into each layer's exported functions, reads the counters the
// public API already returns, and records a span around every call it
// makes. It has three parts:
//
//  1. the stack: the workload's own driver, once untraced and once with
//     span recording, whose difference is the harness's tracing overhead;
//  2. the levels: the same queries through Pool.Skyline, Engine.Skyline and
//     core.Run on three separately built systems (so no cache warmed by one
//     level serves the next), one caller; a level's overhead is the median
//     difference to the level below;
//  3. the kernels: each inner layer called directly on the workload's own
//     network, objects and query points.
//
// Parts 2 and 3 use a fixed subset of the catalog (levelQueries), so their
// counters repeat exactly from run to run.

// levelQueries picks the catalog entries the levels and kernels run: every
// step-th query set, all algorithms of a set together, sized so that the
// traced pass stays under half a minute. warmQueries are the entries one
// set further on: the levels' untimed round sends those, so that caches
// and buffer pools are warm but no timed query has been asked before
// (pool_hot's fresh points must still miss).
func levelQueries(w *workload, cat []query, quick bool) (sub, warm []int) {
	group, maxSets := 1, len(cat)
	switch w.name {
	case "paper_cold":
		group, maxSets = 3, 32
	case "serve_open":
		group, maxSets = 3, 25
	case "pool_hot":
		maxSets = 96 // a stride of 4, so the one-in-three CE pattern is sampled evenly
	case "na_mmap_lbc":
		maxSets = 20
	}
	if quick {
		maxSets = max(4, maxSets/8)
	}
	sets := len(cat) / group
	step := (sets + maxSets - 1) / maxSets
	for i := range cat {
		if (i/group)%step == 0 {
			sub = append(sub, i)
			warm = append(warm, (i+group)%len(cat))
		}
	}
	return sub, warm
}

type layerPass struct {
	b   *bench
	w   *workload
	ds  *dataset
	cat []query
	sub []int // levelQueries
	wrm []int // warmQueries
	rec *recorder
	m   map[string]float64

	like    bool // queries carry skylineserve's default tracing
	engCfg  roadskyline.EngineConfig
	poolCfg roadskyline.PoolConfig
	now     time.Duration // calibrated cost of one time.Now
}

func (b *bench) tracedPass(w *workload, ds *dataset, cat []query, seconds float64, quick bool, res *result) error {
	lp := &layerPass{b: b, w: w, ds: ds, cat: cat, rec: newRecorder(),
		m: map[string]float64{}, engCfg: w.engine, poolCfg: w.pool, now: calibrateNow()}
	lp.sub, lp.wrm = levelQueries(w, cat, quick)
	for _, s := range perLayer {
		lp.m[s.name] = 0 // a layer the workload bypasses reads 0
	}
	if w.serve {
		lp.like, lp.engCfg, lp.poolCfg = true, serveEngine, servePool
	}
	sys, err := lp.stack(seconds, res)
	if err != nil {
		return err
	}
	defer b.closeSystem(sys)
	if err := lp.levelsAndKernels(sys); err != nil {
		return err
	}
	pid := os.Getpid()
	if w.serve {
		pid = sys.pid
	}
	lp.m["process.peak_rss_mb"] = peakRSSMB(pid)
	lp.m["process.gc_cpu_pct"] = gcCPUPercent()
	res.Metrics = lp.m
	res.TraceFile = filepath.Join(b.root, ".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", w.name, w.seed))
	for name, self := range lp.rec.selfTimes() {
		res.notes = append(res.notes, fmt.Sprintf("self time %-24s %10.3f ms", name, ms(self)))
	}
	sort.Strings(res.notes)
	res.notes = append(res.notes, "spans written to "+res.TraceFile)
	return lp.rec.write(res.TraceFile)
}

// stack runs the workload's own driver for a quarter of the run untraced
// and a quarter traced, and reads every counter the answers and the public
// API carry. It returns the system, still up, for the HTTP level.
func (lp *layerPass) stack(seconds float64, res *result) (*system, error) {
	w := lp.w
	sys, _, err := lp.b.setupMedian(w, lp.ds, 1)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*system, error) {
		lp.b.closeSystem(sys)
		return nil, err
	}
	if err := warmUp(w, sys, lp.cat); err != nil {
		return fail(err)
	}
	var dc0 roadskyline.DistCacheStats
	var wf0 roadskyline.WavefrontStats
	if sys.eng != nil {
		dc0, wf0 = sys.eng.DistCacheStats(), sys.eng.WavefrontStats()
	}
	plain, err := measure(w, sys, lp.cat, seconds/4, nil)
	if err != nil {
		return fail(err)
	}
	traced, err := measure(w, sys, lp.cat, seconds/4, lp.rec)
	if err != nil {
		return fail(err)
	}
	m := lp.m
	qps0, qps1 := endToEndMetrics(w, plain, 0)["throughput_qps"], endToEndMetrics(w, traced, 0)["throughput_qps"]
	m["harness.trace_overhead_pct"] = 100 * (qps0 - qps1) / qps0

	all := append(plain.samples, traced.samples...)
	reportFailures(lp.cat, all)
	res.Attempted, res.Failed = len(all), len(all)-countOK(all)
	var pages, gets, rnodes, lm, eu, rejected float64
	var kb, lag []float64
	for i := range all {
		s := &all[i]
		if s.err == errRejected {
			rejected++
		}
		if s.err != nil {
			continue
		}
		pages, gets, rnodes = pages+float64(s.pages), gets+float64(s.gets), rnodes+float64(s.rtree)
		lm, eu = lm+float64(s.lmWins), eu+float64(s.euWins)
		kb = append(kb, float64(s.bytes)/1000)
		lag = append(lag, ms(s.lag))
	}
	if n := float64(countOK(all)); n > 0 {
		m["storage.pages_per_query"] = pages / n
		m["storage.gets_per_query"] = gets / n
		m["rtree.nodes_per_query"] = rnodes / n
	}
	if gets > 0 {
		m["storage.hit_rate"] = 1 - pages/gets
	}
	if lm+eu > 0 {
		m["landmark.win_rate"] = lm / (lm + eu)
	}
	if w.openRate > 0 && len(lag) > 0 {
		m["loadgen.lag_ms_p95"] = percentile(sortedCopy(lag), 95)
	}
	switch {
	case w.serve:
		m["serve.response_kb_p50"] = percentile(sortedCopy(kb), 50)
		m["serve.rejected_share"] = rejected / float64(len(all))
		wait, saturated, err := scrapePool(sys.srv.base)
		if err != nil {
			return fail(err)
		}
		m["pool.queue_wait_ms_p95"], m["pool.saturated"] = wait, saturated
	case sys.pool != nil:
		pm := sys.pool.PoolMetrics()
		m["pool.queue_wait_ms_p95"] = ms(histogramQuantile(pm.QueueWait.Bounds, pm.QueueWait.Buckets, pm.QueueWait.Count, 0.95))
		m["pool.saturated"] = float64(pm.Saturated)
	}
	if sys.eng != nil {
		dc, wf := sys.eng.DistCacheStats(), sys.eng.WavefrontStats()
		if look := float64(dc.Hits - dc0.Hits + dc.Misses - dc0.Misses); look > 0 {
			m["distcache.hit_rate"] = float64(dc.Hits-dc0.Hits) / look
		}
		m["distcache.evictions"] = float64(dc.Evictions - dc0.Evictions)
		if joined := float64(wf.Leads - wf0.Leads + wf.Shares - wf0.Shares); joined > 0 {
			m["distcache.wavefront_share_rate"] = float64(wf.Shares-wf0.Shares) / joined
		}
	}
	return sys, nil
}

// histogramQuantile returns the upper bound of the first cumulative bucket
// holding the q-quantile (the last finite bound when it lies in +Inf).
func histogramQuantile(bounds []time.Duration, cumulative []uint64, count uint64, q float64) time.Duration {
	if count == 0 || len(bounds) == 0 {
		return 0
	}
	need := uint64(math.Ceil(q * float64(count)))
	for i, c := range cumulative {
		if c >= need && i < len(bounds) {
			return bounds[i]
		}
	}
	return bounds[len(bounds)-1]
}

// scrapePool reads the child's pool counters from /metrics: the p95 of the
// queue-wait histogram (ms) and the number of saturated rejections.
func scrapePool(base string) (waitP95ms, saturated float64, err error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var bounds []time.Duration
	var cum []uint64
	var count uint64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, `roadskyline_pool_queue_wait_seconds_bucket{le="`); ok {
			le, val, _ := strings.Cut(rest, `"} `)
			n, _ := strconv.ParseUint(val, 10, 64)
			if le == "+Inf" {
				count = n
				continue
			}
			secs, _ := strconv.ParseFloat(le, 64)
			bounds, cum = append(bounds, time.Duration(secs*float64(time.Second))), append(cum, n)
		}
		if rest, ok := strings.CutPrefix(line, `roadskyline_pool_queries_total{outcome="saturated"} `); ok {
			saturated, _ = strconv.ParseFloat(rest, 64)
		}
	}
	return ms(histogramQuantile(bounds, cum, count, 0.95)), saturated, sc.Err()
}

// calibrateNow measures what one time.Now costs here, so the timing
// decorators can take their own cost back out.
func calibrateNow() time.Duration {
	const n = 200000
	start := time.Now()
	var sink time.Time
	for i := 0; i < n; i++ {
		sink = time.Now()
	}
	_ = sink
	return time.Since(start) / n
}

func gcCPUPercent() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/user:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	gc, user := s[0].Value.Float64(), s[1].Value.Float64()
	if gc+user == 0 {
		return 0
	}
	return 100 * gc / (gc + user)
}

// coreEnv builds the core.Env the workload's engine would hold, and reports
// the storage layer's build figures on the way: every workload gets a
// network directory built and reopened through mmap for storage.build_ms,
// open_ms and dir_mb; only the mmap workload then queries that directory.
func (lp *layerPass) coreEnv() (*core.Env, string, error) {
	dir := filepath.Join(lp.b.tmp, "layers-netdir")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", err
	}
	cfg := core.EnvConfig{
		BufferBytes:     lp.engCfg.BufferBytes,
		DistCache:       distcache.Config{Entries: lp.engCfg.DistCache.Entries, Quantum: lp.engCfg.DistCache.Quantum},
		ShareWavefronts: lp.engCfg.ShareWavefronts,
	}
	disk := cfg
	disk.Dir, disk.Backend = dir, storage.BackendMmap
	t0 := time.Now()
	built, err := core.NewEnv(lp.ds.g, lp.ds.gobjs, disk)
	if err != nil {
		return nil, "", err
	}
	both := time.Since(t0)
	if err := built.Close(); err != nil {
		return nil, "", err
	}
	t0 = time.Now()
	env, err := core.OpenEnv(dir, disk)
	if err != nil {
		return nil, "", err
	}
	open := time.Since(t0)
	lp.m["storage.open_ms"], lp.m["storage.build_ms"] = ms(open), ms(both-open)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, "", err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			lp.m["storage.dir_mb"] += float64(info.Size()) / 1e6
		}
	}
	if lp.w.mmapDir {
		return env, dir, nil
	}
	if err := env.Close(); err != nil {
		return nil, "", err
	}
	env, err = core.NewEnv(lp.ds.g, lp.ds.gobjs, cfg)
	return env, dir, err
}

// levels sends each query of the subset through every target in turn from
// one caller — back to back, so that a slow spell of the machine hits all
// levels of a query alike and cancels in their differences — after an
// untimed round that leaves caches as a running system has them. The order
// of the targets rotates from query to query. It returns each target's
// samples, and the heap allocations per call into target allocOf.
func (lp *layerPass) levels(targets []target, allocOf int) ([][]sample, float64, float64, error) {
	out := make([][]sample, len(targets))
	for i := range out {
		out[i] = make([]sample, len(lp.sub))
	}
	var mallocs, bytes uint64
	var m0, m1 runtime.MemStats
	for round := 0; round < 2; round++ {
		rec, queries := lp.rec, lp.sub
		if round == 0 {
			if lp.w.warm == 0 {
				continue
			}
			rec, queries = nil, lp.wrm
		}
		for k, qi := range queries {
			for j := range targets {
				ti := (k + j) % len(targets)
				if round == 1 && ti == allocOf {
					runtime.ReadMemStats(&m0)
				}
				s := execute(targets[ti], lp.cat, qi, time.Now(), rec)
				if round == 1 && ti == allocOf {
					runtime.ReadMemStats(&m1)
					mallocs, bytes = mallocs+m1.Mallocs-m0.Mallocs, bytes+m1.TotalAlloc-m0.TotalAlloc
				}
				if s.err != nil {
					return nil, 0, 0, fmt.Errorf("%s of %s: %w", targets[ti].layer(), &lp.cat[qi], s.err)
				}
				out[ti][k] = s
			}
		}
	}
	n := float64(len(lp.sub))
	return out, float64(mallocs) / n, float64(bytes) / 1000 / n, nil
}

// overheadP50 is the median of a[i]-b[i]: what the upper level adds.
func overheadP50(a, b []sample) time.Duration {
	d := make([]float64, len(a))
	for i := range a {
		d[i] = float64(a[i].lat - b[i].lat)
	}
	return time.Duration(percentile(sortedCopy(d), 50))
}

// coreTarget calls core.Run on an Env directly: the level below Engine.
type coreTarget struct {
	env  *core.Env
	opts core.Options
}

func (coreTarget) layer() string { return "core.run" }

func (t *coreTarget) do(q *query) (*answer, error) {
	pts := make([]graph.Location, len(q.pts))
	for i, p := range q.pts {
		pts[i] = gloc(p)
	}
	alg := core.AlgLBC
	switch q.alg {
	case roadskyline.CEAlg:
		alg = core.AlgCE
	case roadskyline.EDCAlg:
		alg = core.AlgEDC
	}
	res, err := core.Run(context.Background(), t.env, core.Query{Points: pts, UseAttrs: q.attrs}, alg, t.opts)
	if err != nil {
		return nil, err
	}
	a := &answer{ids: make([]int32, len(res.Skyline)), dists: make([][]float64, len(res.Skyline))}
	for i, p := range res.Skyline {
		a.ids[i], a.dists[i] = int32(p.Object.ID), p.Dists
	}
	a.core = res.Metrics
	return a, nil
}

func (lp *layerPass) levelsAndKernels(stackSys *system) error {
	m, w := lp.m, lp.w
	env, dir, err := lp.coreEnv()
	if err != nil {
		return err
	}
	defer env.Close()

	// The levels, bottom up: core.Run on the Env, Engine.Skyline, then
	// Pool.Skyline where the workload has a pool and one HTTP connection to
	// the child the stack ran against where it has a server.
	engSys, err := lp.inProcess(dir, false)
	if err != nil {
		return err
	}
	defer lp.b.closeSystem(engSys)
	targets := []target{
		&coreTarget{env: env, opts: core.Options{ColdCache: !lp.engCfg.WarmCache, CollectPhases: lp.like}},
		engSys.target,
	}
	if lp.poolCfg.Workers > 0 {
		poolSys, err := lp.inProcess(dir, true)
		if err != nil {
			return err
		}
		defer lp.b.closeSystem(poolSys)
		targets = append(targets, poolSys.target)
	}
	if w.serve {
		targets = append(targets, newHTTPTarget(stackSys.srv.base, 1))
	}
	s, allocs, allocKB, err := lp.levels(targets, 1)
	if err != nil {
		return err
	}
	coreS := s[0]
	lp.coreMetrics(coreS)
	m["engine.allocs_per_query"], m["engine.alloc_kb_per_query"] = allocs, allocKB
	m["engine.overhead_us_p50"] = us(overheadP50(s[1], s[0]))
	if len(s) > 2 {
		m["pool.overhead_us_p50"] = us(overheadP50(s[2], s[1]))
	}
	if len(s) > 3 {
		m["serve.overhead_ms_p50"] = ms(overheadP50(s[3], s[2]))
		lp.snapKernel()
	}

	if err := lp.engineKernels(engSys.eng); err != nil {
		return err
	}
	lp.spKernels(env, coreS)
	lp.landmarkKernel()
	lp.pqueueKernel()
	lp.rtreeKernels(env)
	lp.skylineKernels()
	if err := lp.storageKernel(dir); err != nil {
		return err
	}
	lp.distcacheKernel(env, coreS[0].core.NodesExpanded)
	return nil
}

// inProcess builds the workload's engine afresh, in process, with its pool
// when withPool is set.
func (lp *layerPass) inProcess(dir string, withPool bool) (*system, error) {
	var eng *roadskyline.Engine
	var err error
	if lp.w.mmapDir {
		cfg := lp.engCfg
		cfg.Backend = roadskyline.BackendMmap
		eng, err = roadskyline.OpenEngine(dir, cfg)
	} else {
		eng, err = roadskyline.NewEngine(lp.ds.net, lp.ds.objs, lp.engCfg)
	}
	if err != nil {
		return nil, err
	}
	poolCfg := roadskyline.PoolConfig{}
	if withPool {
		poolCfg = lp.poolCfg
	}
	sys, err := inProcess(eng, poolCfg, lp.like)
	if err != nil {
		return nil, err
	}
	lp.b.track(sys)
	return sys, nil
}

// coreMetrics reports core.Run's wall time and exact work counters per
// algorithm; an algorithm the workload never runs stays 0.
func (lp *layerPass) coreMetrics(s []sample) {
	names := map[roadskyline.Algorithm]string{roadskyline.CEAlg: "ce", roadskyline.EDCAlg: "edc", roadskyline.LBCAlg: "lbc"}
	type acc struct {
		lat                 []float64
		cand, nodes, dcomps float64
	}
	by := map[string]*acc{}
	points := 0.0
	for i := range s {
		q := &lp.cat[s[i].q]
		a := by[names[q.alg]]
		if a == nil {
			a = &acc{}
			by[names[q.alg]] = a
		}
		a.lat = append(a.lat, ms(s[i].lat))
		a.cand += float64(s[i].core.Candidates)
		a.nodes += float64(s[i].core.NodesExpanded)
		a.dcomps += float64(s[i].core.DistanceComputations)
		points += float64(len(q.want))
	}
	for alg, a := range by {
		n := float64(len(a.lat))
		lp.m["core."+alg+"_ms_p50"] = percentile(sortedCopy(a.lat), 50)
		lp.m["core."+alg+"_candidates"] = a.cand / n
		lp.m["core."+alg+"_nodes_expanded"] = a.nodes / n
		lp.m["core."+alg+"_dist_computations"] = a.dcomps / n
	}
	lp.m["core.skyline_points"] = points / float64(len(s))
}
