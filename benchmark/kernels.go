package main

import (
	"context"
	"math"
	"path/filepath"
	"time"

	"roadskyline"
	"roadskyline/internal/bruteforce"
	"roadskyline/internal/core"
	"roadskyline/internal/diskgraph"
	"roadskyline/internal/distcache"
	"roadskyline/internal/geom"
	"roadskyline/internal/graph"
	"roadskyline/internal/landmark"
	"roadskyline/internal/middlelayer"
	"roadskyline/internal/pqueue"
	"roadskyline/internal/rtree"
	"roadskyline/internal/skyline"
	"roadskyline/internal/sp"
	"roadskyline/internal/storage"
)

// The kernels: each inner layer called directly, from outside the program,
// on the workload's own network, objects and query points (see layers.go).

// snapKernel times Network.NearestLocation, the linear scan skylineserve
// runs for every query point of every request.
func (lp *layerPass) snapKernel() {
	rng := newRand(lp.w.seed)
	const n = 200
	start := time.Now()
	for i := 0; i < n; i++ {
		lp.ds.net.NearestLocation(roadskyline.Point{X: rng.Float64(), Y: rng.Float64()})
	}
	lp.m["serve.snap_us_per_point"] = us(time.Since(start)) / n
}

// engineKernels times the progressive iterator: to the first point, and to
// five points followed by Close (a client that stops reading).
func (lp *layerPass) engineKernels(eng *roadskyline.Engine) error {
	var first, five []float64
	for k, qi := range lp.sub {
		if k >= 60 {
			break
		}
		q := &lp.cat[qi]
		for _, take := range []int{1, 5} {
			sp := lp.rec.begin("engine.iter", -1, qi)
			start := time.Now()
			it, err := eng.SkylineIterContext(context.Background(), roadskyline.Query{Points: q.pts, UseAttrs: q.attrs})
			if err != nil {
				return err
			}
			for i := 0; i < take; i++ {
				if _, ok, err := it.Next(); err != nil {
					return err
				} else if !ok {
					break
				}
			}
			if take == 1 {
				first = append(first, ms(time.Since(start)))
			}
			it.Close()
			if take == 5 {
				five = append(five, ms(time.Since(start)))
			}
			lp.rec.end(sp)
		}
	}
	lp.m["engine.first_point_ms_p50"] = percentile(sortedCopy(first), 50)
	lp.m["engine.first5_close_ms_p50"] = percentile(sortedCopy(five), 50)

	// obs: the same queries with the causal trace and the phase breakdown on
	// and off, alternating which goes first so cache effects cancel.
	var on, off time.Duration
	for k, qi := range lp.sub {
		q := &lp.cat[qi]
		for r := 0; r < 2; r++ {
			rq := roadskyline.Query{Points: q.pts, Algorithm: q.alg, UseAttrs: q.attrs}
			traced := (k+r)%2 == 0
			rq.Trace, rq.CollectPhases = traced, traced
			start := time.Now()
			if _, err := eng.Skyline(rq); err != nil {
				return err
			}
			if traced {
				on += time.Since(start)
			} else {
				off += time.Since(start)
			}
		}
	}
	lp.m["obs.trace_overhead_pct"] = 100 * float64(on-off) / float64(off)
	return nil
}

// timedNet decorates the sp.Net that *core.Env implements: it times every
// Neighbors and ObjectsOn call, which are the calls into diskgraph and the
// middle layer (and, below them, the B+-tree and the buffer pools).
type timedNet struct {
	sp.Net
	neighbors, objectsOn           time.Duration
	neighborsCalls, objectsOnCalls int64
}

func (t *timedNet) Neighbors(id graph.NodeID, buf []diskgraph.Neighbor) ([]diskgraph.Neighbor, error) {
	start := time.Now()
	out, err := t.Net.Neighbors(id, buf)
	t.neighbors += time.Since(start)
	t.neighborsCalls++
	return out, err
}

func (t *timedNet) ObjectsOn(e graph.EdgeID, buf []middlelayer.ObjRef) ([]middlelayer.ObjRef, error) {
	start := time.Now()
	out, err := t.Net.ObjectsOn(e, buf)
	t.objectsOn += time.Since(start)
	t.objectsOnCalls++
	return out, err
}

// spKernels replays the searchers over the decorated net for the first
// queries of the subset: a Dijkstra from each query point drained to the
// per-point settlement count core.Run reported for that query, and A*
// sessions from each query point to that query's skyline objects, with the
// engine's heuristic source and with the Euclidean bound alone.
func (lp *layerPass) spKernels(env *core.Env, coreS []sample) {
	const maxQueries, maxTargets = 24, 8
	ctx := context.Background()
	hs := env.HeuristicSource(core.Options{})
	tn := &timedNet{Net: env}
	layer0 := env.Layer.Stats().Gets
	var dTime, aTime, eTime time.Duration
	var dSettles, aSettles, eSettles int
	replayed := 0
	for k, qi := range lp.sub {
		if k >= maxQueries {
			break
		}
		replayed++
		q := &lp.cat[qi]
		root := lp.rec.begin("sp.replay", -1, qi)
		target := coreS[k].core.NodesExpanded / len(q.pts)
		if target < 32 {
			target = 32
		}
		run := func(name string, fn func() int) (time.Duration, int) {
			n0, o0, nc0, oc0 := tn.neighbors, tn.objectsOn, tn.neighborsCalls, tn.objectsOnCalls
			id := lp.rec.begin(name, root, qi)
			start := time.Now()
			settles := fn()
			took := time.Since(start)
			lp.rec.end(id)
			calls := tn.neighborsCalls - nc0 + tn.objectsOnCalls - oc0
			lp.rec.aggregate("diskgraph.neighbors", id, qi, tn.neighbors-n0, tn.neighborsCalls-nc0)
			lp.rec.aggregate("middlelayer.objects_on", id, qi, tn.objectsOn-o0, tn.objectsOnCalls-oc0)
			// Each decorated call reads the clock twice.
			return took - time.Duration(2*calls)*lp.now, settles
		}
		astar := func(useHS bool) func() int {
			return func() int {
				settles := 0
				for _, p := range q.pts {
					sc := env.AcquireScratch()
					a, err := sp.NewAStarWith(ctx, tn, gloc(p), lp.ds.g.Point(gloc(p)), sc)
					if err == nil {
						if useHS && hs != nil {
							a.UseHeuristicSource(hs)
						}
						for i, wp := range q.want {
							if i >= maxTargets {
								break
							}
							loc := lp.ds.gobjs[wp.id].Loc
							a.NewSession(loc, lp.ds.g.Point(loc)).Run()
						}
						settles += a.NodesExpanded()
					}
					env.ReleaseScratch(sc)
				}
				return settles
			}
		}
		t, n := run("sp.dijkstra", func() int {
			settles := 0
			for _, p := range q.pts {
				sc := env.AcquireScratch()
				d, err := sp.NewDijkstraWith(ctx, tn, gloc(p), sc)
				for err == nil && d.NodesExpanded() < target {
					if _, ok, e := d.NextObject(); e != nil || !ok {
						break
					}
				}
				if err == nil {
					settles += d.NodesExpanded()
				}
				env.ReleaseScratch(sc)
			}
			return settles
		})
		dTime, dSettles = dTime+t, dSettles+n
		t, n = run("sp.astar", astar(true))
		aTime, aSettles = aTime+t, aSettles+n
		t, n = run("sp.astar_euclid", astar(false))
		eTime, eSettles = eTime+t, eSettles+n
		lp.rec.end(root)
	}
	m := lp.m
	perSettle := func(t time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return math.Max(0, float64(t)/float64(n))
	}
	m["sp.dijkstra_ns_per_settle"] = perSettle(dTime, dSettles)
	m["sp.astar_ns_per_settle"] = perSettle(aTime, aSettles)
	m["sp.astar_euclid_ns_per_settle"] = perSettle(eTime, eSettles)
	if eSettles > 0 {
		m["sp.astar_settles_alt_over_euclid"] = float64(aSettles) / float64(eSettles)
	}
	// Share of core.Run spent settling nodes: each query's settlements at
	// its searcher's replayed cost per settlement, over the core level's time.
	var spNS, coreNS float64
	for i := range coreS {
		per := m["sp.astar_ns_per_settle"]
		if lp.cat[coreS[i].q].alg == roadskyline.CEAlg {
			per = m["sp.dijkstra_ns_per_settle"]
		}
		spNS += per * float64(coreS[i].core.NodesExpanded)
		coreNS += float64(coreS[i].lat)
	}
	m["sp.share_of_core_pct"] = 100 * spNS / coreNS
	perCall := func(t time.Duration, calls int64) float64 {
		if calls == 0 {
			return 0
		}
		return math.Max(0, float64(t)/float64(calls)-float64(lp.now))
	}
	m["diskgraph.neighbors_ns"] = perCall(tn.neighbors, tn.neighborsCalls)
	m["middlelayer.objects_on_ns"] = perCall(tn.objectsOn, tn.objectsOnCalls)
	m["diskgraph.calls_per_query"] = float64(tn.neighborsCalls) / float64(replayed)
	m["middlelayer.calls_per_query"] = float64(tn.objectsOnCalls) / float64(replayed)
	if tn.objectsOnCalls > 0 {
		m["bptree.pages_per_lookup"] = float64(env.Layer.Stats().Gets-layer0) / float64(tn.objectsOnCalls)
	}
	m["diskgraph.pages"] = float64(env.Store.NumPages())
}

// landmarkKernel times the ALT bound and the table build.
func (lp *layerPass) landmarkKernel() {
	start := time.Now()
	tbl := landmark.Build(lp.ds.g, landmark.DefaultK)
	lp.m["landmark.build_ms"] = ms(time.Since(start))
	dest := gloc(lp.cat[lp.sub[0]].pts[0])
	th := tbl.ForTarget(dest, lp.ds.g.Point(dest))
	rng := newRand(lp.w.seed)
	nodes := make([]graph.NodeID, 4096)
	for i := range nodes {
		nodes[i] = graph.NodeID(rng.Intn(lp.ds.g.NumNodes()))
	}
	const n = 1 << 19
	sink := 0.0
	start = time.Now()
	for i := 0; i < n; i++ {
		sink += th.Bound(nodes[i&4095])
	}
	lp.m["landmark.bound_ns"] = float64(time.Since(start)) / n
	_ = sink
}

// pqueueKernel records the heap operations of one Dijkstra over the graph
// (run by the harness on pqueue.Dense itself) and replays them on a fresh
// heap: the key sequence a searcher produces, without the searcher.
func (lp *layerPass) pqueueKernel() {
	type op struct {
		kind uint8 // 0 push, 1 update, 2 pop
		id   int32
		key  float64
	}
	g := lp.ds.g
	src := gloc(lp.cat[lp.sub[0]].pts[0])
	h := pqueue.NewDense()
	h.Grow(g.NumNodes())
	settled := make([]bool, g.NumNodes())
	var ops []op
	relax := func(id graph.NodeID, key float64) {
		if settled[id] {
			return
		}
		if old, ok := h.Key(int32(id)); !ok {
			h.Push(int32(id), key)
			ops = append(ops, op{0, int32(id), key})
		} else if key < old {
			h.Update(int32(id), key)
			ops = append(ops, op{1, int32(id), key})
		}
	}
	e := g.Edge(src.Edge)
	relax(e.U, src.Offset)
	relax(e.V, e.Length-src.Offset)
	pops := 0
	for h.Len() > 0 && pops < 20000 {
		id, d := h.Pop()
		ops = append(ops, op{kind: 2})
		pops++
		settled[id] = true
		for he := range g.Adj(graph.NodeID(id)).All() {
			relax(he.To, d+he.Length)
		}
	}
	reps := 1 + 2000000/len(ops)
	start := time.Now()
	for r := 0; r < reps; r++ {
		h.Reset()
		for _, o := range ops {
			switch o.kind {
			case 0:
				h.Push(o.id, o.key)
			case 1:
				h.Update(o.id, o.key)
			default:
				h.Pop()
			}
		}
	}
	lp.m["pqueue.dense_ns_per_pushpop"] = float64(time.Since(start)) / float64(reps*pops)
}

// rtreeKernels times EDC's first step (the Euclidean skyline by BBS), LBC's
// candidate stream (Euclidean nearest neighbours) and the bulk load.
func (lp *layerPass) rtreeKernels(env *core.Env) {
	var bbs []float64
	var nnTime time.Duration
	nnResults := 0
	for k, qi := range lp.sub {
		if k >= 60 {
			break
		}
		q := &lp.cat[qi]
		pts := make([]geom.Point, len(q.pts))
		for i, p := range q.pts {
			pts[i] = lp.ds.g.Point(gloc(p))
		}
		var opts *rtree.SkylineOptions
		if q.attrs {
			opts = &rtree.SkylineOptions{ExtraDims: env.NumAttrs(), LeafExtra: func(id int32) []float64 { return env.Objects[id].Attrs }}
		}
		id := lp.rec.begin("rtree.bbs", -1, qi)
		start := time.Now()
		it := env.ObjTree.NewSkylineIterator(pts, opts)
		for _, _, ok := it.Next(); ok; _, _, ok = it.Next() {
		}
		bbs = append(bbs, ms(time.Since(start)))
		lp.rec.end(id)

		id = lp.rec.begin("rtree.nn", -1, qi)
		start = time.Now()
		nn := env.ObjTree.NewNNIterator(pts[0], nil)
		for i := 0; i < 100; i++ {
			if _, _, ok := nn.Next(); !ok {
				break
			}
			nnResults++
		}
		nnTime += time.Since(start)
		lp.rec.end(id)
	}
	lp.m["rtree.bbs_ms_p50"] = percentile(sortedCopy(bbs), 50)
	lp.m["rtree.nn_us_per_result"] = us(nnTime) / float64(nnResults)
	entries := make([]rtree.Entry, len(lp.ds.gobjs))
	for i, o := range lp.ds.gobjs {
		entries[i] = rtree.Entry{Rect: geom.RectFromPoint(lp.ds.g.Point(o.Loc)), ID: int32(o.ID)}
	}
	start := time.Now()
	rtree.BulkLoad(entries, rtree.DefaultFanout)
	lp.m["rtree.build_ms"] = ms(time.Since(start))
}

// skylineKernels times the dominance test and block-nested-loops on the
// workload's own vectors: the first thousand objects' network distances to
// one query's points, with the attribute dimension where the workload has it.
func (lp *layerPass) skylineKernels() {
	q := &lp.cat[lp.sub[0]]
	pts := make([]graph.Location, len(q.pts))
	for i, p := range q.pts {
		pts[i] = gloc(p)
	}
	objs := lp.ds.gobjs
	if len(objs) > 1000 {
		objs = objs[:1000]
	}
	vecs := bruteforce.DistanceMatrix(lp.ds.g, objs, pts)
	if q.attrs {
		for i := range vecs {
			vecs[i] = append(vecs[i], objs[i].Attrs...)
		}
	}
	reps := 0
	start := time.Now()
	for time.Since(start) < 50*time.Millisecond {
		skyline.BlockNestedLoops(vecs)
		reps++
	}
	lp.m["skyline.bnl_ms_per_1k"] = ms(time.Since(start)) / float64(reps) * 1000 / float64(len(vecs))
	const n = 1 << 20
	hits := 0
	start = time.Now()
	for i := 0; i < n; i++ {
		if skyline.Dominates(vecs[i%len(vecs)], vecs[(i*7+1)%len(vecs)]) {
			hits++
		}
	}
	lp.m["skyline.dominance_ns"] = float64(time.Since(start)) / n
	_ = hits
}

// storageKernel times BufferPool.Get on fresh pools over the workload's
// adjacency page file, through the backend the workload uses: a resident
// set (every Get a hit) and a cyclic scan larger than the pool (every Get a
// miss under LRU).
func (lp *layerPass) storageKernel(dir string) error {
	var file storage.PageFile
	if lp.w.mmapDir {
		f, _, err := storage.Open(filepath.Join(dir, "adjacency.pages"), storage.BackendMmap)
		if err != nil {
			return err
		}
		file = f
	} else {
		mem := storage.NewMemFile()
		if _, err := diskgraph.Build(lp.ds.g, mem, storage.DefaultBufferBytes, diskgraph.OrderHilbert); err != nil {
			return err
		}
		file = mem
	}
	defer file.Close()
	pages := file.NumPages()
	frames := storage.DefaultBufferBytes / storage.PageSize
	if frames > pages/2 {
		frames = pages / 2
	}
	if frames < 1 {
		frames = 1
	}
	const n = 1 << 18
	gets := func(span int) (float64, error) {
		pool := storage.NewBufferPool(file, frames*storage.PageSize)
		for i := 0; i < span; i++ { // fill
			if _, err := pool.Get(storage.PageID(i)); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := pool.Get(storage.PageID(i % span)); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start)) / n, nil
	}
	var err error
	if lp.m["storage.get_ns_hit"], err = gets(frames); err != nil {
		return err
	}
	lp.m["storage.get_ns_miss"], err = gets(pages)
	return err
}

// distcacheKernel times the cache's own operations on a snapshot of a
// Dijkstra drained as far as the first query's searchers go: taking the
// snapshot and storing it, looking it up, and restoring a searcher from it.
func (lp *layerPass) distcacheKernel(env *core.Env, queryNodes int) {
	ctx := context.Background()
	q := &lp.cat[lp.sub[0]]
	sc := env.AcquireScratch()
	defer env.ReleaseScratch(sc)
	d, err := sp.NewDijkstraWith(ctx, env, gloc(q.pts[0]), sc)
	if err != nil {
		return
	}
	target := queryNodes / len(q.pts)
	for d.NodesExpanded() < target {
		if _, ok, err := d.NextObject(); err != nil || !ok {
			break
		}
	}
	cache := distcache.New(distcache.Config{Entries: 64})
	const n = 50
	var st *distcache.State
	start := time.Now()
	for i := 0; i < n; i++ {
		st = d.Snapshot()
		cache.Put(distcache.KindDijkstra, 0, st)
	}
	lp.m["distcache.put_us"] = us(time.Since(start)) / n
	start = time.Now()
	for i := 0; i < 1000; i++ {
		cache.Get(distcache.KindDijkstra, 0, st.Src)
	}
	lp.m["distcache.get_us"] = us(time.Since(start)) / 1000
	sc2 := env.AcquireScratch()
	defer env.ReleaseScratch(sc2)
	start = time.Now()
	for i := 0; i < n; i++ {
		sp.NewDijkstraFromWith(ctx, env, st, sc2)
	}
	lp.m["distcache.restore_us"] = us(time.Since(start)) / n
}
