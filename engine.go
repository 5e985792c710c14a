package roadskyline

import (
	"context"
	"io"
	"log/slog"
	"time"

	"roadskyline/internal/core"
	"roadskyline/internal/diskgraph"
	"roadskyline/internal/distcache"
	"roadskyline/internal/graph"
	"roadskyline/internal/obs"
	"roadskyline/internal/storage"
)

// Algorithm selects the query processing strategy.
type Algorithm int

const (
	// CEAlg is Collaborative Expansion (paper Section 4.1): Dijkstra
	// wavefronts around every query point, expanded round-robin. The
	// straightforward baseline.
	CEAlg Algorithm = iota
	// EDCAlg is Euclidean Distance Constraint (Section 4.2): Euclidean
	// skyline seeds direct A* network expansion.
	EDCAlg
	// LBCAlg is Lower-Bound Constraint (Section 4.3): incremental network
	// nearest neighbors with path-distance-lower-bound dominance checks.
	// Instance-optimal in network accesses and the recommended default.
	LBCAlg
)

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string { return a.core().String() }

func (a Algorithm) core() core.Algorithm {
	switch a {
	case CEAlg:
		return core.AlgCE
	case EDCAlg:
		return core.AlgEDC
	default:
		return core.AlgLBC
	}
}

// StorageBackend identifies how an engine's page files are served. The
// values mirror the internal storage backends, so conversion is a cast.
type StorageBackend int

const (
	// BackendMem keeps page files in memory — the default when DiskDir is
	// empty, and the paper's simulated-disk setup.
	BackendMem StorageBackend = StorageBackend(storage.BackendMem)
	// BackendFile serves page files through ordinary read-only file reads.
	// The default when DiskDir is set.
	BackendFile StorageBackend = StorageBackend(storage.BackendFile)
	// BackendMmap memory-maps every page file and slab: pages are served as
	// mapping slices the OS faults in lazily, so a network larger than RAM
	// opens without copying pages onto the heap. Falls back to BackendFile
	// where mapping fails.
	BackendMmap StorageBackend = StorageBackend(storage.BackendMmap)
)

// String returns "mem", "file" or "mmap".
func (b StorageBackend) String() string { return storage.Backend(b).String() }

// EngineConfig tunes the storage simulation underneath an Engine.
type EngineConfig struct {
	// BufferBytes sizes each LRU buffer pool. Default 1 MB (the paper's
	// setting).
	BufferBytes int
	// WarmCache keeps buffer pools warm across queries instead of starting
	// each query cold.
	WarmCache bool
	// DiskDir, when non-empty, stores the simulated disk pages as real
	// files in that directory instead of in memory, together with one
	// checksummed network slab holding everything else (graph, objects,
	// adjacency directory, landmark table, R-tree leaf order, edge keys):
	// four files in all. The directory is built — each structure computed
	// once, the slab renamed into place last — and then reopened read-only
	// through Backend; OpenEngine serves such a directory later without
	// rebuilding anything.
	DiskDir string
	// Backend selects how the files under DiskDir are served after the
	// build: BackendFile (the default when DiskDir is set) or BackendMmap.
	// Ignored when DiskDir is empty. See StorageBackend.
	Backend StorageBackend
	// Landmarks is the number of ALT landmark nodes precomputed at build
	// time: exact distance tables from a few farthest-point-sampled nodes
	// tighten the A* heuristic beyond the Euclidean bound via the triangle
	// inequality. Zero means the default (8); negative builds or reads no
	// table, so the A* searchers use the paper's pure Euclidean heuristic.
	// OpenEngine builds no table: zero there means the one the directory
	// holds, and a positive count other than the directory's is refused
	// (ErrIncompatible).
	Landmarks int
	// DistCache sizes the cross-query cache of shortest-path wavefronts
	// kept at rest. The zero value keeps none (the paper's
	// recompute-everything behavior). The cache only serves warm-cache
	// engines: without WarmCache every query simulates a cold run, and
	// reusing a wavefront would skip the page faults those figures measure.
	// Like the landmark table it is shared across Clone()s and by all
	// workers of a Pool.
	DistCache DistCacheConfig
	// ShareWavefronts makes the same store coalesce concurrent searchers
	// rooted at the same source location onto a single wavefront
	// expansion: one in-flight query leads, the others wait and resume from
	// the leader's final snapshot (see docs/CACHING.md, "In-flight
	// entries"). It works with or without DistCache entries at rest, only
	// on warm-cache engines; the default (off) leaves every query
	// expanding independently.
	ShareWavefronts bool
	// FlightRecorder sizes the query flight recorder: a bounded in-memory
	// log of per-query cost records (see docs/OBSERVABILITY.md). The zero
	// value disables it (the zero-overhead default). Like the distance
	// cache it is shared across Clone()s and by all workers of a Pool;
	// recorded queries always carry the per-phase breakdown
	// (Stats.Phases), as if CollectPhases were set.
	FlightRecorder FlightRecorderConfig
}

// FlightRecorderConfig sizes the engine's query flight recorder:
// Size bounds the sampled ring and the errored/cancelled reservoir
// (zero disables the recorder), SlowN the slowest-query reservoir
// (default 16), SampleEvery the sampling stride of the ring (default 1,
// every query).
type FlightRecorderConfig = obs.FlightConfig

// FlightRecord is one retained per-query cost record of the flight
// recorder: query shape and flags, outcome, response times, per-phase
// breakdown and work counters.
type FlightRecord = obs.FlightRecord

// DistCacheConfig sizes the cross-query network-distance cache (see
// docs/CACHING.md).
type DistCacheConfig struct {
	// Entries caps the number of cached wavefronts — one per (searcher
	// kind, heuristic flavor, source location). Zero or negative disables
	// the cache.
	Entries int
	// Quantum is the source-offset quantization: sources on the same edge
	// whose offsets fall in the same Quantum-wide bucket share one cache
	// slot (only an exact source match is ever reused — the bucket just
	// bounds key cardinality). Zero means the default (1e-3 distance
	// units).
	Quantum float64
}

// DistCacheStats reports the cross-query distance cache's counters; see
// Engine.DistCacheStats.
type DistCacheStats = distcache.Stats

// Engine answers skyline queries over one network and one object set. It
// owns the simulated storage stack: Hilbert-clustered adjacency pages, the
// B+-tree middle layer mapping edges to objects, and the object R-tree.
//
// An Engine is not safe for concurrent queries: buffer pools and cost
// counters are per-engine mutable state. To serve queries concurrently use
// one Clone per goroutine, or a Pool, which manages a fixed set of clones
// behind a bounded work queue.
type Engine struct {
	net      *Network
	env      *core.Env
	objs     []Object
	cfg      EngineConfig
	flight   *obs.FlightRecorder // shared across Clone()s; nil when disabled
	inflight *obs.Inflight       // live traced queries; shared across Clone()s
}

// NewEngine indexes objects over the network. Object IDs are assigned
// densely in input order (any caller-set IDs are overwritten); the objects
// returned in results carry the assigned IDs.
func NewEngine(n *Network, objects []Object, cfg EngineConfig) (*Engine, error) {
	objs := make([]graph.Object, len(objects))
	kept := make([]Object, len(objects))
	for i, o := range objects {
		o.ID = int32(i)
		kept[i] = o
		objs[i] = graph.Object{
			ID:    graph.ObjectID(i),
			Loc:   graph.Location{Edge: graph.EdgeID(o.Loc.Edge), Offset: o.Loc.Offset},
			Attrs: o.Attrs,
		}
	}
	env, err := core.NewEnv(n.g, objs, core.EnvConfig{
		BufferBytes: cfg.BufferBytes,
		Order:       diskgraph.OrderHilbert,
		Dir:         cfg.DiskDir,
		Backend:     storage.Backend(cfg.Backend),
		Landmarks:   cfg.Landmarks,
		DistCache: distcache.Config{
			Entries: cfg.DistCache.Entries,
			Quantum: cfg.DistCache.Quantum,
		},
		ShareWavefronts: cfg.ShareWavefronts,
	})
	if err != nil {
		return nil, err
	}
	return &Engine{
		net:      n,
		env:      env,
		objs:     kept,
		cfg:      cfg,
		flight:   obs.NewFlightRecorder(cfg.FlightRecorder),
		inflight: obs.NewInflight(),
	}, nil
}

// ErrCorrupt is wrapped by the errors OpenEngine returns for a network
// directory whose bytes contradict themselves or each other (a truncated
// or overwritten file, a failed checksum, an index out of range); test with
// errors.Is. Such a directory never opens and never faults a query.
var ErrCorrupt = core.ErrCorrupt

// ErrIncompatible is wrapped by the errors OpenEngine returns for an intact
// directory that is not what was asked for: a format version this build
// does not read (rebuild the directory), or an explicit
// EngineConfig.Landmarks other than the count it was built for.
var ErrIncompatible = core.ErrIncompatible

// OpenEngine serves a network directory previously built by NewEngine with
// DiskDir set. Nothing is rebuilt: the network slab is memory-mapped — the
// graph's arrays, the attribute matrix, the landmark table and the edge
// keys are the mapping, the object R-tree is packed from its persisted
// leaf order — and the page files open through cfg.Backend (BackendFile by
// default, BackendMmap for the zero-heap-copy larger-than-RAM path), so
// even a continent-scale network opens in milliseconds. Every section of
// the slab is checked on the way (sizes, checksums, index ranges): a
// damaged directory, or one whose build never finished, fails here, a
// damaged one with ErrCorrupt. cfg.DiskDir is ignored — the on-disk layout is already
// fixed; cfg.Landmarks zero means the table the directory holds and a
// negative count leaves it unread; the remaining fields apply as in
// NewEngine.
//
// Close the engine when done to release the mappings and file handles.
func OpenEngine(dir string, cfg EngineConfig) (*Engine, error) {
	env, err := core.OpenEnv(dir, core.EnvConfig{
		BufferBytes: cfg.BufferBytes,
		Backend:     storage.Backend(cfg.Backend),
		Landmarks:   cfg.Landmarks,
		DistCache: distcache.Config{
			Entries: cfg.DistCache.Entries,
			Quantum: cfg.DistCache.Quantum,
		},
		ShareWavefronts: cfg.ShareWavefronts,
	})
	if err != nil {
		return nil, err
	}
	objs := make([]Object, len(env.Objects))
	for i, o := range env.Objects {
		objs[i] = Object{
			ID:    int32(o.ID),
			Loc:   Location{Edge: int32(o.Loc.Edge), Offset: o.Loc.Offset},
			Attrs: o.Attrs,
		}
	}
	return &Engine{
		net:      &Network{g: env.G},
		env:      env,
		objs:     objs,
		cfg:      cfg,
		flight:   obs.NewFlightRecorder(cfg.FlightRecorder),
		inflight: obs.NewInflight(),
	}, nil
}

// StorageBackend reports how the engine's page files are served: BackendMem
// for an in-memory build, BackendFile or BackendMmap for a disk directory
// (mmap only when every file mapped; partial fallbacks report BackendFile).
func (e *Engine) StorageBackend() StorageBackend {
	return StorageBackend(e.env.Backend())
}

// Close releases the disk resources behind a DiskDir or OpenEngine engine
// (page files and slab mappings). The resources are shared with every
// Clone: call Close once, after all clones are idle, and use none of them
// afterward. Close on an in-memory engine is a no-op.
func (e *Engine) Close() error { return e.env.Close() }

// Clone returns an independent engine over the same network and objects:
// indexes and page files are shared, buffer pools are fresh. Use one clone
// per goroutine to serve queries concurrently.
func (e *Engine) Clone() *Engine {
	c := *e
	c.env = e.env.Clone()
	return &c
}

// Network returns the engine's network.
func (e *Engine) Network() *Network { return e.net }

// DistCacheStats snapshots the cross-query distance cache's global
// counters. The cache is shared across clones (and across a Pool's
// workers), so the counters aggregate every user of the underlying cache;
// per-query lookups are in Stats.DistCacheHits/DistCacheMisses. All fields
// are zero on an engine without a cache.
func (e *Engine) DistCacheStats() DistCacheStats { return e.env.DistCache.Stats() }

// WavefrontStats reports the wavefront store's in-flight counters:
// expansions led, snapshots shared, leader promotions after a cancelled
// lead, and joins that bypassed sharing; Waiting is the instantaneous
// number of searchers blocked on a leader. See Engine.WavefrontStats.
type WavefrontStats = distcache.FlightStats

// WavefrontStats snapshots the wavefront store's in-flight counters. The
// store is shared across clones (and across a Pool's workers), so the
// counters aggregate every user of the underlying engine; per-query
// outcomes are in Stats.WavefrontLeads/WavefrontShares. All fields are
// zero on an engine without ShareWavefronts.
func (e *Engine) WavefrontStats() WavefrontStats { return e.env.DistCache.FlightStats() }

// FlightRecords returns the flight recorder's retained per-query records,
// newest first: the union of the sampled stream, the slowest-N reservoir
// and every errored/cancelled query. The recorder is shared across clones
// (and across a Pool's workers), so records from every user of the
// underlying engine appear. Nil when the recorder is disabled.
func (e *Engine) FlightRecords() []FlightRecord { return e.flight.Records() }

// TraceRecord looks a retained flight record up by its causal trace ID
// (the canonical "t" + hex form Result.TraceID carries). It reports false
// when the recorder is disabled or has already evicted the record.
func (e *Engine) TraceRecord(traceID string) (FlightRecord, bool) { return e.flight.Find(traceID) }

// WriteTraceEvents renders a traced flight record as Chrome trace-event
// JSON (the format Perfetto and chrome://tracing load): one complete event
// per span, timestamps relative to the earliest span. It errors on records
// without a trace ID or spans (queries that ran with Query.Trace unset).
func WriteTraceEvents(w io.Writer, rec FlightRecord) error { return obs.WriteTraceEvents(w, rec) }

// InflightQuery is one entry of the live in-flight view: a running traced
// query's identity plus its progress cell (current phase, running node
// settlements, live role, the flight key and leader blocked on).
type InflightQuery = obs.InflightQuery

// InflightQueries snapshots the queries currently running with a causal
// trace (Query.Trace), in admission order. The registry is shared across
// clones (and across a Pool's workers), so every live traced query of the
// underlying engine appears.
func (e *Engine) InflightQueries() []InflightQuery { return e.inflight.Snapshot() }

// finalize is the one place a finished submission becomes its record:
// rejected or cancelled at pool admission (zero metrics), failed in the
// engine, completed, or an iterator at its first terminal event. The
// outcome is classified here, once; the query's causal trace, if any,
// closes here too (appending the modeled-I/O and root spans) and leaves
// the in-flight registry, its span list attached to the record. began is
// when the submission was admitted, zero when nobody timed it. The query's
// Tracer receives the record here; the caller hands it to the other
// consumers: a bare engine to the flight recorder, a Pool to Pool.finish.
func finalize(in *obs.Inflight, q Query, m core.Metrics, began time.Time, err error, abandoned bool) obs.FlightRecord {
	q.trace.Finish(m.IOTime)
	in.Remove(q.trace)
	rec := obs.FlightRecord{
		Alg:             q.Algorithm.String(),
		NumPoints:       len(q.Points),
		UseAttrs:        q.UseAttrs,
		Alternate:       q.Alternate,
		Source:          q.Source,
		Outcome:         obs.Classify(err, abandoned, errOutcomes),
		Total:           m.ResponseTime(),
		Initial:         m.InitialResponseTime(),
		Wall:            since(began),
		Phases:          m.Phases,
		Candidates:      m.Candidates,
		NodesExpanded:   m.NodesExpanded,
		NetworkPages:    m.NetworkPages,
		NetworkGets:     m.NetworkGets,
		RTreeNodes:      m.RTreeNodes,
		DistCacheHits:   m.DistCacheHits,
		DistCacheMisses: m.DistCacheMisses,
		WavefrontLeads:  m.WavefrontLeads,
		WavefrontShares: m.WavefrontShares,
		TraceID:         q.trace.ID().String(),
		Spans:           q.trace.Spans(),
	}
	if err != nil {
		rec.Err = err.Error()
	}
	if q.Tracer != nil {
		q.Tracer.QueryDone(rec)
	}
	return rec
}

// since is time.Since for stamps that are zero when timing is off.
func since(t time.Time) time.Duration {
	if t.IsZero() {
		return 0
	}
	return time.Since(t)
}

// NumObjects returns the number of indexed objects.
func (e *Engine) NumObjects() int { return len(e.objs) }

// Objects returns a copy of the engine's object table in ID order (the
// Attrs slices are shared, not copied). Useful with OpenEngine, where the
// object set comes from the directory rather than the caller.
func (e *Engine) Objects() []Object {
	out := make([]Object, len(e.objs))
	copy(out, e.objs)
	return out
}

// Query is a multi-source skyline request.
type Query struct {
	// Points are the query locations (at least one).
	Points []Location
	// UseAttrs extends skyline vectors with the objects' static attributes.
	UseAttrs bool
	// Algorithm selects the strategy; the zero value is CEAlg, so set
	// LBCAlg explicitly for the fast path.
	Algorithm Algorithm
	// Alternate makes LBC retrieve network nearest neighbors from every
	// query point round-robin instead of a single source, so early results
	// spread across all query points (paper Section 4.3's multi-source
	// extension). Ignored by CE and EDC.
	Alternate bool
	// Source selects which query point LBC uses as its nearest-neighbor
	// source (results then arrive nearest to that point first). It must
	// index into Points; out-of-range values are rejected. Ignored by CE
	// and EDC, and by LBC when Alternate is set.
	Source int
	// Tracer receives the query's FlightRecord once it has finished,
	// whatever the outcome (see docs/OBSERVABILITY.md); the query then
	// collects its phase breakdown as under the flight recorder. Nil — the
	// default — costs nothing; results and counters are identical either
	// way. One Tracer may serve any number of concurrent queries when it
	// is safe for concurrent use, as SlogTracer is.
	Tracer Tracer
	// CollectPhases populates Stats.Phases (the per-phase work breakdown).
	CollectPhases bool
	// Trace assigns the query a causal trace: a trace ID (returned in
	// Result.TraceID), an entry in the engine's live in-flight view
	// (Engine.InflightQueries, /debug/inflight) while the query runs, and
	// a timestamped span decomposition of its response time — queue wait,
	// per-phase work, flight waits naming the leader's trace ID, snapshot
	// restores, modeled I/O — attached to its flight record and exportable
	// as Chrome trace-event JSON (/debug/trace?id=). Off — the default —
	// costs nothing: the untraced path is identical to previous releases.
	Trace bool

	// trace is the live trace adopted from the Pool (which opens it at
	// admission so the queue wait is spanned); nil for direct engine
	// queries, which open their own when Trace is set.
	trace *obs.Trace
}

// Tracer is a sink of finished queries: QueryDone receives each query's
// FlightRecord once, whatever its outcome. SlogTracer is a ready-made
// implementation.
type Tracer = obs.Tracer

// Phase identifies one instrumented algorithm stage (e.g. "ce.filter",
// "lbc.probe").
type Phase = obs.Phase

// The instrumented phases of the three algorithms.
const (
	PhaseCEFilter  = obs.PhaseCEFilter
	PhaseCERefine  = obs.PhaseCERefine
	PhaseEDCSeed   = obs.PhaseEDCSeed
	PhaseEDCWindow = obs.PhaseEDCWindow
	PhaseEDCVerify = obs.PhaseEDCVerify
	PhaseLBCNN     = obs.PhaseLBCNN
	PhaseLBCProbe  = obs.PhaseLBCProbe
)

// PhaseStat is the accumulated cost of one algorithm phase across a
// query: entry count, wall time, network pages faulted and nodes settled
// while the phase was active.
type PhaseStat = obs.PhaseStat

// SlogTracer is a Tracer writing finished queries to a structured logger,
// with an optional slow-query log (a Warn record carrying the full phase
// breakdown for queries over the threshold). Construct with
// NewSlogTracer; one instance is safe for any number of concurrent
// queries.
type SlogTracer = obs.SlogTracer

// NewSlogTracer builds a SlogTracer over log (nil means slog.Default()).
// Queries whose total time reaches slow are reported at Warn with their
// per-phase breakdown; slow <= 0 disables the slow-query log.
func NewSlogTracer(log *slog.Logger, slow time.Duration) *SlogTracer {
	return obs.NewSlogTracer(log, slow)
}

// SkylinePoint is one skyline object with its network distances to the
// query points and its full skyline vector (distances then attributes).
type SkylinePoint struct {
	Object    Object
	Distances []float64
	Vector    []float64
}

// Stats reports the work a query performed, matching the measurements in
// the paper's evaluation.
type Stats struct {
	// Candidates is |C|, the number of objects retrieved as candidates.
	Candidates int
	// NetworkPages counts network-side disk pages faulted in (adjacency
	// pages plus middle-layer pages).
	NetworkPages int64
	// NetworkGets counts logical network page requests; the buffer pools
	// served NetworkGets - NetworkPages of them without a fault.
	NetworkGets int64
	// RTreeNodes counts object R-tree node visits.
	RTreeNodes int64
	// NodesExpanded counts network node settlements.
	NodesExpanded int
	// DistanceComputations counts completed (query point, object) network
	// distance evaluations.
	DistanceComputations int
	// LandmarkWins and EuclidWins split the landmark (ALT) bound
	// evaluations the query performed by which lower bound was tighter:
	// the landmark triangle bound or the Euclidean bound. A* sessions
	// evaluate the landmark bound lazily — only for a frontier node whose
	// Euclidean key could be the session's minimum, and for nodes pushed
	// by an expansion — so the sum counts evaluations, not frontier nodes
	// times sessions. Both are zero when landmarks are disabled.
	LandmarkWins int
	EuclidWins   int
	// InitialPages counts the network pages faulted before the first
	// skyline point was determined (the I/O share of the initial response
	// time the paper reports).
	InitialPages int64
	// DistCacheHits and DistCacheMisses count this query's lookups in the
	// cross-query distance cache, one per searcher built (so hits+misses
	// is usually the number of query points). Both stay zero when the
	// engine has no cache or runs cold-cache (paper mode), where the cache
	// is bypassed.
	DistCacheHits   int
	DistCacheMisses int
	// WavefrontLeads and WavefrontShares count this query's single-flight
	// wavefront outcomes: searchers this query expanded as the leader of a
	// shared flight, and searchers it resumed from another query's
	// published frontier. Both stay zero unless the engine enables
	// ShareWavefronts and runs warm-cache.
	WavefrontLeads  int
	WavefrontShares int
	// Total is the query's response time under the engine's simulated
	// disk: measured CPU (wall) time plus IOTime, the modeled latency of
	// the pages faulted (pages live in memory, so wall time alone would
	// miss the I/O dominance the paper observes). Initial is the same
	// through the first skyline point. Subtract IOTime (InitialIOTime)
	// for the measured CPU share alone.
	Total, Initial time.Duration
	// IOTime and InitialIOTime are the simulated disk components of
	// Total and Initial: pages faulted x the modeled latency of one page
	// read, 150 µs (core.DefaultDiskLatency).
	IOTime, InitialIOTime time.Duration
	// Phases is the per-phase work breakdown (durations, pages, node
	// settlements per algorithm stage) in first-entered order. Populated
	// only when the query ran with CollectPhases, Trace, a Tracer or under
	// the flight recorder; nil otherwise.
	Phases []PhaseStat
}

// statsFromMetrics maps the internal cost counters onto the public Stats.
// Every exported core.Metrics field must be mapped here (derived fields
// via their transform); TestStatsParity enforces it by reflection.
func statsFromMetrics(m core.Metrics) Stats {
	return Stats{
		Candidates:           m.Candidates,
		NetworkPages:         m.NetworkPages,
		NetworkGets:          m.NetworkGets,
		RTreeNodes:           m.RTreeNodes,
		NodesExpanded:        m.NodesExpanded,
		DistanceComputations: m.DistanceComputations,
		LandmarkWins:         m.LandmarkWins,
		EuclidWins:           m.EuclidWins,
		InitialPages:         m.InitialPages,
		DistCacheHits:        m.DistCacheHits,
		DistCacheMisses:      m.DistCacheMisses,
		WavefrontLeads:       m.WavefrontLeads,
		WavefrontShares:      m.WavefrontShares,
		Total:                m.ResponseTime(),
		Initial:              m.InitialResponseTime(),
		IOTime:               m.IOTime,
		InitialIOTime:        m.InitialIOTime,
		Phases:               m.Phases,
	}
}

// Result is a query answer. Points appear in the order the algorithm
// determined them (LBC reports the source's nearest neighbor first).
type Result struct {
	Points []SkylinePoint
	Stats  Stats
	// TraceID is the query's causal trace ID ("t" + 8 hex digits), set
	// only when the query ran with Query.Trace; pass it to
	// Engine.TraceRecord or /debug/trace?id= for the span breakdown.
	TraceID string
}

// Skyline answers the query without cancellation; it is
// SkylineContext(context.Background(), q).
func (e *Engine) Skyline(q Query) (*Result, error) {
	return e.SkylineContext(context.Background(), q)
}

// SkylineContext answers the query under a context: cancellation or
// deadline expiry aborts the network expansion promptly (within a bounded
// number of node settlements) and returns ctx.Err(). An already-cancelled
// context returns immediately.
func (e *Engine) SkylineContext(ctx context.Context, q Query) (*Result, error) {
	res, rec, err := e.run(ctx, q, time.Time{})
	e.flight.Record(rec)
	return res, err
}

// begin opens a submission on the engine: the causal trace when Query.Trace
// asks for one and the Pool has not opened it already, the core query and
// options, and the start stamp. A query whose record has a consumer — the
// flight recorder or its Tracer — always collects the phase breakdown (the
// counters and results are identical with it on, TestTracerEquivalence)
// and is timed from began, or from now when the caller did not admit it
// earlier; otherwise began passes through untouched, so an untimed query
// never reads the clock.
func (e *Engine) begin(q *Query, began time.Time) (core.Query, core.Options, time.Time) {
	if q.trace == nil && q.Trace {
		q.trace = e.inflight.Begin(q.Algorithm.String(), len(q.Points))
	}
	q.trace.SetRole(obs.RoleRun)
	pts := make([]graph.Location, len(q.Points))
	for i, p := range q.Points {
		pts[i] = graph.Location{Edge: graph.EdgeID(p.Edge), Offset: p.Offset}
	}
	opts := core.Options{
		ColdCache:     !e.cfg.WarmCache,
		LBCAlternate:  q.Alternate,
		LBCSource:     q.Source,
		CollectPhases: q.CollectPhases,
		Trace:         q.trace,
	}
	if e.flight != nil || q.Tracer != nil {
		opts.CollectPhases = true
		if began.IsZero() {
			began = time.Now()
		}
	}
	return core.Query{Points: pts, UseAttrs: q.UseAttrs}, opts, began
}

// run answers q and returns, next to the answer, the record of how the
// submission ended; the caller hands it to its consumers.
func (e *Engine) run(ctx context.Context, q Query, began time.Time) (*Result, obs.FlightRecord, error) {
	cq, opts, began := e.begin(&q, began)
	res, err := core.Run(ctx, e.env, cq, q.Algorithm.core(), opts)
	// A failed query still returns the metrics of the work performed
	// before the abort, unless it never reached an algorithm (validation,
	// an expired context); then the record accounts the wall time the
	// caller saw.
	m := core.Metrics{Total: since(began)}
	if res != nil {
		m = res.Metrics
	}
	rec := finalize(e.inflight, q, m, began, err, false)
	if err != nil {
		return nil, rec, err
	}
	out := &Result{
		Points:  make([]SkylinePoint, len(res.Skyline)),
		Stats:   statsFromMetrics(res.Metrics),
		TraceID: q.trace.ID().String(),
	}
	for i, p := range res.Skyline {
		out.Points[i] = SkylinePoint{
			Object:    e.objs[p.Object.ID],
			Distances: p.Dists,
			Vector:    p.Vec,
		}
	}
	return out, rec, nil
}
