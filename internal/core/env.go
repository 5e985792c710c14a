// Package core implements the paper's three multi-source network skyline
// algorithms — CE (Collaborative Expansion), EDC (Euclidean Distance
// Constraint) and LBC (Lower-Bound Constraint) — over the disk-resident
// road network substrate.
//
// All three return the same skyline (they are exact algorithms); they
// differ in how much of the network they touch, which the Metrics expose:
// candidate counts, network disk pages, and initial/total response times,
// matching the measurements of paper Section 6.
package core

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"roadskyline/internal/diskgraph"
	"roadskyline/internal/distcache"
	"roadskyline/internal/geom"
	"roadskyline/internal/graph"
	"roadskyline/internal/landmark"
	"roadskyline/internal/middlelayer"
	"roadskyline/internal/rtree"
	"roadskyline/internal/slab"
	"roadskyline/internal/sp"
	"roadskyline/internal/storage"
)

// Env bundles the query-ready representation of one road network and one
// object dataset: the in-memory graph (edge table and coordinates), the
// disk-resident adjacency store, the middle layer, and the object R-tree.
// An Env is built once and serves many queries; it is not safe for
// concurrent queries (the buffer pools and counters are shared).
type Env struct {
	G       *graph.Graph
	Objects []graph.Object
	Store   *diskgraph.Store
	Layer   *middlelayer.Layer
	ObjTree *rtree.Tree
	// Landmarks is the ALT lower-bound table (nil when disabled). It is
	// immutable after NewEnv and shared across clones.
	Landmarks *landmark.Table
	// DistCache is the cross-query store of shortest-path wavefronts, at
	// rest and, with ShareWavefronts, in flight (nil when both are off).
	// Like the landmark table it is shared across clones — the store is
	// internally synchronized and its states immutable, so a pool's workers
	// feed, consult and coalesce through one store.
	DistCache *distcache.Cache

	// scratch pools sp.Scratch instances (the dense epoch-stamped search
	// state) across queries. The pointer is shared by clones: scratches are
	// claimed exclusively per searcher, so pool workers serving concurrent
	// queries draw from — and warm — one process-wide pool.
	scratch *sync.Pool

	numAttrs    int
	bufferBytes int
	diskLatency time.Duration
	backend     storage.Backend
	// closers releases the root env's disk resources (page files, slab
	// mappings). Clones share them: call Close once, on any clone, after
	// every clone is idle.
	closers []func() error
}

// EnvConfig controls Env construction.
type EnvConfig struct {
	// BufferBytes sizes each LRU buffer pool (disk graph, middle-layer
	// index, middle-layer records). Defaults to storage.DefaultBufferBytes
	// (1 MB), the paper's setting.
	BufferBytes int
	// Order is the on-disk clustering of adjacency lists. Defaults to
	// Hilbert clustering (paper Section 6.1).
	Order diskgraph.Order
	// RTreeFanout is the object R-tree fanout. NewEnv defaults it to
	// rtree.DefaultFanout; OpenEnv takes zero as "what the directory was
	// packed with" and refuses any other value that disagrees with it
	// (ErrIncompatible) — the leaf order on disk is a function of the fanout.
	RTreeFanout int
	// Dir, when non-empty, stores the page files (adjacency, middle-layer
	// index and records) as real files in that directory instead of in
	// memory, together with one network slab holding everything else — the
	// graph, the objects, the adjacency directory, the scalars the page
	// files reopen with, and the landmark table, R-tree leaf order and edge
	// keys: NewEnv builds the directory — every structure computed exactly
	// once — and then reopens it read-only through Backend, and OpenEnv
	// serves a previously built directory directly, computing none of them
	// again.
	Dir string
	// Backend selects how the files under Dir are served after the build:
	// storage.BackendFile (the default when Dir is set) reads pages through
	// ordinary file reads, storage.BackendMmap memory-maps every file —
	// pages and slabs are handed out as mapping slices, so a network larger
	// than RAM never lands on the heap — falling back to BackendFile where
	// mapping fails. Ignored when Dir is empty (pages live in MemFiles).
	Backend storage.Backend
	// DiskLatency is the simulated cost of one physical page read, charged
	// on top of CPU time in Metrics.ResponseTime. Pages live in memory, so
	// measured wall time alone would miss the I/O dominance the paper
	// observes ("I/O is the overwhelming factor"); the default models a
	// commodity disk reading 4 KB pages with readahead (150us per fault).
	DiskLatency time.Duration
	// Landmarks is the number of ALT landmark nodes precomputed at build
	// time to tighten the A* heuristic beyond the Euclidean bound. Under
	// NewEnv zero means DefaultLandmarks and a negative value builds no
	// table (queries fall back to the pure Euclidean heuristic, the paper's
	// setup). OpenEnv never builds one: zero means the table the directory
	// holds (none, if it was built without), a negative value leaves it
	// unread, and a positive value other than the count the directory was
	// built for is refused (ErrIncompatible).
	Landmarks int
	// DistCache sizes the cross-query wavefront cache. The zero value
	// (Entries 0) disables it, keeping the paper's recompute-everything
	// behavior. The cache is only consulted by warm-cache queries: under
	// Options.ColdCache every query must start from an empty buffer pool,
	// and reusing a wavefront would skip the page faults the paper's
	// figures measure.
	DistCache distcache.Config
	// ShareWavefronts makes the wavefront store coalesce concurrent
	// searchers: queries in flight at the same moment with the same (kind,
	// heuristic flavor, source) expand one wavefront and share its final
	// snapshot, whether or not DistCache keeps anything at rest. Like the
	// at-rest half it only serves warm-cache queries — under
	// Options.ColdCache every searcher must pay its own page faults. Off by
	// default so single-engine counters stay bit-identical to prior
	// behavior.
	ShareWavefronts bool
}

// DefaultLandmarks is the landmark count used when EnvConfig.Landmarks is
// zero.
const DefaultLandmarks = landmark.DefaultK

// DefaultDiskLatency is the default simulated cost per page fault.
const DefaultDiskLatency = 150 * time.Microsecond

// ErrCorrupt is wrapped by every error OpenEnv returns because the bytes of
// a network directory contradict themselves or each other: a truncated or
// overwritten file, a failed checksum, an index outside the range another
// file fixes.
var ErrCorrupt = storage.ErrCorrupt

// ErrIncompatible is wrapped by the errors OpenEnv returns for a directory
// that is intact but not what was asked for: a directory format or
// key-formula version this build does not read (directories are build
// artifacts — rebuild it), or an explicit EnvConfig.Landmarks or
// RTreeFanout other than the directory's. Nothing is ever rebuilt silently
// instead.
var ErrIncompatible = errors.New("incompatible network directory")

// Names of the files a disk-backed environment keeps in its directory: the
// three page files and the network slab.
const (
	fileAdjPages  = "adjacency.pages"
	fileTreePages = "middlelayer.index.pages"
	fileRecPages  = "middlelayer.records.pages"
	fileSlab      = "network.slab"
)

func applyEnvDefaults(cfg *EnvConfig) {
	if cfg.BufferBytes <= 0 {
		cfg.BufferBytes = storage.DefaultBufferBytes
	}
	if cfg.DiskLatency <= 0 {
		cfg.DiskLatency = DefaultDiskLatency
	}
}

// edgeKeys returns the middle layer's B+-tree key of every edge: the
// Hilbert value of the edge's midpoint (id in the low bits keeps keys
// unique), so a wavefront's edge probes land on few index/record pages,
// matching the spatial clustering of the adjacency lists. The table is
// computed once per network — a directory keeps it in its slab, and
// OpenEnv reads back the values Build used (edgeKeyVersion names the
// formula).
func edgeKeys(g *graph.Graph) []int64 {
	bounds := g.Bounds()
	keys := make([]int64, g.NumEdges())
	for e := range keys {
		ed := g.Edge(graph.EdgeID(e))
		mid := g.NodePoint(ed.U).Lerp(g.NodePoint(ed.V), 0.5)
		keys[e] = int64(geom.HilbertKey(mid, bounds)<<21) | int64(e)
	}
	return keys
}

func validateObjects(g *graph.Graph, objects []graph.Object) (numAttrs int, err error) {
	numAttrs = -1
	for i, o := range objects {
		if o.ID != graph.ObjectID(i) {
			return 0, fmt.Errorf("core: object at index %d has id %d; ids must be dense and equal to the slice index", i, o.ID)
		}
		if err := g.ValidateLocation(o.Loc); err != nil {
			return 0, fmt.Errorf("core: object %d: %w", o.ID, err)
		}
		if numAttrs == -1 {
			numAttrs = len(o.Attrs)
		} else if len(o.Attrs) != numAttrs {
			return 0, fmt.Errorf("core: object %d has %d attributes, others have %d", o.ID, len(o.Attrs), numAttrs)
		}
	}
	if numAttrs == -1 {
		numAttrs = 0
	}
	return numAttrs, nil
}

// newEnvFrom assembles an Env around structures its caller built (NewEnv) or
// mapped (OpenEnv), adding what is per-process: caches and the scratch pool.
func newEnvFrom(g *graph.Graph, objects []graph.Object, store *diskgraph.Store, layer *middlelayer.Layer,
	objTree *rtree.Tree, landmarks *landmark.Table,
	cfg EnvConfig, numAttrs int, backend storage.Backend, closers []func() error) *Env {
	wavefronts := distcache.New(cfg.DistCache)
	if cfg.ShareWavefronts {
		wavefronts = distcache.NewShared(cfg.DistCache)
	}
	return &Env{
		G:           g,
		Objects:     objects,
		Store:       store,
		Layer:       layer,
		ObjTree:     objTree,
		Landmarks:   landmarks,
		DistCache:   wavefronts,
		scratch:     &sync.Pool{New: func() any { return sp.NewScratch() }},
		numAttrs:    numAttrs,
		bufferBytes: cfg.BufferBytes,
		diskLatency: cfg.DiskLatency,
		backend:     backend,
		closers:     closers,
	}
}

// NewEnv builds the disk layout, middle layer and object index for a graph
// and object set. Every object must have the same number of attributes and
// a valid location; objects and query points must lie on edges of g.
//
// With cfg.Dir set, NewEnv writes the full network directory (page files
// and network slab) and then reopens it read-only through cfg.Backend — the
// environment it returns is exactly what OpenEnv(cfg.Dir, cfg) would
// produce, and the reopen computes nothing the build already did.
func NewEnv(g *graph.Graph, objects []graph.Object, cfg EnvConfig) (*Env, error) {
	applyEnvDefaults(&cfg)
	if cfg.RTreeFanout <= 0 {
		cfg.RTreeFanout = rtree.DefaultFanout
	}
	if cfg.Landmarks == 0 {
		cfg.Landmarks = DefaultLandmarks
	}
	numAttrs, err := validateObjects(g, objects)
	if err != nil {
		return nil, err
	}
	if cfg.Dir != "" {
		if err := buildDir(g, objects, numAttrs, cfg); err != nil {
			return nil, err
		}
		return OpenEnv(cfg.Dir, cfg)
	}
	graphFile := storage.NewMemFile()
	store, err := diskgraph.Build(g, graphFile, cfg.BufferBytes, cfg.Order)
	if err != nil {
		return nil, fmt.Errorf("core: building disk graph: %w", err)
	}
	layer, err := middlelayer.Build(objects, storage.NewMemFile(), storage.NewMemFile(), cfg.BufferBytes, edgeKeys(g))
	if err != nil {
		return nil, fmt.Errorf("core: building middle layer: %w", err)
	}
	objTree := rtree.BulkLoad(objectEntries(g, objects), cfg.RTreeFanout)
	// landmark.Build returns nil for a count below one.
	return newEnvFrom(g, objects, store, layer, objTree, landmark.Build(g, cfg.Landmarks),
		cfg, numAttrs, storage.BackendMem, nil), nil
}

// buildDir materializes the complete network directory under cfg.Dir: the
// three page files and the network slab. The landmark table and the R-tree
// leaf order depend only on g and objects, so they are computed in
// goroutines of their own while this one writes the page files — the
// landmark Dijkstras take about as long as everything else together. The
// old slab goes first, and the new one is renamed into place last, after it
// and the page files are synced: a build that fails or is killed leaves a
// directory OpenEnv refuses, never metadata over pages it does not
// describe. Every file is closed before returning; serving happens through
// a read-only reopen.
func buildDir(g *graph.Graph, objects []graph.Object, numAttrs int, cfg EnvConfig) (err error) {
	slabPath := filepath.Join(cfg.Dir, fileSlab)
	if err := os.Remove(slabPath); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("core: %w", err)
	}
	d := derived{fanout: cfg.RTreeFanout, landmarks: max(cfg.Landmarks, 0)}
	var side sync.WaitGroup
	defer side.Wait() // also on the error returns: nothing outlives the call
	side.Add(2)
	go func() {
		defer side.Done()
		d.table = landmark.Build(g, d.landmarks)
	}()
	go func() {
		defer side.Done()
		entries := objectEntries(g, objects)
		rtree.SortSTR(entries, d.fanout)
		d.leafOrder = make([]int32, len(entries))
		for i, e := range entries {
			d.leafOrder[i] = e.ID
		}
	}()

	var files []*storage.OSFile
	defer func() {
		for _, f := range files {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
	}()
	newFile := func(name string) (*storage.OSFile, error) {
		f, err := storage.CreateOSFile(filepath.Join(cfg.Dir, name))
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		files = append(files, f)
		return f, nil
	}
	graphFile, err := newFile(fileAdjPages)
	if err != nil {
		return err
	}
	treeFile, err := newFile(fileTreePages)
	if err != nil {
		return err
	}
	recFile, err := newFile(fileRecPages)
	if err != nil {
		return err
	}
	store, err := diskgraph.Build(g, graphFile, cfg.BufferBytes, cfg.Order)
	if err != nil {
		return fmt.Errorf("core: building disk graph: %w", err)
	}
	d.keys = edgeKeys(g)
	layer, err := middlelayer.Build(objects, treeFile, recFile, cfg.BufferBytes, d.keys)
	if err != nil {
		return fmt.Errorf("core: building middle layer: %w", err)
	}
	// What the side goroutines do not compute goes into the slab, and the
	// slab and the page files are synced, while they run; their sections
	// follow, and Commit puts the header on and renames the slab into place.
	w, err := slab.Create(slabPath, len(sectionNames))
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	defer w.Abort()
	base, err := baseSections(g, objects, numAttrs, store, layer.Meta().Tree, d.keys)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	for _, s := range base {
		if err := w.Add(s); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	for _, f := range files {
		if err := f.Sync(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	if err := w.Sync(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	side.Wait()
	for _, s := range derivedSections(d, g.NumNodes()) {
		if err := w.Add(s); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	if err := w.Commit(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// OpenEnv serves a network directory previously written by NewEnv (or by a
// build tool calling it). Nothing is rebuilt: the network slab is
// memory-mapped — the graph arrays, attribute matrix, landmark distances
// and edge keys aliased with zero heap copies on matching hosts — the page
// files open through cfg.Backend, and what is allocated is the object
// table, the adjacency directory, the R-tree's nodes (packed from the
// persisted leaf order, no entry sorted) and per-process state. With
// BackendMmap a network much larger than RAM opens in milliseconds and is
// paged in lazily by the OS.
//
// Every section of the slab is checked before anything is served from it —
// its checksum, its size, and every stored index against the range the
// other sections and the page files fix — so a damaged directory is an
// error wrapping ErrCorrupt here, never a fault in a query; a directory
// without a slab (a build that did not finish) is refused too. A directory
// of another format version (an earlier one keeps a manifest.json), or one
// that cfg.Landmarks or cfg.RTreeFanout explicitly disagree with, is an
// error wrapping ErrIncompatible. The remaining fields of cfg (buffer size,
// latency, caches) apply as in NewEnv; cfg.Dir itself is ignored in favor
// of dir.
func OpenEnv(dir string, cfg EnvConfig) (*Env, error) {
	applyEnvDefaults(&cfg)
	f, err := slab.Open(filepath.Join(dir, fileSlab))
	if errors.Is(err, fs.ErrNotExist) {
		if _, serr := os.Stat(filepath.Join(dir, "manifest.json")); serr == nil {
			return nil, fmt.Errorf("core: %w: %s holds a directory of an earlier format (a manifest.json, no %s); rebuild it", ErrIncompatible, dir, fileSlab)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	closers := []func() error{f.Close}
	fail := func(err error) (*Env, error) {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
		return nil, err
	}
	want := cfg.Backend
	if want == storage.BackendMem {
		want = storage.BackendFile
	}
	// The env's reported backend is mmap only when every page file mapped;
	// a partial fallback is reported as file so counters stay explainable.
	actual := storage.BackendMmap
	var pages [3]storage.PageFile
	for i, name := range []string{fileAdjPages, fileTreePages, fileRecPages} {
		pf, got, err := storage.Open(filepath.Join(dir, name), want)
		if err != nil {
			return fail(fmt.Errorf("core: %w", err))
		}
		if got != storage.BackendMmap {
			actual = storage.BackendFile
		}
		closers = append(closers, pf.Close)
		pages[i] = pf
	}
	env, err := decodeEnv(f, pages[0], pages[1], pages[2], cfg)
	if err != nil {
		return fail(err)
	}
	env.backend, env.closers = actual, closers
	return env, nil
}

// Backend reports how the environment's page files are served:
// storage.BackendMem for a fully in-memory build, BackendFile or
// BackendMmap for a disk directory (mmap only when every file mapped).
func (e *Env) Backend() storage.Backend { return e.backend }

// Close releases the disk resources backing the environment (page files
// and slab mappings). The resources are shared with every clone: call
// Close once, after all clones are idle, and use no clone afterward. Close
// on an in-memory environment is a no-op.
func (e *Env) Close() error {
	var first error
	for i := len(e.closers) - 1; i >= 0; i-- {
		if err := e.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	e.closers = nil
	return first
}

// Clone returns an independent query environment over the same immutable
// data: the graph, object table, R-tree structure, landmark table, distance
// cache, in-flight wavefront table and page files are shared; buffer pools
// and every statistics counter
// (network page pools and the R-tree node-visit counter) are per-clone.
// Clones may serve queries concurrently: the landmark table is read-only
// after construction and the distance cache synchronizes internally, so the
// struct-copied pointers need no further synchronization.
func (e *Env) Clone() *Env {
	c := *e
	c.Store = e.Store.Clone(e.bufferBytes)
	c.Layer = e.Layer.Clone(e.bufferBytes)
	c.ObjTree = e.ObjTree.Clone()
	return &c
}

// NumAttrs returns the number of static attributes carried by every object.
func (e *Env) NumAttrs() int { return e.numAttrs }

// HeuristicSource returns the landmark heuristic source the A* searchers
// should use under opts, or nil when the table is absent or the options
// disable it (the DisableLandmarks ablation, or DisableAStarHeuristic,
// which zeroes the heuristic entirely).
func (e *Env) HeuristicSource(opts Options) sp.HeuristicSource {
	if e.Landmarks == nil || opts.DisableLandmarks || opts.DisableAStarHeuristic {
		return nil
	}
	return e.Landmarks
}

// Neighbors implements sp.Net via the disk-resident adjacency store.
func (e *Env) Neighbors(id graph.NodeID, buf []diskgraph.Neighbor) ([]diskgraph.Neighbor, error) {
	return e.Store.Neighbors(id, buf)
}

// NodePoint implements sp.Net via the disk-resident adjacency store.
func (e *Env) NodePoint(id graph.NodeID) (geom.Point, error) {
	return e.Store.NodePoint(id)
}

// ObjectsOn implements sp.Net via the middle layer.
func (e *Env) ObjectsOn(ed graph.EdgeID, buf []middlelayer.ObjRef) ([]middlelayer.ObjRef, error) {
	return e.Layer.ObjectsOn(ed, e.G.Edge(ed).Length, buf)
}

// Edge implements sp.Net from the in-memory edge table.
func (e *Env) Edge(ed graph.EdgeID) graph.Edge { return e.G.Edge(ed) }

// NumNodes implements sp.Net from the in-memory graph.
func (e *Env) NumNodes() int { return e.G.NumNodes() }

// NumObjects implements sp.Net; object ids are dense slice indices.
func (e *Env) NumObjects() int { return len(e.Objects) }

// AcquireScratch takes a warm searcher scratch from the shared pool. Every
// concurrently live searcher needs its own scratch; return it with
// ReleaseScratch once the searcher is done.
func (e *Env) AcquireScratch() *sp.Scratch { return e.scratch.Get().(*sp.Scratch) }

// ReleaseScratch recycles a scratch taken by AcquireScratch. The searcher
// built on it must not be used afterward.
func (e *Env) ReleaseScratch(sc *sp.Scratch) {
	if sc != nil {
		e.scratch.Put(sc)
	}
}

// ResetIO zeroes every I/O counter (buffer pools and R-tree node visits).
func (e *Env) ResetIO() {
	e.Store.Pool().ResetStats()
	e.Layer.ResetStats()
	e.ObjTree.ResetNodeAccesses()
}

// InvalidateCaches drops every cached page so the next query runs cold.
func (e *Env) InvalidateCaches() {
	e.Store.Pool().Invalidate()
	e.Layer.InvalidateCaches()
}

// NetworkIO returns the combined network-side I/O counters (disk graph plus
// middle layer) accumulated since the last ResetIO. Its Misses field is the
// paper's "network disk pages accessed" metric.
func (e *Env) NetworkIO() storage.Stats {
	a, b := e.Store.Pool().Stats(), e.Layer.Stats()
	return storage.Stats{Gets: a.Gets + b.Gets, Misses: a.Misses + b.Misses}
}

// pagesFaulted is the running network-page fault count since the last
// ResetIO — the phase probes and initial-response snapshots sample it at
// their boundaries.
func (e *Env) pagesFaulted() int64 { return e.NetworkIO().Misses }

// vectorDims returns the skyline vector length for a query with n points.
func (e *Env) vectorDims(n int, useAttrs bool) int {
	if useAttrs {
		return n + e.numAttrs
	}
	return n
}

// fillAttrs copies object attributes into vec[n:] when useAttrs is set.
func (e *Env) fillAttrs(vec []float64, n int, id graph.ObjectID, useAttrs bool) {
	if !useAttrs {
		return
	}
	copy(vec[n:], e.Objects[id].Attrs)
}
