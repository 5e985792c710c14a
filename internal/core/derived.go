package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"roadskyline/internal/bptree"
	"roadskyline/internal/diskgraph"
	"roadskyline/internal/geom"
	"roadskyline/internal/graph"
	"roadskyline/internal/landmark"
	"roadskyline/internal/middlelayer"
	"roadskyline/internal/rtree"
	"roadskyline/internal/slab"
	"roadskyline/internal/storage"
)

// The sections of network.slab, the one file of a network directory that is
// not a page file: what the page files are reopened with, the graph and the
// objects, and the structures derived from them that buildDir computes once
// and OpenEnv maps back, each payload one flat array. Params, per section
// (unnamed ones are 0):
//
//	tagManifest       directory format version
//	                  payload: the middle layer's B+-tree meta, 5 i64:
//	                  root, height, size, value size, pages
//	tagNodes, tagEdges, tagHalfedges, tagAdjOff
//	                  payload: the graph's CSR arrays (graph.Sections)
//	tagObjectLocs     payload: one location per object (graph.ObjectSections)
//	tagAttrs          attributes per object
//	                  payload: the attribute matrix, a row per object
//	tagAdjDirectory   payload: each node's adjacency record, page u32 and
//	                  offset u16 (diskgraph.Store.Directory)
//	tagEdgeKeys       key-formula version, number of keys
//	                  payload: one i64 per edge
//	tagLeafOrder      R-tree fanout, number of ids
//	                  payload: one i32 object id per entry, in STR leaf order
//	tagLandmarkNodes  landmarks asked for, landmarks selected (K), finite (0/1)
//	                  payload: K i32 landmark node ids
//	tagLandmarkDists  K, number of nodes
//	                  payload: the node-major table, NumNodes x K f64
//
// Every section is always present and every fact stored once. A directory
// without a landmark table (none asked for, or a graph without nodes) has
// K = 0 and both landmark payloads empty.
const (
	tagEdgeKeys uint32 = iota + 1
	tagLeafOrder
	tagLandmarkNodes
	tagLandmarkDists
	tagManifest
	tagNodes
	tagEdges
	tagHalfedges
	tagAdjOff
	tagObjectLocs
	tagAttrs
	tagAdjDirectory
)

// sectionNames names the sections in errors; it has one entry per section
// of a slab.
var sectionNames = map[uint32]string{
	tagEdgeKeys: "keys", tagLeafOrder: "leaforder", tagLandmarkNodes: "landmarknodes", tagLandmarkDists: "landmarkdists",
	tagManifest: "manifest", tagNodes: "nodes", tagEdges: "edges", tagHalfedges: "halfedges", tagAdjOff: "adjoff",
	tagObjectLocs: "objectlocs", tagAttrs: "attrs", tagAdjDirectory: "adjdirectory",
}

// formatVersion is the directory format tagManifest carries. Version 2 was
// the eight-file directory before the slab held everything; directories
// are build artifacts, so an older one is refused (ErrIncompatible, see
// OpenEnv), never migrated.
const formatVersion = 3

// edgeKeyVersion names the formula of edgeKeys. A directory's keys are read
// back, never recomputed, so a change of formula is a new version that old
// directories are refused under rather than silently served with.
const edgeKeyVersion = 1

// objectEntries returns the object R-tree's leaf records in object-id order.
func objectEntries(g *graph.Graph, objects []graph.Object) []rtree.Entry {
	entries := make([]rtree.Entry, len(objects))
	for i, o := range objects {
		entries[i] = rtree.Entry{Rect: geom.RectFromPoint(g.Point(o.Loc)), ID: int32(o.ID)}
	}
	return entries
}

// derived is what buildDir computes beside the page files.
type derived struct {
	keys      []int64
	fanout    int
	leafOrder []int32         // object ids in rtree.SortSTR order
	landmarks int             // landmarks asked for; 0 = none
	table     *landmark.Table // nil when landmarks is 0 or the graph is empty
}

// baseSections are the sections of a directory whose page files hold
// store's adjacency records and the middle layer described by tree: all but
// the ones the side goroutines of buildDir compute.
func baseSections(g *graph.Graph, objects []graph.Object, numAttrs int,
	store *diskgraph.Store, tree bptree.Meta, keys []int64) ([]slab.Section, error) {
	gs := g.Sections()
	locs, attrs, err := graph.ObjectSections(objects, numAttrs)
	if err != nil {
		return nil, err
	}
	meta := []int64{int64(tree.Root), int64(tree.Height), int64(tree.Size), int64(tree.ValSize), int64(tree.Pages)}
	return []slab.Section{
		{Tag: tagManifest, Params: [3]uint64{formatVersion}, Data: slab.Bytes(meta)},
		{Tag: tagNodes, Data: gs.Nodes},
		{Tag: tagEdges, Data: gs.Edges},
		{Tag: tagHalfedges, Data: gs.Halfedges},
		{Tag: tagAdjOff, Data: gs.AdjOff},
		{Tag: tagObjectLocs, Data: locs},
		{Tag: tagAttrs, Params: [3]uint64{uint64(numAttrs)}, Data: attrs},
		{Tag: tagAdjDirectory, Data: store.Directory()},
		{Tag: tagEdgeKeys, Params: [3]uint64{edgeKeyVersion, uint64(len(keys))}, Data: slab.Bytes(keys)},
	}, nil
}

// derivedSections are the leaf order and the landmark sections, for a
// graph of n nodes.
func derivedSections(d derived, n int) []slab.Section {
	var k, finite uint64
	var nodes, dists []byte
	if t := d.table; t != nil {
		k, nodes, dists = uint64(t.K()), slab.Bytes(t.Nodes()), slab.Bytes(t.Flat())
		if t.Finite() {
			finite = 1
		}
	}
	return []slab.Section{
		{Tag: tagLeafOrder, Params: [3]uint64{uint64(d.fanout), uint64(len(d.leafOrder))}, Data: slab.Bytes(d.leafOrder)},
		{Tag: tagLandmarkNodes, Params: [3]uint64{uint64(d.landmarks), k, finite}, Data: nodes},
		{Tag: tagLandmarkDists, Params: [3]uint64{k, uint64(n)}, Data: dists},
	}
}

// section returns f's section tag after checking its checksum.
func section(f *slab.File, tag uint32) (*slab.Section, error) {
	s := f.Section(tag)
	if s == nil {
		return nil, fmt.Errorf("core: %w: network slab has no %s section", storage.ErrCorrupt, sectionNames[tag])
	}
	return s, s.Verify()
}

// decodeEnv assembles an Env from an opened network slab and the three page
// files it describes, checking every section against its checksum and
// against the sections and files it indexes. Backend and closers are left
// to the caller.
func decodeEnv(f *slab.File, adjFile, treeFile, recFile storage.PageFile, cfg EnvConfig) (*Env, error) {
	tree, err := openManifest(f)
	if err != nil {
		return nil, err
	}
	if err := checkAsked(f, cfg); err != nil {
		return nil, err
	}
	g, err := openGraph(f)
	if err != nil {
		return nil, err
	}
	objects, numAttrs, err := openObjects(f, g)
	if err != nil {
		return nil, err
	}
	keys, err := openEdgeKeys(f, g)
	if err != nil {
		return nil, err
	}
	objTree, err := openObjTree(f, g, objects)
	if err != nil {
		return nil, err
	}
	var landmarks *landmark.Table
	if cfg.Landmarks >= 0 {
		if landmarks, err = openLandmarks(f, g); err != nil {
			return nil, err
		}
	}
	dir, err := section(f, tagAdjDirectory)
	if err != nil {
		return nil, err
	}
	store, err := diskgraph.Open(adjFile, cfg.BufferBytes, dir.Data, g.NumEdges())
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if store.NumNodes() != g.NumNodes() {
		return nil, fmt.Errorf("core: %w: adjacency directory lists %d nodes, the graph has %d", ErrCorrupt, store.NumNodes(), g.NumNodes())
	}
	layer, err := middlelayer.Open(treeFile, recFile, cfg.BufferBytes, middlelayer.Meta{Tree: tree, NumObjects: len(objects)}, keys)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return newEnvFrom(g, objects, store, layer, objTree, landmarks, cfg, numAttrs, storage.BackendMem, nil), nil
}

// openManifest checks the directory format version, then returns the
// B+-tree meta the middle layer's index is reopened with.
func openManifest(f *slab.File) (bptree.Meta, error) {
	s := f.Section(tagManifest)
	if s == nil {
		return bptree.Meta{}, fmt.Errorf("core: %w: network slab has no manifest section", ErrCorrupt)
	}
	if s.Params[0] != formatVersion {
		return bptree.Meta{}, fmt.Errorf("core: %w: directory format version %d, this build reads %d", ErrIncompatible, s.Params[0], formatVersion)
	}
	if err := s.Verify(); err != nil {
		return bptree.Meta{}, err
	}
	var w [5]int
	if len(s.Data) != 8*len(w) {
		return bptree.Meta{}, fmt.Errorf("core: %w: manifest of %d bytes", ErrCorrupt, len(s.Data))
	}
	for i := range w {
		v := binary.LittleEndian.Uint64(s.Data[8*i:])
		if v > math.MaxInt32 {
			return bptree.Meta{}, fmt.Errorf("core: %w: manifest word %d is %d", ErrCorrupt, i, v)
		}
		w[i] = int(v)
	}
	return bptree.Meta{Root: storage.PageID(w[0]), Height: w[1], Size: w[2], ValSize: w[3], Pages: w[4]}, nil
}

// checkAsked holds an explicit cfg.Landmarks or cfg.RTreeFanout to what the
// directory was built with, from the section parameters alone (the table
// checksum covers them). A missing section is left to its decoder.
func checkAsked(f *slab.File, cfg EnvConfig) error {
	if s := f.Section(tagLandmarkNodes); cfg.Landmarks > 0 && s != nil && s.Params[0] != uint64(cfg.Landmarks) {
		return fmt.Errorf("core: %w: %d landmarks asked for, directory built for %d", ErrIncompatible, cfg.Landmarks, s.Params[0])
	}
	if s := f.Section(tagLeafOrder); cfg.RTreeFanout > 0 && s != nil && s.Params[0] != uint64(cfg.RTreeFanout) {
		return fmt.Errorf("core: %w: R-tree fanout %d asked for, directory packed at %d", ErrIncompatible, cfg.RTreeFanout, s.Params[0])
	}
	return nil
}

// openGraph returns the graph whose arrays alias f (graph.FromSections).
func openGraph(f *slab.File) (*graph.Graph, error) {
	var data [4][]byte
	for i, tag := range []uint32{tagNodes, tagEdges, tagHalfedges, tagAdjOff} {
		s, err := section(f, tag)
		if err != nil {
			return nil, err
		}
		data[i] = s.Data
	}
	g, err := graph.FromSections(graph.Sections{Nodes: data[0], Edges: data[1], Halfedges: data[2], AdjOff: data[3]})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return g, nil
}

// openObjects returns the objects, their attribute rows aliasing f, and the
// attribute count; every location must lie on g.
func openObjects(f *slab.File, g *graph.Graph) ([]graph.Object, int, error) {
	locs, err := section(f, tagObjectLocs)
	if err != nil {
		return nil, 0, err
	}
	attrs, err := section(f, tagAttrs)
	if err != nil {
		return nil, 0, err
	}
	if attrs.Params[0] > 1<<20 {
		return nil, 0, fmt.Errorf("core: %w: %d attributes per object", ErrCorrupt, attrs.Params[0])
	}
	numAttrs := int(attrs.Params[0])
	objects, err := graph.ObjectsFromSections(locs.Data, attrs.Data, numAttrs)
	if err != nil {
		return nil, 0, fmt.Errorf("core: %w", err)
	}
	if _, err := validateObjects(g, objects); err != nil {
		return nil, 0, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return objects, numAttrs, nil
}

// openEdgeKeys returns the middle layer's key table, aliasing f: one key per
// edge of g, written under the formula this build reads.
func openEdgeKeys(f *slab.File, g *graph.Graph) ([]int64, error) {
	s, err := section(f, tagEdgeKeys)
	if err != nil {
		return nil, err
	}
	if s.Params[0] != edgeKeyVersion {
		return nil, fmt.Errorf("core: %w: edge keys of formula version %d, this build reads %d", ErrIncompatible, s.Params[0], edgeKeyVersion)
	}
	if n := uint64(g.NumEdges()); s.Params[1] != n || uint64(len(s.Data)) != 8*n {
		return nil, fmt.Errorf("core: %w: %d edge keys in %d bytes for %d edges", storage.ErrCorrupt, s.Params[1], len(s.Data), n)
	}
	return slab.Words[int64](s.Data), nil
}

// openObjTree rebuilds the object R-tree from its persisted leaf order: the
// ids must be a permutation of the object ids, and then the tree is the one
// BulkLoad built, with no entry sorted.
func openObjTree(f *slab.File, g *graph.Graph, objects []graph.Object) (*rtree.Tree, error) {
	s, err := section(f, tagLeafOrder)
	if err != nil {
		return nil, err
	}
	fanout, n := s.Params[0], uint64(len(objects))
	if fanout == 0 || fanout > 1<<20 || s.Params[1] != n || uint64(len(s.Data)) != 4*n {
		return nil, fmt.Errorf("core: %w: leaf order of %d ids in %d bytes at fanout %d for %d objects",
			storage.ErrCorrupt, s.Params[1], len(s.Data), fanout, n)
	}
	entries := make([]rtree.Entry, n)
	seen := make([]bool, n)
	for i := range entries {
		id := binary.LittleEndian.Uint32(s.Data[4*i:])
		if uint64(id) >= n || seen[id] {
			return nil, fmt.Errorf("core: %w: leaf order entry %d names object %d of %d (out of range or twice)", storage.ErrCorrupt, i, id, n)
		}
		seen[id] = true
		entries[i] = rtree.Entry{Rect: geom.RectFromPoint(g.Point(objects[id].Loc)), ID: int32(id)}
	}
	return rtree.LoadSorted(entries, int(fanout)), nil
}

// openLandmarks returns the landmark table whose distances alias f; nil
// when the directory was built without (or over an empty graph, which has
// no table).
func openLandmarks(f *slab.File, g *graph.Graph) (*landmark.Table, error) {
	ids, err := section(f, tagLandmarkNodes)
	if err != nil {
		return nil, err
	}
	dists, err := section(f, tagLandmarkDists)
	if err != nil {
		return nil, err
	}
	asked, k, n := ids.Params[0], ids.Params[1], uint64(g.NumNodes())
	// k <= n < 2^31 keeps 8*n*k far from overflow. Only a build that asked
	// for no landmarks, or had no nodes to choose from, has none.
	if k == 0 && asked != 0 && n != 0 || k > n || k > asked || asked > 1<<31 || ids.Params[2] > 1 || uint64(len(ids.Data)) != 4*k ||
		dists.Params[0] != k || dists.Params[1] != n || uint64(len(dists.Data)) != 8*n*k {
		return nil, fmt.Errorf("core: %w: %d of %d landmarks in %d bytes, %d x %d distances in %d bytes, for %d nodes",
			storage.ErrCorrupt, k, asked, len(ids.Data), dists.Params[1], dists.Params[0], len(dists.Data), n)
	}
	if k == 0 {
		return nil, nil
	}
	flat := slab.Words[float64](dists.Data)
	// Selection stops short of what was asked for only once every node lies
	// on a landmark (landmark.Build).
	if k < min(asked, n) {
		for v := range n {
			if !slices.Contains(flat[v*k:(v+1)*k], 0) {
				return nil, fmt.Errorf("core: %w: %d of %d landmarks, but node %d lies on none", storage.ErrCorrupt, k, asked, v)
			}
		}
	}
	nodes := make([]graph.NodeID, k)
	for i := range nodes {
		nodes[i] = graph.NodeID(int32(binary.LittleEndian.Uint32(ids.Data[4*i:])))
	}
	t, err := landmark.Load(g, nodes, flat, ids.Params[2] == 1)
	if err != nil {
		return nil, fmt.Errorf("core: %w: %v", storage.ErrCorrupt, err)
	}
	return t, nil
}
