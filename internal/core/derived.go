package core

import (
	"encoding/binary"
	"fmt"

	"roadskyline/internal/geom"
	"roadskyline/internal/graph"
	"roadskyline/internal/landmark"
	"roadskyline/internal/rtree"
	"roadskyline/internal/slab"
	"roadskyline/internal/storage"
)

// The sections of derived.slab: the three structures that are functions of
// the graph and the objects alone, computed once by buildDir and mapped
// back by OpenEnv, each payload one flat typed array. Params, per section:
//
//	tagEdgeKeys       key-formula version, number of keys, 0
//	                  payload: one i64 per edge
//	tagLeafOrder      R-tree fanout, number of ids, 0
//	                  payload: one i32 object id per entry, in STR leaf order
//	tagLandmarkNodes  landmarks asked for, landmarks selected (K), finite (0/1)
//	                  payload: K i32 landmark node ids
//	tagLandmarkDists  K, number of nodes, 0
//	                  payload: the node-major table, NumNodes x K f64
//
// The two landmark sections come together or not at all.
const (
	tagEdgeKeys uint32 = iota + 1
	tagLeafOrder
	tagLandmarkNodes
	tagLandmarkDists
)

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

// derived is what buildDir writes to derived.slab.
type derived struct {
	keys      []int64
	fanout    int
	leafOrder []int32         // object ids in rtree.SortSTR order
	landmarks int             // landmarks asked for; 0 = none
	table     *landmark.Table // nil when landmarks is 0 or the graph is empty
}

func writeDerived(path string, d derived) error {
	sections := []slab.Section{
		{Tag: tagEdgeKeys, Params: [3]uint64{edgeKeyVersion, uint64(len(d.keys))}, Data: slab.Bytes(d.keys)},
		{Tag: tagLeafOrder, Params: [3]uint64{uint64(d.fanout), uint64(len(d.leafOrder))}, Data: slab.Bytes(d.leafOrder)},
	}
	if t := d.table; t != nil {
		finite := uint64(0)
		if t.Finite() {
			finite = 1
		}
		k, n := uint64(t.K()), uint64(len(t.Flat())/t.K())
		sections = append(sections,
			slab.Section{Tag: tagLandmarkNodes, Params: [3]uint64{uint64(d.landmarks), k, finite}, Data: slab.Bytes(t.Nodes())},
			slab.Section{Tag: tagLandmarkDists, Params: [3]uint64{k, n}, Data: slab.Bytes(t.Flat())})
	}
	return slab.Write(path, sections)
}

// section returns f's section tag after checking its checksum.
func section(f *slab.File, tag uint32, what string) (*slab.Section, error) {
	s := f.Section(tag)
	if s == nil {
		return nil, fmt.Errorf("core: %w: derived slab has no %s section", storage.ErrCorrupt, what)
	}
	return s, s.Verify()
}

// openEdgeKeys returns the middle layer's key table, aliasing f: one key per
// edge of g, written under the formula this build reads.
func openEdgeKeys(f *slab.File, g *graph.Graph) ([]int64, error) {
	s, err := section(f, tagEdgeKeys, "edge-key")
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
// BulkLoad built, with no entry sorted. It returns the fanout it was packed
// with.
func openObjTree(f *slab.File, g *graph.Graph, objects []graph.Object) (*rtree.Tree, int, error) {
	s, err := section(f, tagLeafOrder, "leaf-order")
	if err != nil {
		return nil, 0, err
	}
	fanout, n := s.Params[0], uint64(len(objects))
	if fanout == 0 || fanout > 1<<20 || s.Params[1] != n || uint64(len(s.Data)) != 4*n {
		return nil, 0, fmt.Errorf("core: %w: leaf order of %d ids in %d bytes at fanout %d for %d objects",
			storage.ErrCorrupt, s.Params[1], len(s.Data), fanout, n)
	}
	entries := make([]rtree.Entry, n)
	seen := make([]bool, n)
	for i := range entries {
		id := binary.LittleEndian.Uint32(s.Data[4*i:])
		if uint64(id) >= n || seen[id] {
			return nil, 0, fmt.Errorf("core: %w: leaf order entry %d names object %d of %d (out of range or twice)", storage.ErrCorrupt, i, id, n)
		}
		seen[id] = true
		entries[i] = rtree.Entry{Rect: geom.RectFromPoint(g.Point(objects[id].Loc)), ID: int32(id)}
	}
	return rtree.LoadSorted(entries, int(fanout)), int(fanout), nil
}

// openLandmarks returns the landmark table whose distances alias f, and the
// landmark count the directory was built for; (nil, 0) when it was built
// without (or over an empty graph, which has no table).
func openLandmarks(f *slab.File, g *graph.Graph) (*landmark.Table, int, error) {
	if f.Section(tagLandmarkNodes) == nil && f.Section(tagLandmarkDists) == nil {
		return nil, 0, nil
	}
	ids, err := section(f, tagLandmarkNodes, "landmark-node")
	if err != nil {
		return nil, 0, err
	}
	dists, err := section(f, tagLandmarkDists, "landmark-distance")
	if err != nil {
		return nil, 0, err
	}
	asked, k, n := ids.Params[0], ids.Params[1], uint64(g.NumNodes())
	// k <= n < 2^31 keeps 8*n*k far from overflow.
	if k == 0 || k > n || k > asked || asked > 1<<31 || ids.Params[2] > 1 || uint64(len(ids.Data)) != 4*k ||
		dists.Params[0] != k || dists.Params[1] != n || uint64(len(dists.Data)) != 8*n*k {
		return nil, 0, fmt.Errorf("core: %w: %d of %d landmarks in %d bytes, %d x %d distances in %d bytes, for %d nodes",
			storage.ErrCorrupt, k, asked, len(ids.Data), dists.Params[1], dists.Params[0], len(dists.Data), n)
	}
	nodes := make([]graph.NodeID, k)
	for i := range nodes {
		nodes[i] = graph.NodeID(int32(binary.LittleEndian.Uint32(ids.Data[4*i:])))
	}
	t, err := landmark.Load(g, nodes, slab.Words[float64](dists.Data), ids.Params[2] == 1)
	if err != nil {
		return nil, 0, fmt.Errorf("core: %w: %v", storage.ErrCorrupt, err)
	}
	return t, int(asked), nil
}
