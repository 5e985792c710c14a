// Package middlelayer implements the paper's middle layer (Section 3): a
// partial materialization of the mapping between the road network and the
// data object set. For every object p on edge e = (v, v'), the layer stores
// e's id with p's id and the pre-computed distances d(v, p) and d(v', p)
// (we store the offset from v; the other distance is length - offset). The
// layer is indexed by a B+-tree on edge ids, so a shortest-path wavefront
// can check each visited edge for objects with a couple of buffered reads.
// The tree's key for an edge comes from a per-edge table handed to Build and
// Open (nil = the edge id itself), so a probe spends its time on pages, not
// on computing keys.
package middlelayer

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"roadskyline/internal/bptree"
	"roadskyline/internal/graph"
	"roadskyline/internal/storage"
)

// ObjRef is an object found on an edge: its id and the distance from the
// edge's U endpoint.
type ObjRef struct {
	ID     graph.ObjectID
	Offset float64
}

// Record file layout: packed 12-byte entries (objID int32, offset float64),
// grouped by edge, edges in ascending id order. The B+-tree maps edge id to
// (page int32, slot int32, count int32) of the group's first entry.
const (
	recSize     = 12
	recsPerPage = storage.PageSize / recSize
	treeValSize = 12
)

// Layer is a read-only object-to-edge mapping.
type Layer struct {
	tree    *bptree.Tree
	recFile storage.PageFile
	recs    *storage.BufferPool
	keys    []int64 // B+-tree key of each edge, nil = the edge id; shared by clones
	numObjs int
}

// keyOf returns edge e's B+-tree key under the table keys.
func keyOf(keys []int64, e graph.EdgeID) int64 {
	if keys == nil {
		return int64(e)
	}
	return keys[e]
}

// Build materializes the middle layer for the given objects. treeFile holds
// the B+-tree pages, recFile the packed records; both are typically fresh
// MemFiles. bufferBytes sizes each of the two pools.
//
// keys[e] is the B+-tree key of edge e: one entry per edge of the network,
// all distinct; nil means the edge id itself. The layer keeps the slice (and
// shares it with its clones) and must not see it change afterwards.
// Shortest-path wavefronts probe the layer edge by edge, so a spatially
// coherent key (e.g. the Hilbert value of the edge midpoint prefixed to the
// id) clusters the probes of one wavefront onto few index and record pages,
// exactly like the Hilbert clustering of the adjacency lists.
func Build(objects []graph.Object, treeFile, recFile storage.PageFile, bufferBytes int, keys []int64) (*Layer, error) {
	byEdge := make([]graph.Object, len(objects))
	copy(byEdge, objects)
	sort.Slice(byEdge, func(i, j int) bool {
		ki, kj := keyOf(keys, byEdge[i].Loc.Edge), keyOf(keys, byEdge[j].Loc.Edge)
		if ki != kj {
			return ki < kj
		}
		return byEdge[i].Loc.Offset < byEdge[j].Loc.Offset
	})

	// Pack records and collect one B+-tree entry per distinct edge.
	var treeKeys []int64
	var vals [][]byte
	page := make([]byte, storage.PageSize)
	slot := 0
	numPages := 0
	flush := func() error {
		clear(page[slot*recSize:])
		if _, err := recFile.AppendPage(page); err != nil {
			return err
		}
		numPages++
		slot = 0
		return nil
	}
	for i := 0; i < len(byEdge); {
		e := byEdge[i].Loc.Edge
		j := i
		for j < len(byEdge) && byEdge[j].Loc.Edge == e {
			j++
		}
		val := make([]byte, treeValSize)
		binary.LittleEndian.PutUint32(val[0:], uint32(numPages))
		binary.LittleEndian.PutUint32(val[4:], uint32(slot))
		binary.LittleEndian.PutUint32(val[8:], uint32(j-i))
		treeKeys = append(treeKeys, keyOf(keys, e))
		vals = append(vals, val)
		for ; i < j; i++ {
			rec := page[slot*recSize:]
			binary.LittleEndian.PutUint32(rec[0:], uint32(byEdge[i].ID))
			binary.LittleEndian.PutUint64(rec[4:], math.Float64bits(byEdge[i].Loc.Offset))
			slot++
			if slot == recsPerPage {
				if err := flush(); err != nil {
					return nil, err
				}
			}
		}
	}
	if slot > 0 {
		if err := flush(); err != nil {
			return nil, err
		}
	}
	tree, err := bptree.Build(treeFile, bufferBytes, treeValSize, treeKeys, vals)
	if err != nil {
		return nil, fmt.Errorf("middlelayer: %w", err)
	}
	return &Layer{
		tree:    tree,
		recFile: recFile,
		recs:    storage.NewBufferPool(recFile, bufferBytes),
		keys:    keys,
		numObjs: len(objects),
	}, nil
}

// Meta is the reopen metadata for a Layer: everything except the page
// files and the key table (a network directory keeps both scalars and
// keys in its slab) needed to reconstruct the layer in a later process.
type Meta struct {
	Tree       bptree.Meta
	NumObjects int
}

// Meta returns the layer's reopen metadata.
func (l *Layer) Meta() Meta {
	return Meta{Tree: l.tree.Meta(), NumObjects: l.numObjs}
}

// Open reconstructs a Layer over already-built page files from the Meta
// captured at build time. keys must hold the values Build was given (nil
// means the edge ids); the layer keeps the slice, which may alias a
// read-only mapping.
func Open(treeFile, recFile storage.PageFile, bufferBytes int, m Meta, keys []int64) (*Layer, error) {
	tree, err := bptree.Open(treeFile, bufferBytes, m.Tree)
	if err != nil {
		return nil, fmt.Errorf("middlelayer: %w", err)
	}
	if m.Tree.ValSize != treeValSize || m.NumObjects < 0 {
		return nil, fmt.Errorf("middlelayer: %w: %d objects under %d-byte index values", storage.ErrCorrupt, m.NumObjects, m.Tree.ValSize)
	}
	// Build packs records without gaps, so the object count fixes the
	// record file's length.
	if want := (m.NumObjects + recsPerPage - 1) / recsPerPage; recFile.NumPages() != want {
		return nil, fmt.Errorf("middlelayer: %w: %d objects need %d record pages, file has %d",
			storage.ErrCorrupt, m.NumObjects, want, recFile.NumPages())
	}
	return &Layer{
		tree:    tree,
		recFile: recFile,
		recs:    storage.NewBufferPool(recFile, bufferBytes),
		keys:    keys,
		numObjs: m.NumObjects,
	}, nil
}

// Clone returns an independent reader over the same pages with fresh
// buffer pools; clones may serve lookups concurrently.
func (l *Layer) Clone(bufferBytes int) *Layer {
	c := *l
	c.tree = l.tree.Clone(bufferBytes)
	c.recs = storage.NewBufferPool(l.recFile, bufferBytes)
	return &c
}

// NumObjects returns the number of objects in the layer.
func (l *Layer) NumObjects() int { return l.numObjs }

// ObjectsOn appends the objects lying on edge e to buf and returns it;
// length is e's length. An edge with no objects costs only the B+-tree
// probe. Page bytes are not checked at open, so a damaged index value or
// record is first seen here and reported as storage.ErrCorrupt: a value
// whose records run outside the record file, or a record whose object id
// is not an object or whose offset is not in [0, length].
func (l *Layer) ObjectsOn(e graph.EdgeID, length float64, buf []ObjRef) ([]ObjRef, error) {
	var val [treeValSize]byte
	if err := l.tree.Get(keyOf(l.keys, e), val[:]); err != nil {
		// Get returns the sentinel bare; most probes end here.
		if err == bptree.ErrNotFound {
			return buf, nil
		}
		return buf, err
	}
	pg := int(int32(binary.LittleEndian.Uint32(val[0:])))
	slot := int(binary.LittleEndian.Uint32(val[4:]))
	count := int(binary.LittleEndian.Uint32(val[8:]))
	// Build packs the numObjs records without gaps: the run starts at
	// record pg*recsPerPage+slot.
	if pg < 0 || slot >= recsPerPage || pg*recsPerPage+slot+count > l.numObjs {
		return buf, fmt.Errorf("middlelayer: %w: edge %d's %d records at page %d slot %d run past the %d objects",
			storage.ErrCorrupt, e, count, pg, slot, l.numObjs)
	}
	for count > 0 {
		p, err := l.recs.Get(storage.PageID(pg))
		if err != nil {
			return buf, err
		}
		for ; slot < recsPerPage && count > 0; slot++ {
			rec := p[slot*recSize:]
			r := ObjRef{
				ID:     graph.ObjectID(int32(binary.LittleEndian.Uint32(rec[0:]))),
				Offset: math.Float64frombits(binary.LittleEndian.Uint64(rec[4:])),
			}
			// As uint32 a negative id is out of range too; the negated
			// offset test also refuses NaN.
			if uint32(r.ID) >= uint32(l.numObjs) || !(r.Offset >= 0 && r.Offset <= length) {
				return buf, fmt.Errorf("middlelayer: %w: edge %d of length %g holds object %d (of %d) at offset %g",
					storage.ErrCorrupt, e, length, r.ID, l.numObjs, r.Offset)
			}
			buf = append(buf, r)
			count--
		}
		pg++
		slot = 0
	}
	return buf, nil
}

// Stats returns the combined I/O counters of the index and record pools.
func (l *Layer) Stats() storage.Stats {
	a, b := l.tree.Pool().Stats(), l.recs.Stats()
	return storage.Stats{Gets: a.Gets + b.Gets, Misses: a.Misses + b.Misses}
}

// ResetStats zeroes both pools' counters.
func (l *Layer) ResetStats() {
	l.tree.Pool().ResetStats()
	l.recs.ResetStats()
}

// InvalidateCaches drops both pools' cached frames (cold-cache runs).
func (l *Layer) InvalidateCaches() {
	l.tree.Pool().Invalidate()
	l.recs.Invalidate()
}
