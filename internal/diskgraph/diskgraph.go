// Package diskgraph stores a road network's adjacency lists on disk pages
// and serves them through an LRU buffer pool, reproducing the storage
// scheme of the paper's experiments (Section 6.1): "the adjacency lists of
// the network nodes are clustered on the disk to minimize the I/O cost
// during network distance computation".
//
// Node records are laid out in Hilbert-curve order of the node coordinates
// (or any caller-chosen order), packed into 4 KB pages. Each adjacency
// entry carries the neighbor's coordinates so that A* can evaluate its
// Euclidean heuristic for newly discovered nodes without faulting the
// neighbor's own page.
package diskgraph

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"roadskyline/internal/geom"
	"roadskyline/internal/graph"
	"roadskyline/internal/storage"
)

// Node record layout (little endian):
//
//	x float64, y float64, degree uint16,
//	degree * (to int32, toX float64, toY float64, edge int32, length float64)
const (
	recHeaderSize = 18
	recEntrySize  = 32
)

// Neighbor is one adjacency entry read from disk. ToPt duplicates the
// neighbor's coordinates so heuristics need no extra page read.
type Neighbor struct {
	To     graph.NodeID
	ToPt   geom.Point
	Edge   graph.EdgeID
	Length float64
}

// Order selects the on-disk placement of node records.
type Order int

const (
	// OrderHilbert clusters records by the Hilbert key of the node
	// coordinates (the default; spatially close wavefronts hit few pages).
	OrderHilbert Order = iota
	// OrderNodeID places records in node-id order. Used by the clustering
	// ablation benchmark; generators often assign ids with little spatial
	// coherence.
	OrderNodeID
)

// recRef locates a node record: page and byte offset within the page.
type recRef struct {
	page storage.PageID
	off  uint16
}

// Store is a read-only disk-resident graph.
type Store struct {
	file     storage.PageFile
	pool     *storage.BufferPool
	dir      []recRef
	numPages int
	numEdges int // the range Neighbors holds every entry's edge id to
}

// Build writes g's adjacency lists to file in the given order and returns a
// Store reading them through a pool of bufferBytes.
func Build(g *graph.Graph, file storage.PageFile, bufferBytes int, order Order) (*Store, error) {
	n := g.NumNodes()
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = graph.NodeID(i)
	}
	if order == OrderHilbert {
		bounds := g.Bounds()
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = geom.HilbertKey(g.NodePoint(graph.NodeID(i)), bounds)
		}
		sort.Slice(ids, func(a, b int) bool { return keys[ids[a]] < keys[ids[b]] })
	}

	s := &Store{file: file, dir: make([]recRef, n), numEdges: g.NumEdges()}
	page := make([]byte, storage.PageSize)
	used := 0
	flush := func() error {
		if used == 0 {
			return nil
		}
		clear(page[used:])
		if _, err := file.AppendPage(page); err != nil {
			return err
		}
		s.numPages++
		used = 0
		return nil
	}
	for _, id := range ids {
		adj := g.Adj(id)
		recSize := recHeaderSize + adj.Len()*recEntrySize
		if recSize > storage.PageSize {
			return nil, fmt.Errorf("diskgraph: node %d adjacency record (%d bytes, degree %d) exceeds page size", id, recSize, adj.Len())
		}
		if used+recSize > storage.PageSize {
			if err := flush(); err != nil {
				return nil, err
			}
		}
		s.dir[id] = recRef{page: storage.PageID(s.numPages), off: uint16(used)}
		pt := g.NodePoint(id)
		rec := page[used:]
		binary.LittleEndian.PutUint64(rec[0:], math.Float64bits(pt.X))
		binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(pt.Y))
		binary.LittleEndian.PutUint16(rec[16:], uint16(adj.Len()))
		for i := 0; i < adj.Len(); i++ {
			he := adj.At(i)
			e := rec[recHeaderSize+i*recEntrySize:]
			toPt := g.NodePoint(he.To)
			binary.LittleEndian.PutUint32(e[0:], uint32(he.To))
			binary.LittleEndian.PutUint64(e[4:], math.Float64bits(toPt.X))
			binary.LittleEndian.PutUint64(e[12:], math.Float64bits(toPt.Y))
			binary.LittleEndian.PutUint32(e[20:], uint32(he.Edge))
			binary.LittleEndian.PutUint64(e[24:], math.Float64bits(he.Length))
		}
		used += recSize
	}
	if err := flush(); err != nil {
		return nil, err
	}
	s.pool = storage.NewBufferPool(file, bufferBytes)
	return s, nil
}

// Clone returns an independent reader over the same immutable page file:
// it shares the record directory but owns a fresh buffer pool, so clones
// may serve queries concurrently (page files support concurrent reads).
func (s *Store) Clone(bufferBytes int) *Store {
	c := *s
	c.pool = storage.NewBufferPool(s.file, bufferBytes)
	return &c
}

// NumNodes returns the number of nodes.
func (s *Store) NumNodes() int { return len(s.dir) }

// NumPages returns the number of disk pages holding adjacency records.
func (s *Store) NumPages() int { return s.numPages }

// Pool returns the buffer pool, exposing the disk-access statistics.
func (s *Store) Pool() *storage.BufferPool { return s.pool }

// NodePoint reads the coordinates of node id (one buffered page access).
func (s *Store) NodePoint(id graph.NodeID) (geom.Point, error) {
	r := s.dir[id]
	p, err := s.pool.Get(r.page)
	if err != nil {
		return geom.Point{}, err
	}
	rec := p[r.off:]
	return geom.Point{
		X: math.Float64frombits(binary.LittleEndian.Uint64(rec[0:])),
		Y: math.Float64frombits(binary.LittleEndian.Uint64(rec[8:])),
	}, nil
}

// Neighbors appends node id's adjacency entries to buf and returns it (one
// buffered page access). A record that runs off its page, or an entry whose
// neighbour or edge id is out of range, fails with storage.ErrCorrupt and
// appends nothing.
func (s *Store) Neighbors(id graph.NodeID, buf []Neighbor) ([]Neighbor, error) {
	r := s.dir[id]
	p, err := s.pool.Get(r.page)
	if err != nil {
		return buf, err
	}
	rec := p[r.off:]
	deg := int(binary.LittleEndian.Uint16(rec[16:]))
	end := recHeaderSize + deg*recEntrySize
	if end > len(rec) {
		return buf, fmt.Errorf("diskgraph: %w: node %d record of degree %d runs off its page", storage.ErrCorrupt, id, deg)
	}
	n := len(buf)
	for ents := rec[recHeaderSize:end]; len(ents) >= recEntrySize; ents = ents[recEntrySize:] {
		e := ents[:recEntrySize]
		to := binary.LittleEndian.Uint32(e[0:])
		edge := binary.LittleEndian.Uint32(e[20:])
		if to >= uint32(len(s.dir)) || edge >= uint32(s.numEdges) {
			return buf[:n], fmt.Errorf("diskgraph: %w: node %d lists neighbour %d over edge %d", storage.ErrCorrupt, id, int32(to), int32(edge))
		}
		buf = append(buf, Neighbor{
			To: graph.NodeID(to),
			ToPt: geom.Point{
				X: math.Float64frombits(binary.LittleEndian.Uint64(e[4:])),
				Y: math.Float64frombits(binary.LittleEndian.Uint64(e[12:])),
			},
			Edge:   graph.EdgeID(edge),
			Length: math.Float64frombits(binary.LittleEndian.Uint64(e[24:])),
		})
	}
	return buf, nil
}
