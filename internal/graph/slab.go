package graph

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"roadskyline/internal/geom"
	"roadskyline/internal/slab"
	"roadskyline/internal/storage"
)

// The slab sections of a graph and of its objects: the byte images a
// network directory's slab (internal/slab) keeps, one per array. On a
// 64-bit little-endian host the graph images ARE the in-memory arrays, so
// FromSections aliases them with no copy and a network much larger than RAM
// loads without one byte of heap; elsewhere (or when the struct layout
// drifts) it decodes them onto the heap. Record layouts, little endian,
// padding zero:
//
//	nodes      24 bytes each: id i32, pad4, x f64, y f64
//	edges      24 bytes each: id i32, u i32, v i32, pad4, length f64
//	halfedges  16 bytes each: to i32, edge i32, length f64
//	adjOff      4 bytes each: i32, NumNodes+1 of them
//	locations  16 bytes per object: edge i32, pad4, offset f64
//	attributes  8 bytes each: f64, a row of NumAttrs per object
const (
	nodeRecSize  = 24
	edgeRecSize  = 24
	halfedgeSize = 16
	objLocSize   = 16
)

// Sections holds a graph's four CSR arrays as section images.
type Sections struct {
	Nodes, Edges, Halfedges, AdjOff []byte
}

// hostLayoutMatchesSlab reports whether the running process can alias the
// section images directly: little-endian byte order and the exact struct
// layouts the format mirrors. Padding bytes are zeroed by the writer, so an
// aliased record compares equal to a decoded one.
func hostLayoutMatchesSlab() bool {
	var n Node
	var e Edge
	var h Halfedge
	var p geom.Point
	return storage.HostLittleEndian() &&
		unsafe.Sizeof(n) == nodeRecSize &&
		unsafe.Offsetof(n.ID) == 0 && unsafe.Offsetof(n.Pt) == 8 &&
		unsafe.Sizeof(p) == 16 &&
		unsafe.Offsetof(p.X) == 0 && unsafe.Offsetof(p.Y) == 8 &&
		unsafe.Sizeof(e) == edgeRecSize &&
		unsafe.Offsetof(e.ID) == 0 && unsafe.Offsetof(e.U) == 4 &&
		unsafe.Offsetof(e.V) == 8 && unsafe.Offsetof(e.Length) == 16 &&
		unsafe.Sizeof(h) == halfedgeSize &&
		unsafe.Offsetof(h.To) == 0 && unsafe.Offsetof(h.Edge) == 4 &&
		unsafe.Offsetof(h.Length) == 8
}

// Sections encodes g's arrays as the images FromSections reads.
func (g *Graph) Sections() Sections {
	s := Sections{
		Nodes:     make([]byte, len(g.nodes)*nodeRecSize),
		Edges:     make([]byte, len(g.edges)*edgeRecSize),
		Halfedges: make([]byte, len(g.halfedges)*halfedgeSize),
		AdjOff:    make([]byte, len(g.adjOff)*4),
	}
	le := binary.LittleEndian
	for i, n := range g.nodes {
		rec := s.Nodes[i*nodeRecSize:]
		le.PutUint32(rec[0:], uint32(n.ID))
		le.PutUint64(rec[8:], math.Float64bits(n.Pt.X))
		le.PutUint64(rec[16:], math.Float64bits(n.Pt.Y))
	}
	for i, e := range g.edges {
		rec := s.Edges[i*edgeRecSize:]
		le.PutUint32(rec[0:], uint32(e.ID))
		le.PutUint32(rec[4:], uint32(e.U))
		le.PutUint32(rec[8:], uint32(e.V))
		le.PutUint64(rec[16:], math.Float64bits(e.Length))
	}
	for i, h := range g.halfedges {
		rec := s.Halfedges[i*halfedgeSize:]
		le.PutUint32(rec[0:], uint32(h.To))
		le.PutUint32(rec[4:], uint32(h.Edge))
		le.PutUint64(rec[8:], math.Float64bits(h.Length))
	}
	for i, off := range g.adjOff {
		le.PutUint32(s.AdjOff[i*4:], uint32(off))
	}
	return s
}

// view aliases b as n records of T; b must start on a multiple of 8.
func view[T any](b []byte, n int) []T {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}

func aligned8(bs ...[]byte) bool {
	for _, b := range bs {
		if len(b) > 0 && uintptr(unsafe.Pointer(&b[0]))%8 != 0 {
			return false
		}
	}
	return true
}

// FromSections returns the graph whose arrays the images hold, after
// checking them (checkSlab). On a host whose memory layout matches the
// format the graph's slices alias the images, which must then outlive it
// unchanged; elsewhere everything is decoded onto the heap.
func FromSections(s Sections) (*Graph, error) {
	nn, ne, nh := len(s.Nodes)/nodeRecSize, len(s.Edges)/edgeRecSize, len(s.Halfedges)/halfedgeSize
	if len(s.Nodes)%nodeRecSize != 0 || len(s.Edges)%edgeRecSize != 0 || len(s.Halfedges)%halfedgeSize != 0 ||
		len(s.AdjOff) != 4*(nn+1) || nn > math.MaxInt32 || ne > math.MaxInt32 {
		return nil, fmt.Errorf("graph: %w: sections of %d, %d, %d and %d bytes are no graph",
			storage.ErrCorrupt, len(s.Nodes), len(s.Edges), len(s.Halfedges), len(s.AdjOff))
	}
	g := &Graph{}
	if hostLayoutMatchesSlab() && aligned8(s.Nodes, s.Edges, s.Halfedges, s.AdjOff) {
		g.nodes = view[Node](s.Nodes, nn)
		g.edges = view[Edge](s.Edges, ne)
		g.halfedges = view[Halfedge](s.Halfedges, nh)
		g.adjOff = view[int32](s.AdjOff, nn+1)
	} else {
		le := binary.LittleEndian
		g.nodes = make([]Node, nn)
		for i := range g.nodes {
			rec := s.Nodes[i*nodeRecSize:]
			g.nodes[i] = Node{
				ID: NodeID(int32(le.Uint32(rec[0:]))),
				Pt: geom.Point{X: math.Float64frombits(le.Uint64(rec[8:])), Y: math.Float64frombits(le.Uint64(rec[16:]))},
			}
		}
		g.edges = make([]Edge, ne)
		for i := range g.edges {
			rec := s.Edges[i*edgeRecSize:]
			g.edges[i] = Edge{
				ID:     EdgeID(int32(le.Uint32(rec[0:]))),
				U:      NodeID(int32(le.Uint32(rec[4:]))),
				V:      NodeID(int32(le.Uint32(rec[8:]))),
				Length: math.Float64frombits(le.Uint64(rec[16:])),
			}
		}
		g.halfedges = make([]Halfedge, nh)
		for i := range g.halfedges {
			rec := s.Halfedges[i*halfedgeSize:]
			g.halfedges[i] = Halfedge{
				To:     NodeID(int32(le.Uint32(rec[0:]))),
				Edge:   EdgeID(int32(le.Uint32(rec[4:]))),
				Length: math.Float64frombits(le.Uint64(rec[8:])),
			}
		}
		g.adjOff = make([]int32, nn+1)
		for i := range g.adjOff {
			g.adjOff[i] = int32(le.Uint32(s.AdjOff[i*4:]))
		}
	}
	if err := g.checkSlab(); err != nil {
		return nil, err
	}
	g.bounds = boundsOf(g.nodes)
	return g, nil
}

// checkSlab verifies what every reader of a Graph takes for granted, so
// images whose bytes were damaged fail at load and not with an index out of
// range in the middle of a query: ids equal positions, edge endpoints and
// halfedge targets name existing nodes and edges, and adjOff is a monotone
// partition of the halfedges. One pass over the arrays, no allocation.
func (g *Graph) checkSlab() error {
	nn, ne := len(g.nodes), len(g.edges)
	for i := range g.nodes {
		if int(g.nodes[i].ID) != i {
			return fmt.Errorf("graph: %w: node %d carries id %d", storage.ErrCorrupt, i, g.nodes[i].ID)
		}
	}
	for i := range g.edges {
		e := &g.edges[i]
		if int(e.ID) != i || uint32(e.U) >= uint32(nn) || uint32(e.V) >= uint32(nn) {
			return fmt.Errorf("graph: %w: edge %d is (id %d, %d-%d) among %d nodes", storage.ErrCorrupt, i, e.ID, e.U, e.V, nn)
		}
	}
	for i := range g.halfedges {
		h := &g.halfedges[i]
		if uint32(h.To) >= uint32(nn) || uint32(h.Edge) >= uint32(ne) {
			return fmt.Errorf("graph: %w: halfedge %d points at node %d, edge %d", storage.ErrCorrupt, i, h.To, h.Edge)
		}
	}
	prev := int32(0)
	for i, off := range g.adjOff {
		if off < prev || (i == 0 && off != 0) {
			return fmt.Errorf("graph: %w: adjacency offset %d is %d after %d", storage.ErrCorrupt, i, off, prev)
		}
		prev = off
	}
	if int(prev) != len(g.halfedges) {
		return fmt.Errorf("graph: %w: adjacency offsets end at %d of %d halfedges", storage.ErrCorrupt, prev, len(g.halfedges))
	}
	return nil
}

// ObjectSections encodes objects, every one with numAttrs attributes, as
// the location and attribute images ObjectsFromSections reads.
func ObjectSections(objects []Object, numAttrs int) (locs, attrs []byte, err error) {
	locs = make([]byte, len(objects)*objLocSize)
	attrs = make([]byte, 0, len(objects)*numAttrs*8)
	for i, o := range objects {
		if len(o.Attrs) != numAttrs {
			return nil, nil, fmt.Errorf("graph: object %d has %d attributes, want %d", o.ID, len(o.Attrs), numAttrs)
		}
		binary.LittleEndian.PutUint32(locs[i*objLocSize:], uint32(o.Loc.Edge))
		binary.LittleEndian.PutUint64(locs[i*objLocSize+8:], math.Float64bits(o.Loc.Offset))
		for _, a := range o.Attrs {
			attrs = binary.LittleEndian.AppendUint64(attrs, math.Float64bits(a))
		}
	}
	return locs, attrs, nil
}

// ObjectsFromSections returns the objects the images hold, ids dense and
// numAttrs attributes each. On a little-endian host every Attrs slice
// aliases attrs, which must then outlive the objects unchanged. Locations
// are not checked against a graph here; that is the caller's to do.
func ObjectsFromSections(locs, attrs []byte, numAttrs int) ([]Object, error) {
	n := uint64(len(locs) / objLocSize)
	if len(locs)%objLocSize != 0 || n > math.MaxInt32 || numAttrs < 0 || numAttrs > 1<<20 ||
		uint64(len(attrs)) != n*uint64(numAttrs)*8 {
		return nil, fmt.Errorf("graph: %w: %d bytes of locations and %d of attributes for %d attributes each",
			storage.ErrCorrupt, len(locs), len(attrs), numAttrs)
	}
	matrix := slab.Words[float64](attrs)
	objects := make([]Object, n)
	for i := range objects {
		rec := locs[i*objLocSize:]
		objects[i] = Object{
			ID: ObjectID(i),
			Loc: Location{
				Edge:   EdgeID(int32(binary.LittleEndian.Uint32(rec[0:]))),
				Offset: math.Float64frombits(binary.LittleEndian.Uint64(rec[8:])),
			},
		}
		if numAttrs > 0 {
			objects[i].Attrs = matrix[i*numAttrs : (i+1)*numAttrs : (i+1)*numAttrs]
		}
	}
	return objects, nil
}
