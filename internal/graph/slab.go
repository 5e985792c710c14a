package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"unsafe"

	"roadskyline/internal/geom"
	"roadskyline/internal/storage"
)

// Slab format: the CSR graph serialized so that on a 64-bit little-endian
// host the record sections ARE the in-memory slices — OpenSlab memory-maps
// the file and aliases nodes, edges, halfedges and adjOff straight into the
// mapping, loading a network much larger than RAM without one byte of heap
// copy. On other hosts (or when the struct layout drifts) OpenSlab falls
// back to an explicit little-endian decode into heap slices; the file is
// portable either way.
//
// Layout (all integers little endian):
//
//	[8]byte  magic "RSKGRAF1"
//	u32      version (1)
//	u32      reserved (0)
//	u64      numNodes
//	u64      numEdges
//	u64      numHalfedges
//	f64 x 4  bounds MinX, MinY, MaxX, MaxY
//	nodes     numNodes     x 24  (id i32, pad4, x f64, y f64)
//	edges     numEdges     x 24  (id i32, u i32, v i32, pad4, length f64)
//	halfedges numHalfedges x 16  (to i32, edge i32, length f64)
//	adjOff    numNodes+1   x 4   (i32)
//
// Every section start is 8-byte aligned (the header is 72 bytes and the
// record sizes are multiples of 8), which the zero-copy alias requires.
const (
	slabMagic      = "RSKGRAF1"
	slabVersion    = 1
	slabHeaderSize = 72
	nodeRecSize    = 24
	edgeRecSize    = 24
	halfedgeSize   = 16
)

// hostLayoutMatchesSlab reports whether the running process can alias the
// slab sections directly: little-endian byte order and the exact struct
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

// WriteSlab serializes g to path in the mappable slab format.
func WriteSlab(g *Graph, path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("graph: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	var scratch [slabHeaderSize]byte
	copy(scratch[:8], slabMagic)
	binary.LittleEndian.PutUint32(scratch[8:], slabVersion)
	binary.LittleEndian.PutUint64(scratch[16:], uint64(len(g.nodes)))
	binary.LittleEndian.PutUint64(scratch[24:], uint64(len(g.edges)))
	binary.LittleEndian.PutUint64(scratch[32:], uint64(len(g.halfedges)))
	binary.LittleEndian.PutUint64(scratch[40:], math.Float64bits(g.bounds.MinX))
	binary.LittleEndian.PutUint64(scratch[48:], math.Float64bits(g.bounds.MinY))
	binary.LittleEndian.PutUint64(scratch[56:], math.Float64bits(g.bounds.MaxX))
	binary.LittleEndian.PutUint64(scratch[64:], math.Float64bits(g.bounds.MaxY))
	if _, err := w.Write(scratch[:]); err != nil {
		return err
	}
	for _, n := range g.nodes {
		rec := scratch[:nodeRecSize]
		clear(rec)
		binary.LittleEndian.PutUint32(rec[0:], uint32(n.ID))
		binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(n.Pt.X))
		binary.LittleEndian.PutUint64(rec[16:], math.Float64bits(n.Pt.Y))
		if _, err := w.Write(rec); err != nil {
			return err
		}
	}
	for _, e := range g.edges {
		rec := scratch[:edgeRecSize]
		clear(rec)
		binary.LittleEndian.PutUint32(rec[0:], uint32(e.ID))
		binary.LittleEndian.PutUint32(rec[4:], uint32(e.U))
		binary.LittleEndian.PutUint32(rec[8:], uint32(e.V))
		binary.LittleEndian.PutUint64(rec[16:], math.Float64bits(e.Length))
		if _, err := w.Write(rec); err != nil {
			return err
		}
	}
	for _, h := range g.halfedges {
		rec := scratch[:halfedgeSize]
		binary.LittleEndian.PutUint32(rec[0:], uint32(h.To))
		binary.LittleEndian.PutUint32(rec[4:], uint32(h.Edge))
		binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(h.Length))
		if _, err := w.Write(rec); err != nil {
			return err
		}
	}
	for _, off := range g.adjOff {
		binary.LittleEndian.PutUint32(scratch[:4], uint32(off))
		if _, err := w.Write(scratch[:4]); err != nil {
			return err
		}
	}
	return w.Flush()
}

// slabSections validates the header and returns the section byte ranges.
func slabSections(data []byte) (numNodes, numEdges, numHalf int, bounds geom.Rect, err error) {
	if len(data) < slabHeaderSize || string(data[:8]) != slabMagic {
		return 0, 0, 0, bounds, fmt.Errorf("graph: %w: not a graph slab", storage.ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != slabVersion {
		return 0, 0, 0, bounds, fmt.Errorf("graph: %w: slab version %d, want %d", storage.ErrCorrupt, v, slabVersion)
	}
	nn := binary.LittleEndian.Uint64(data[16:])
	ne := binary.LittleEndian.Uint64(data[24:])
	nh := binary.LittleEndian.Uint64(data[32:])
	want := uint64(slabHeaderSize) + nn*nodeRecSize + ne*edgeRecSize + nh*halfedgeSize + (nn+1)*4
	if nn > uint64(math.MaxInt32) || ne > uint64(math.MaxInt32) || nh > uint64(2*math.MaxInt32) ||
		uint64(len(data)) != want {
		return 0, 0, 0, bounds, fmt.Errorf("graph: %w: slab is %d bytes, header describes %d", storage.ErrCorrupt, len(data), want)
	}
	bounds = geom.Rect{
		MinX: math.Float64frombits(binary.LittleEndian.Uint64(data[40:])),
		MinY: math.Float64frombits(binary.LittleEndian.Uint64(data[48:])),
		MaxX: math.Float64frombits(binary.LittleEndian.Uint64(data[56:])),
		MaxY: math.Float64frombits(binary.LittleEndian.Uint64(data[64:])),
	}
	return int(nn), int(ne), int(nh), bounds, nil
}

// checkSlab verifies what every reader of a Graph takes for granted, so a
// slab whose bytes were damaged fails at open and not with an index out of
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

// sliceSlab decodes data (a full slab image) into a Graph and checks it
// (checkSlab). When alias is true the returned graph's slices point into
// data with zero copies, so data must stay mapped for the graph's lifetime;
// otherwise everything is decoded onto the heap and data may be released.
func sliceSlab(data []byte, alias bool) (*Graph, error) {
	nn, ne, nh, bounds, err := slabSections(data)
	if err != nil {
		return nil, err
	}
	g := &Graph{bounds: bounds}
	nodesOff := slabHeaderSize
	edgesOff := nodesOff + nn*nodeRecSize
	halfOff := edgesOff + ne*edgeRecSize
	adjOffOff := halfOff + nh*halfedgeSize
	if alias {
		if nn > 0 {
			g.nodes = unsafe.Slice((*Node)(unsafe.Pointer(&data[nodesOff])), nn)
		}
		if ne > 0 {
			g.edges = unsafe.Slice((*Edge)(unsafe.Pointer(&data[edgesOff])), ne)
		}
		if nh > 0 {
			g.halfedges = unsafe.Slice((*Halfedge)(unsafe.Pointer(&data[halfOff])), nh)
		}
		g.adjOff = unsafe.Slice((*int32)(unsafe.Pointer(&data[adjOffOff])), nn+1)
		return g, g.checkSlab()
	}
	g.nodes = make([]Node, nn)
	for i := range g.nodes {
		rec := data[nodesOff+i*nodeRecSize:]
		g.nodes[i] = Node{
			ID: NodeID(int32(binary.LittleEndian.Uint32(rec[0:]))),
			Pt: geom.Point{
				X: math.Float64frombits(binary.LittleEndian.Uint64(rec[8:])),
				Y: math.Float64frombits(binary.LittleEndian.Uint64(rec[16:])),
			},
		}
	}
	g.edges = make([]Edge, ne)
	for i := range g.edges {
		rec := data[edgesOff+i*edgeRecSize:]
		g.edges[i] = Edge{
			ID:     EdgeID(int32(binary.LittleEndian.Uint32(rec[0:]))),
			U:      NodeID(int32(binary.LittleEndian.Uint32(rec[4:]))),
			V:      NodeID(int32(binary.LittleEndian.Uint32(rec[8:]))),
			Length: math.Float64frombits(binary.LittleEndian.Uint64(rec[16:])),
		}
	}
	g.halfedges = make([]Halfedge, nh)
	for i := range g.halfedges {
		rec := data[halfOff+i*halfedgeSize:]
		g.halfedges[i] = Halfedge{
			To:     NodeID(int32(binary.LittleEndian.Uint32(rec[0:]))),
			Edge:   EdgeID(int32(binary.LittleEndian.Uint32(rec[4:]))),
			Length: math.Float64frombits(binary.LittleEndian.Uint64(rec[8:])),
		}
	}
	g.adjOff = make([]int32, nn+1)
	for i := range g.adjOff {
		g.adjOff[i] = int32(binary.LittleEndian.Uint32(data[adjOffOff+i*4:]))
	}
	return g, g.checkSlab()
}

// OpenSlab memory-maps the slab at path and returns the graph with a close
// function that releases the mapping. On a host whose memory layout matches
// the format the graph's slices alias the mapping (zero heap copies and the
// graph must not be used after close); elsewhere the slab is decoded onto
// the heap and close releases the mapping immediately reusable. When
// mapping itself fails (platform without mmap) the file is read and decoded
// from the heap.
func OpenSlab(path string) (*Graph, func() error, error) {
	noop := func() error { return nil }
	data, unmap, err := storage.MapFile(path)
	if err != nil {
		raw, rerr := os.ReadFile(path)
		if rerr != nil {
			return nil, nil, fmt.Errorf("graph: %w (mmap also failed: %v)", rerr, err)
		}
		g, derr := sliceSlab(raw, false)
		if derr != nil {
			return nil, nil, derr
		}
		return g, noop, nil
	}
	if hostLayoutMatchesSlab() {
		g, derr := sliceSlab(data, true)
		if derr != nil {
			unmap()
			return nil, nil, derr
		}
		return g, unmap, nil
	}
	g, derr := sliceSlab(data, false)
	unmap()
	if derr != nil {
		return nil, nil, derr
	}
	return g, noop, nil
}
