package diskgraph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"

	"roadskyline/internal/geom"
	"roadskyline/internal/storage"
)

// Directory file: the node-id -> (page, offset) record directory that Build
// computes in memory, persisted so a Store can be reopened over an existing
// page file without rebuilding (and therefore without the heap graph).
//
// Layout (little endian):
//
//	[8]byte  magic "RSKADJD1"
//	u32      version (1)
//	u32      reserved (0)
//	u64      numNodes
//	u64      numPages
//	f64 x 4  bounds MinX, MinY, MaxX, MaxY
//	entries  numNodes x (page u32, off u16)
const (
	dirMagic      = "RSKADJD1"
	dirVersion    = 1
	dirHeaderSize = 64
	dirEntrySize  = 6
)

// WriteDir persists the store's record directory to path.
func (s *Store) WriteDir(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("diskgraph: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	var h [dirHeaderSize]byte
	copy(h[:8], dirMagic)
	binary.LittleEndian.PutUint32(h[8:], dirVersion)
	binary.LittleEndian.PutUint64(h[16:], uint64(len(s.dir)))
	binary.LittleEndian.PutUint64(h[24:], uint64(s.numPages))
	binary.LittleEndian.PutUint64(h[32:], math.Float64bits(s.bounds.MinX))
	binary.LittleEndian.PutUint64(h[40:], math.Float64bits(s.bounds.MinY))
	binary.LittleEndian.PutUint64(h[48:], math.Float64bits(s.bounds.MaxX))
	binary.LittleEndian.PutUint64(h[56:], math.Float64bits(s.bounds.MaxY))
	if _, err := w.Write(h[:]); err != nil {
		return err
	}
	var e [dirEntrySize]byte
	for _, r := range s.dir {
		binary.LittleEndian.PutUint32(e[0:], uint32(r.page))
		binary.LittleEndian.PutUint16(e[4:], r.off)
		if _, err := w.Write(e[:]); err != nil {
			return err
		}
	}
	return w.Flush()
}

// Open reconstructs a Store over an already-built page file from the
// directory written by WriteDir, reading through a fresh pool of
// bufferBytes. numEdges is the graph's edge count, which bounds the edge
// ids the records may name.
func Open(file storage.PageFile, bufferBytes int, dirPath string, numEdges int) (*Store, error) {
	raw, err := os.ReadFile(dirPath)
	if err != nil {
		return nil, fmt.Errorf("diskgraph: %w", err)
	}
	if len(raw) < dirHeaderSize || string(raw[:8]) != dirMagic {
		return nil, fmt.Errorf("diskgraph: %w: %s is not an adjacency directory", storage.ErrCorrupt, dirPath)
	}
	if v := binary.LittleEndian.Uint32(raw[8:]); v != dirVersion {
		return nil, fmt.Errorf("diskgraph: %w: directory version %d, want %d", storage.ErrCorrupt, v, dirVersion)
	}
	nn := binary.LittleEndian.Uint64(raw[16:])
	np := binary.LittleEndian.Uint64(raw[24:])
	if nn > uint64(math.MaxInt32) || uint64(len(raw)) != dirHeaderSize+nn*dirEntrySize {
		return nil, fmt.Errorf("diskgraph: %w: directory is %d bytes, header describes %d nodes", storage.ErrCorrupt, len(raw), nn)
	}
	if np != uint64(file.NumPages()) {
		return nil, fmt.Errorf("diskgraph: %w: directory describes %d pages, file has %d", storage.ErrCorrupt, np, file.NumPages())
	}
	s := &Store{
		file:     file,
		dir:      make([]recRef, nn),
		numPages: int(np),
		numEdges: numEdges,
		bounds: geom.Rect{
			MinX: math.Float64frombits(binary.LittleEndian.Uint64(raw[32:])),
			MinY: math.Float64frombits(binary.LittleEndian.Uint64(raw[40:])),
			MaxX: math.Float64frombits(binary.LittleEndian.Uint64(raw[48:])),
			MaxY: math.Float64frombits(binary.LittleEndian.Uint64(raw[56:])),
		},
	}
	for i := range s.dir {
		e := raw[dirHeaderSize+i*dirEntrySize:]
		pg := storage.PageID(int32(binary.LittleEndian.Uint32(e[0:])))
		off := binary.LittleEndian.Uint16(e[4:])
		if pg < 0 || int(pg) >= s.numPages || int(off)+recHeaderSize > storage.PageSize {
			return nil, fmt.Errorf("diskgraph: %w: directory entry %d (page %d, off %d) out of range", storage.ErrCorrupt, i, pg, off)
		}
		s.dir[i] = recRef{page: pg, off: off}
	}
	s.pool = storage.NewBufferPool(file, bufferBytes)
	return s, nil
}
