package diskgraph

import (
	"encoding/binary"
	"fmt"

	"roadskyline/internal/storage"
)

// dirEntrySize is one node's entry in the record directory: page u32 and
// offset u16, little endian.
const dirEntrySize = 6

// Directory returns the node-id -> (page, offset) record directory that
// Build computed, as the bytes Open takes back to serve the same page file
// in a later process without the heap graph.
func (s *Store) Directory() []byte {
	out := make([]byte, len(s.dir)*dirEntrySize)
	for i, r := range s.dir {
		binary.LittleEndian.PutUint32(out[i*dirEntrySize:], uint32(r.page))
		binary.LittleEndian.PutUint16(out[i*dirEntrySize+4:], r.off)
	}
	return out
}

// Open reconstructs a Store over an already-built page file from the
// directory Directory returned, reading through a fresh pool of
// bufferBytes. numEdges is the graph's edge count, which bounds the edge
// ids the records may name. Every entry must leave room for a record header
// inside a page of file.
func Open(file storage.PageFile, bufferBytes int, dir []byte, numEdges int) (*Store, error) {
	if len(dir)%dirEntrySize != 0 {
		return nil, fmt.Errorf("diskgraph: %w: directory of %d bytes", storage.ErrCorrupt, len(dir))
	}
	s := &Store{
		file:     file,
		dir:      make([]recRef, len(dir)/dirEntrySize),
		numPages: file.NumPages(),
		numEdges: numEdges,
	}
	for i := range s.dir {
		e := dir[i*dirEntrySize:]
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
