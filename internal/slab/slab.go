// Package slab is the metadata container of a network directory: one file
// of tagged, checksummed, 8-byte-aligned sections that a reader
// memory-maps and hands out as typed slices aliasing the mapping. Besides
// the page files, everything a directory keeps is a section of one slab —
// the graph's arrays, the objects, the adjacency directory, the scalars
// the page files are reopened with, and the structures derived from them.
// What a section means is the caller's business; the container fixes where
// each one lies, how long it is, three parameters of the caller's
// choosing, and a CRC-32C that says the bytes are the ones that were
// written. Adding a structure to the directory is a new tag, not a new
// format.
//
// Layout (all integers little endian):
//
//	[8]byte  magic "RSKDRVD1"
//	u32      version (1)
//	u32      section count
//	u32      CRC-32C of the header and section table, this field as zero
//	u32      reserved (0)
//	table    count x 48: tag u32, payload CRC-32C u32, offset u64,
//	         length u64, params 3 x u64
//	payloads in table order, each starting on a multiple of 8; the file
//	         ends with the last payload
package slab

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"unsafe"

	"roadskyline/internal/storage"
)

const (
	magic       = "RSKDRVD1"
	version     = 1
	headerSize  = 24
	entrySize   = 48
	tableCRCOff = 16
	// maxSections bounds the table a header may describe, so a corrupt count
	// is rejected before anything is sized by it.
	maxSections = 64
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Section is one tagged payload. Write reads Tag, Params and Data; Parse
// fills them, Data aliasing the parsed image, and records the payload's
// checksum for Verify.
type Section struct {
	Tag    uint32
	Params [3]uint64
	Data   []byte
	crc    uint32
}

// Verify reports whether the payload still has the checksum recorded when it
// was written. Parse does not call it: a reader that skips a section does
// not pay for reading it.
func (s *Section) Verify() error {
	if got := crc32.Checksum(s.Data, castagnoli); got != s.crc {
		return fmt.Errorf("slab: %w: section %d checksum %08x, table says %08x", storage.ErrCorrupt, s.Tag, got, s.crc)
	}
	return nil
}

func align8(n uint64) uint64 { return (n + 7) &^ 7 }

// tableCRC is the checksum of the header and section table with the
// checksum field itself read as zero.
func tableCRC(head []byte) uint32 {
	crc := crc32.Update(0, castagnoli, head[:tableCRCOff])
	crc = crc32.Update(crc, castagnoli, []byte{0, 0, 0, 0})
	return crc32.Update(crc, castagnoli, head[tableCRCOff+4:])
}

// Writer builds a slab at a path atomically: payloads go to path+".tmp" as
// they become ready, and Commit writes the header and section table last,
// syncs the file and renames it over path, so a reader finds either the
// complete slab or none.
type Writer struct {
	f    *os.File
	path string
	head []byte // header and section table, filled in as sections are added
	n    int    // sections added
	off  uint64 // where the next payload starts
	end  uint64 // where the last payload ends
}

// Create starts a slab of count sections at path.
func Create(path string, count int) (*Writer, error) {
	if count > maxSections {
		return nil, fmt.Errorf("slab: %d sections, at most %d", count, maxSections)
	}
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return nil, fmt.Errorf("slab: %w", err)
	}
	head := make([]byte, headerSize+count*entrySize)
	return &Writer{f: f, path: path, head: head, off: uint64(len(head)), end: uint64(len(head))}, nil
}

// Add writes the next section.
func (w *Writer) Add(s Section) error {
	if headerSize+(w.n+1)*entrySize > len(w.head) {
		return fmt.Errorf("slab: section %d of a slab created for %d", w.n+1, (len(w.head)-headerSize)/entrySize)
	}
	e := w.head[headerSize+w.n*entrySize:]
	binary.LittleEndian.PutUint32(e[0:], s.Tag)
	binary.LittleEndian.PutUint32(e[4:], crc32.Checksum(s.Data, castagnoli))
	binary.LittleEndian.PutUint64(e[8:], w.off)
	binary.LittleEndian.PutUint64(e[16:], uint64(len(s.Data)))
	for p, v := range s.Params {
		binary.LittleEndian.PutUint64(e[24+8*p:], v)
	}
	if _, err := w.f.WriteAt(s.Data, int64(w.off)); err != nil {
		return fmt.Errorf("slab: %w", err)
	}
	w.n++
	w.end = w.off + uint64(len(s.Data))
	w.off = align8(w.end)
	return nil
}

// Sync writes the payloads added so far to stable storage, so that
// Commit's own sync has only the rest to wait for.
func (w *Writer) Sync() error { return w.f.Sync() }

// Commit writes the header and section table, syncs the file and renames
// it into place. Every section the slab was created for must have been
// added.
func (w *Writer) Commit() error {
	if count := (len(w.head) - headerSize) / entrySize; w.n != count {
		return fmt.Errorf("slab: %d sections added to a slab created for %d", w.n, count)
	}
	copy(w.head, magic)
	binary.LittleEndian.PutUint32(w.head[8:], version)
	binary.LittleEndian.PutUint32(w.head[12:], uint32(w.n))
	binary.LittleEndian.PutUint32(w.head[tableCRCOff:], tableCRC(w.head))
	if _, err := w.f.WriteAt(w.head, 0); err != nil {
		return fmt.Errorf("slab: %w", err)
	}
	// The gaps before aligned payloads read as zeros; the file ends where
	// the last payload does, even when that payload is empty.
	if err := w.f.Truncate(int64(w.end)); err != nil {
		return fmt.Errorf("slab: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("slab: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("slab: %w", err)
	}
	if err := os.Rename(w.path+".tmp", w.path); err != nil {
		return fmt.Errorf("slab: %w", err)
	}
	w.f = nil
	return nil
}

// Abort removes an uncommitted slab's temporary file; after a successful
// Commit it does nothing.
func (w *Writer) Abort() {
	if w.f != nil {
		w.f.Close()
		os.Remove(w.path + ".tmp")
		w.f = nil
	}
}

// Write stores the sections at path, in order, atomically (see Writer).
func Write(path string, sections []Section) error {
	w, err := Create(path, len(sections))
	if err != nil {
		return err
	}
	defer w.Abort()
	for _, s := range sections {
		if err := w.Add(s); err != nil {
			return err
		}
	}
	return w.Commit()
}

// Parse validates a slab image's header and section table — magic, version,
// table checksum, and every section aligned, in order, zero-padded and
// inside the image, which ends where the last one does — and returns the
// sections, their Data aliasing data. Payload checksums are left to Section.Verify.
func Parse(data []byte) ([]Section, error) {
	corrupt := func(format string, args ...any) ([]Section, error) {
		return nil, fmt.Errorf("slab: %w: "+format, append([]any{storage.ErrCorrupt}, args...)...)
	}
	if len(data) < headerSize || string(data[:8]) != magic {
		return corrupt("not a network slab")
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != version {
		return corrupt("slab version %d, want %d", v, version)
	}
	count := binary.LittleEndian.Uint32(data[12:])
	if count > maxSections || uint64(len(data)) < headerSize+uint64(count)*entrySize {
		return corrupt("%d sections do not fit %d bytes", count, len(data))
	}
	end := headerSize + uint64(count)*entrySize
	if got, want := tableCRC(data[:end]), binary.LittleEndian.Uint32(data[tableCRCOff:]); got != want {
		return corrupt("section table checksum %08x, header says %08x", got, want)
	}
	sections := make([]Section, count)
	for i := range sections {
		e := data[headerSize+i*entrySize:]
		s := &sections[i]
		s.Tag = binary.LittleEndian.Uint32(e[0:])
		s.crc = binary.LittleEndian.Uint32(e[4:])
		off, length := binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
		for p := range s.Params {
			s.Params[p] = binary.LittleEndian.Uint64(e[24+8*p:])
		}
		if off != align8(end) || off > uint64(len(data)) || length > uint64(len(data))-off {
			return corrupt("section %d at %d+%d, previous ends at %d, image is %d bytes", s.Tag, off, length, end, len(data))
		}
		for _, b := range data[end:off] {
			if b != 0 {
				return corrupt("padding before section %d is not zero", s.Tag)
			}
		}
		for _, prev := range sections[:i] {
			if prev.Tag == s.Tag {
				return corrupt("section %d appears twice", s.Tag)
			}
		}
		end = off + length
		s.Data = data[off:end:end]
	}
	if end != uint64(len(data)) {
		return corrupt("sections end at %d, image is %d bytes", end, len(data))
	}
	return sections, nil
}

// File is an opened slab: its sections and the mapping (or heap image) they
// alias.
type File struct {
	Sections []Section
	release  func() error
}

// Open memory-maps the slab at path — or reads it onto the heap where
// mapping is unavailable — and parses it. Slices taken from its sections
// are valid until Close.
func Open(path string) (*File, error) {
	data, release, err := storage.MapFile(path)
	if err != nil {
		raw, rerr := os.ReadFile(path)
		if rerr != nil {
			return nil, fmt.Errorf("slab: %w (mmap also failed: %v)", rerr, err)
		}
		data, release = raw, func() error { return nil }
	}
	sections, err := Parse(data)
	if err != nil {
		release()
		return nil, err
	}
	return &File{Sections: sections, release: release}, nil
}

// Section returns the section with the given tag, nil when there is none.
func (f *File) Section(tag uint32) *Section {
	for i := range f.Sections {
		if f.Sections[i].Tag == tag {
			return &f.Sections[i]
		}
	}
	return nil
}

// Close releases the mapping. Nothing taken from the sections may be used
// afterwards.
func (f *File) Close() error { return f.release() }

// Words views b, a whole number of little-endian 8-byte words, as a typed
// slice: aliasing b on a little-endian host (b must then outlive the result
// and start on a multiple of 8, as section payloads do), decoded onto the
// heap elsewhere.
func Words[T int64 | float64](b []byte) []T {
	n := len(b) / 8
	if n == 0 {
		return nil
	}
	if storage.HostLittleEndian() && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]T, n)
	for i := range out {
		u := binary.LittleEndian.Uint64(b[i*8:])
		out[i] = *(*T)(unsafe.Pointer(&u))
	}
	return out
}

// Bytes is the little-endian encoding of v: v's own memory on a
// little-endian host, a heap copy elsewhere. It is what a writer puts in
// Section.Data for Words (or a 4-byte decode loop) to read back.
func Bytes[T ~int32 | ~int64 | ~float64](v []T) []byte {
	if len(v) == 0 {
		return nil
	}
	size := int(unsafe.Sizeof(v[0]))
	if storage.HostLittleEndian() {
		return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*size)
	}
	out := make([]byte, len(v)*size)
	for i := range v {
		if size == 4 {
			binary.LittleEndian.PutUint32(out[i*4:], *(*uint32)(unsafe.Pointer(&v[i])))
		} else {
			binary.LittleEndian.PutUint64(out[i*8:], *(*uint64)(unsafe.Pointer(&v[i])))
		}
	}
	return out
}
