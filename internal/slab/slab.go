// Package slab is the container of a network directory's derived
// structures: one file of tagged, checksummed, 8-byte-aligned sections that
// a reader memory-maps and hands out as typed slices aliasing the mapping.
// What a section means (a landmark table, an R-tree leaf order, a key
// table) is the caller's business; the container fixes where each one
// lies, how long it is, three parameters of the caller's choosing, and a
// CRC-32C that says the bytes are the ones that were written. Adding a
// structure to the directory is a new tag, not a new format.
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
	"bufio"
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

// Write stores the sections at path, in order.
func Write(path string, sections []Section) (err error) {
	if len(sections) > maxSections {
		return fmt.Errorf("slab: %d sections, at most %d", len(sections), maxSections)
	}
	head := make([]byte, headerSize+len(sections)*entrySize)
	copy(head, magic)
	binary.LittleEndian.PutUint32(head[8:], version)
	binary.LittleEndian.PutUint32(head[12:], uint32(len(sections)))
	off := uint64(len(head))
	for i, s := range sections {
		e := head[headerSize+i*entrySize:]
		binary.LittleEndian.PutUint32(e[0:], s.Tag)
		binary.LittleEndian.PutUint32(e[4:], crc32.Checksum(s.Data, castagnoli))
		binary.LittleEndian.PutUint64(e[8:], off)
		binary.LittleEndian.PutUint64(e[16:], uint64(len(s.Data)))
		for p, v := range s.Params {
			binary.LittleEndian.PutUint64(e[24+8*p:], v)
		}
		off = align8(off + uint64(len(s.Data)))
	}
	binary.LittleEndian.PutUint32(head[tableCRCOff:], tableCRC(head))

	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("slab: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	if _, err := w.Write(head); err != nil {
		return err
	}
	var pad [8]byte
	for i, s := range sections {
		if _, err := w.Write(s.Data); err != nil {
			return err
		}
		if i < len(sections)-1 {
			n := uint64(len(s.Data))
			if _, err := w.Write(pad[:align8(n)-n]); err != nil {
				return err
			}
		}
	}
	return w.Flush()
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
		return corrupt("not a derived-structures slab")
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
