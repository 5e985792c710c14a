// Package storage provides the simulated disk layer of the engine: fixed
// size pages, page files (memory- or file-backed), and an LRU buffer pool
// that counts physical page reads.
//
// The paper's experiments use a 4 KB page size and a 1 MB LRU buffer, and
// report "network disk pages accessed" as the primary cost metric. The
// buffer pool's miss counter reproduces that metric exactly: a page served
// from the buffer is free, a page faulted in from the file costs one I/O.
package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// PageSize is the size of a disk page in bytes (paper Section 6.1).
const PageSize = 4096

// DefaultBufferBytes is the default buffer pool size (paper Section 6.1).
const DefaultBufferBytes = 1 << 20 // 1 MB

// PageID identifies a page within a PageFile.
type PageID int32

// InvalidPage is a sentinel PageID that never identifies a real page.
const InvalidPage PageID = -1

// ErrPageBounds is returned when a page id is outside the file.
var ErrPageBounds = errors.New("storage: page id out of bounds")

// ErrReadOnly is returned by write operations on a page file that was
// opened read-only (OpenOSFile, OpenMmapFile). Build page files with
// CreateOSFile; reopen them read-only to serve queries.
var ErrReadOnly = errors.New("storage: page file opened read-only")

// ErrCorrupt marks a persisted file whose bytes contradict themselves or
// each other: a bad magic or format version, a size the header does not
// describe, a checksum that does not match, an index out of the range its
// neighbours fix. Every decoder of a network directory wraps it, so callers
// test errors.Is(err, ErrCorrupt) once instead of matching messages.
var ErrCorrupt = errors.New("corrupt network directory")

// checkReadBuf validates the destination of a ReadPage. Reads and writes
// are symmetric: both move exactly one page, so a buffer of any other size
// is a caller bug, not a truncation to perform silently.
func checkReadBuf(buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("storage: read into %d-byte buffer, want %d", len(buf), PageSize)
	}
	return nil
}

// PageFile is random access storage of fixed-size pages.
type PageFile interface {
	// NumPages returns the number of allocated pages.
	NumPages() int
	// ReadPage copies page id into buf, which must be PageSize bytes.
	ReadPage(id PageID, buf []byte) error
	// WritePage stores data (PageSize bytes) as page id. Writing page
	// NumPages() grows the file by one page; writing beyond that is an
	// error.
	WritePage(id PageID, data []byte) error
	// AppendPage stores data as a new page and returns its id.
	AppendPage(data []byte) (PageID, error)
	// Close releases underlying resources.
	Close() error
}

// MemFile is an in-memory PageFile. It is the default backend for
// experiments: "disk" pages live in a slice while the buffer pool still
// counts faults, so page-access metrics are identical to a file-backed run
// without I/O noise in the timings.
type MemFile struct {
	pages [][]byte
}

// NewMemFile returns an empty in-memory page file.
func NewMemFile() *MemFile { return &MemFile{} }

// NumPages implements PageFile.
func (f *MemFile) NumPages() int { return len(f.pages) }

// ReadPage implements PageFile.
func (f *MemFile) ReadPage(id PageID, buf []byte) error {
	if err := checkReadBuf(buf); err != nil {
		return err
	}
	if id < 0 || int(id) >= len(f.pages) {
		return fmt.Errorf("%w: read %d of %d", ErrPageBounds, id, len(f.pages))
	}
	copy(buf, f.pages[id])
	return nil
}

// WritePage implements PageFile.
func (f *MemFile) WritePage(id PageID, data []byte) error {
	if len(data) != PageSize {
		return fmt.Errorf("storage: write of %d bytes, want %d", len(data), PageSize)
	}
	switch {
	case id >= 0 && int(id) < len(f.pages):
		copy(f.pages[id], data)
	case int(id) == len(f.pages):
		p := make([]byte, PageSize)
		copy(p, data)
		f.pages = append(f.pages, p)
	default:
		return fmt.Errorf("%w: write %d of %d", ErrPageBounds, id, len(f.pages))
	}
	return nil
}

// AppendPage implements PageFile.
func (f *MemFile) AppendPage(data []byte) (PageID, error) {
	id := PageID(len(f.pages))
	return id, f.WritePage(id, data)
}

// Close implements PageFile.
func (f *MemFile) Close() error { return nil }

// OSFile is an operating-system file backed PageFile. Files opened with
// OpenOSFile are read-only: WritePage and AppendPage fail fast with
// ErrReadOnly instead of surfacing a confusing OS error at use time.
type OSFile struct {
	f        *os.File
	numPages int
	readOnly bool
}

// CreateOSFile creates (truncating) a writable file-backed page file at
// path.
func CreateOSFile(path string) (*OSFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	return &OSFile{f: f}, nil
}

// OpenOSFile opens an existing file-backed page file at path for reading.
// The returned file rejects writes with ErrReadOnly.
func OpenOSFile(path string) (*OSFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: %w", err)
	}
	if st.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: %w: %s size %d is not page aligned (truncated or not a page file)", ErrCorrupt, path, st.Size())
	}
	return &OSFile{f: f, numPages: int(st.Size() / PageSize), readOnly: true}, nil
}

// NumPages implements PageFile.
func (f *OSFile) NumPages() int { return f.numPages }

// ReadPage implements PageFile. A read that returns fewer than PageSize
// bytes (a file truncated underneath the directory, a racing writer) is an
// error: the caller's buffer is a recycled frame, and a short read would
// silently leave the previous occupant's bytes in the tail.
func (f *OSFile) ReadPage(id PageID, buf []byte) error {
	if err := checkReadBuf(buf); err != nil {
		return err
	}
	if id < 0 || int(id) >= f.numPages {
		return fmt.Errorf("%w: read %d of %d", ErrPageBounds, id, f.numPages)
	}
	n, err := f.f.ReadAt(buf, int64(id)*PageSize)
	if n != PageSize {
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("storage: short read of page %d (%d of %d bytes): %w", id, n, PageSize, err)
	}
	return nil
}

// WritePage implements PageFile.
func (f *OSFile) WritePage(id PageID, data []byte) error {
	if f.readOnly {
		return fmt.Errorf("%w: cannot write page %d", ErrReadOnly, id)
	}
	if len(data) != PageSize {
		return fmt.Errorf("storage: write of %d bytes, want %d", len(data), PageSize)
	}
	if id < 0 || int(id) > f.numPages {
		return fmt.Errorf("%w: write %d of %d", ErrPageBounds, id, f.numPages)
	}
	if _, err := f.f.WriteAt(data, int64(id)*PageSize); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	if int(id) == f.numPages {
		f.numPages++
	}
	return nil
}

// AppendPage implements PageFile.
func (f *OSFile) AppendPage(data []byte) (PageID, error) {
	id := PageID(f.numPages)
	return id, f.WritePage(id, data)
}

// Sync commits the written pages to stable storage.
func (f *OSFile) Sync() error { return f.f.Sync() }

// Close implements PageFile.
func (f *OSFile) Close() error { return f.f.Close() }

// Backend identifies a page-file implementation.
type Backend int

const (
	// BackendMem serves pages from heap slices (MemFile) — the default for
	// experiments, where page-access metrics matter but I/O noise does not.
	BackendMem Backend = iota
	// BackendFile serves pages from a real file via pread (OSFile).
	BackendFile
	// BackendMmap serves pages from a read-only memory mapping (MmapFile):
	// the OS pages them in lazily, so networks larger than RAM open without
	// copying a byte onto the heap. Falls back to BackendFile on platforms
	// or filesystems where mapping fails.
	BackendMmap
)

// String names the backend as exposed in metrics ("mem", "file", "mmap").
func (b Backend) String() string {
	switch b {
	case BackendMem:
		return "mem"
	case BackendFile:
		return "file"
	case BackendMmap:
		return "mmap"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// Open opens an existing page file at path read-only with the requested
// backend, returning the file and the backend actually chosen: asking for
// BackendMmap degrades gracefully to BackendFile when the platform or
// filesystem cannot map the file. BackendMem is not openable from a path
// (MemFiles have no persistent form).
func Open(path string, backend Backend) (PageFile, Backend, error) {
	switch backend {
	case BackendFile:
		f, err := OpenOSFile(path)
		return f, BackendFile, err
	case BackendMmap:
		if f, err := OpenMmapFile(path); err == nil {
			return f, BackendMmap, nil
		}
		f, err := OpenOSFile(path)
		return f, BackendFile, err
	default:
		return nil, backend, fmt.Errorf("storage: backend %v cannot open %s", backend, path)
	}
}
