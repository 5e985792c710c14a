package storage

import (
	"fmt"
	"os"
	"unsafe"
)

// HostLittleEndian reports whether the running process stores integers and
// floats least significant byte first, as every file format of a network
// directory does: only then may typed slices alias mapped file bytes.
func HostLittleEndian() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// MmapFile is a read-only PageFile over a memory-mapped file. Pages are
// served as slices into the mapping — the OS faults them in lazily and may
// evict them under memory pressure — so a network much larger than RAM can
// be opened without copying any page onto the heap.
//
// MmapFile implements PageMapper; a BufferPool over it hands out mapping
// slices directly instead of copying into frames, while keeping its LRU
// bookkeeping (and therefore the Gets/Misses counters) bit-identical to a
// pool over any other backend.
type MmapFile struct {
	data     []byte // the whole mapping, numPages*PageSize bytes, nil when empty
	unmap    func() error
	numPages int
}

// OpenMmapFile memory-maps the page file at path read-only. It fails where
// mapping is unavailable (platform without mmap, filesystems that refuse
// MAP_SHARED) — callers wanting a graceful fallback use Open with
// BackendMmap.
func OpenMmapFile(path string) (*MmapFile, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	if st.Size()%PageSize != 0 {
		return nil, fmt.Errorf("storage: %w: %s size %d is not page aligned (truncated or not a page file)", ErrCorrupt, path, st.Size())
	}
	if st.Size() == 0 {
		// A zero-length mapping is invalid; an empty page file needs none.
		return &MmapFile{}, nil
	}
	data, unmap, err := MapFile(path)
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != st.Size() {
		unmap()
		return nil, fmt.Errorf("storage: %s mapped %d of %d bytes", path, len(data), st.Size())
	}
	return &MmapFile{data: data, unmap: unmap, numPages: int(st.Size() / PageSize)}, nil
}

// NumPages implements PageFile.
func (f *MmapFile) NumPages() int { return f.numPages }

// Page implements PageMapper: it returns page id as a read-only slice
// aliasing the mapping, with no copy.
func (f *MmapFile) Page(id PageID) ([]byte, error) {
	if id < 0 || int(id) >= f.numPages {
		return nil, fmt.Errorf("%w: read %d of %d", ErrPageBounds, id, f.numPages)
	}
	off := int(id) * PageSize
	return f.data[off : off+PageSize : off+PageSize], nil
}

// ReadPage implements PageFile by copying the mapped page into buf, for
// callers that need the PageFile contract rather than the zero-copy path.
func (f *MmapFile) ReadPage(id PageID, buf []byte) error {
	if err := checkReadBuf(buf); err != nil {
		return err
	}
	p, err := f.Page(id)
	if err != nil {
		return err
	}
	copy(buf, p)
	return nil
}

// WritePage implements PageFile; the mapping is read-only.
func (f *MmapFile) WritePage(id PageID, _ []byte) error {
	return fmt.Errorf("%w: cannot write page %d", ErrReadOnly, id)
}

// AppendPage implements PageFile; the mapping is read-only.
func (f *MmapFile) AppendPage([]byte) (PageID, error) {
	return InvalidPage, fmt.Errorf("%w: cannot append", ErrReadOnly)
}

// Close unmaps the file. Pages handed out earlier (directly or through a
// BufferPool) must not be touched afterward.
func (f *MmapFile) Close() error {
	if f.unmap == nil {
		return nil
	}
	u := f.unmap
	f.unmap, f.data, f.numPages = nil, nil, 0
	return u()
}
