// Package bptree implements a disk-paged B+-tree with int64 keys and
// fixed-size values.
//
// The skyline engine uses it as the middle-layer index of paper Section 3:
// keyed by edge id, it maps every network edge to the pack of data objects
// lying on that edge, so a wavefront expansion can check an edge for
// objects with one or two buffered page reads.
//
// A tree is bulk-built once (Build) or reopened from its Meta (Open) and
// never modified: Build writes straight to the page file, and lookups (Get)
// go through a BufferPool so faults are counted as disk accesses.
package bptree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"roadskyline/internal/storage"
)

// Page layout (little endian):
//
//	byte  0     kind: 0 = leaf, 1 = internal
//	bytes 1-2   count: number of keys
//	bytes 3-6   leaf: -1 (unused); internal: child[0]
//	bytes 7...  leaf: count * (key int64, value [valSize]byte)
//	            internal: count * (key int64, child int32); key[i] is the
//	            smallest key reachable under child[i+1]
const (
	kindLeaf     = 0
	kindInternal = 1
	headerSize   = 7
)

// Tree is a B+-tree over a page file.
type Tree struct {
	file    storage.PageFile
	pool    *storage.BufferPool
	valSize int
	root    storage.PageID
	height  int // 1 = root is a leaf
	pages   int // the file's page count, which bounds every child id
	size    int // number of keys

	leafCap     int
	internalCap int
}

// ErrNotFound is returned by Get when the key is absent.
var ErrNotFound = errors.New("bptree: key not found")

// Meta is the handful of scalars that, together with the page file,
// reconstruct a Tree: persist it (a network directory keeps it in its
// slab) and pass it to Open to reopen a tree built in an earlier process.
type Meta struct {
	Root    storage.PageID
	Height  int
	Size    int
	ValSize int
	// Pages is the page file's length when the Meta was taken; Open holds
	// the file to it, so a truncated index fails there and not in a Get.
	Pages int
}

// Meta returns the tree's reopen metadata.
func (t *Tree) Meta() Meta {
	return Meta{Root: t.root, Height: t.height, Size: t.size, ValSize: t.valSize, Pages: t.file.NumPages()}
}

// Open reconstructs a read-only view of a tree previously built on file,
// from the Meta captured at build time.
func Open(file storage.PageFile, bufferBytes int, m Meta) (*Tree, error) {
	if m.ValSize <= 0 || m.ValSize > 256 {
		return nil, fmt.Errorf("bptree: %w: invalid value size %d", storage.ErrCorrupt, m.ValSize)
	}
	if m.Pages != file.NumPages() {
		return nil, fmt.Errorf("bptree: %w: meta describes %d pages, file has %d", storage.ErrCorrupt, m.Pages, file.NumPages())
	}
	if m.Root < 0 || int(m.Root) >= file.NumPages() {
		return nil, fmt.Errorf("bptree: %w: root page %d outside file of %d pages", storage.ErrCorrupt, m.Root, file.NumPages())
	}
	if m.Height < 1 || m.Size < 0 {
		return nil, fmt.Errorf("bptree: %w: invalid meta height %d size %d", storage.ErrCorrupt, m.Height, m.Size)
	}
	return &Tree{
		file:        file,
		pool:        storage.NewBufferPool(file, bufferBytes),
		valSize:     m.ValSize,
		root:        m.Root,
		height:      m.Height,
		pages:       m.Pages,
		size:        m.Size,
		leafCap:     (storage.PageSize - headerSize) / (8 + m.ValSize),
		internalCap: (storage.PageSize - headerSize) / (8 + 4),
	}, nil
}

// Pool returns the read-side buffer pool, exposing its I/O statistics.
func (t *Tree) Pool() *storage.BufferPool { return t.pool }

// Clone returns an independent reader over the same pages: structure and
// file are shared, the buffer pool is fresh. Clones may read concurrently.
func (t *Tree) Clone(bufferBytes int) *Tree {
	c := *t
	c.pool = storage.NewBufferPool(t.file, bufferBytes)
	return &c
}

// Len returns the number of keys stored.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (1 when the root is a leaf).
func (t *Tree) Height() int { return t.height }

func initPage(p []byte, kind byte) {
	clear(p)
	p[0] = kind
	putCount(p, 0)
	putPage(p[3:], storage.InvalidPage)
}

func putCount(p []byte, n int)            { binary.LittleEndian.PutUint16(p[1:], uint16(n)) }
func getCount(p []byte) int               { return int(binary.LittleEndian.Uint16(p[1:])) }
func putPage(b []byte, id storage.PageID) { binary.LittleEndian.PutUint32(b, uint32(id)) }
func getPage(b []byte) storage.PageID     { return storage.PageID(int32(binary.LittleEndian.Uint32(b))) }

// searchKeys returns the first of the n entries of page p whose key is
// >= key, or n when every key is smaller. Entries are stride bytes apart and
// begin with their little-endian int64 key, on leaves and internal pages
// alike.
func searchKeys(p []byte, n, stride int, key int64) int {
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int64(binary.LittleEndian.Uint64(p[headerSize+mid*stride:])) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// leafKey returns the i-th key of a leaf page.
func (t *Tree) leafKey(p []byte, i int) int64 {
	off := headerSize + i*(8+t.valSize)
	return int64(binary.LittleEndian.Uint64(p[off:]))
}

// leafVal returns the i-th value of a leaf page (aliases p).
func (t *Tree) leafVal(p []byte, i int) []byte {
	off := headerSize + i*(8+t.valSize) + 8
	return p[off : off+t.valSize]
}

func (t *Tree) putLeafEntry(p []byte, i int, key int64, val []byte) {
	off := headerSize + i*(8+t.valSize)
	binary.LittleEndian.PutUint64(p[off:], uint64(key))
	copy(p[off+8:off+8+t.valSize], val)
}

// internal entry accessors: child[0] lives in the header; entry i holds
// (key[i], child[i+1]).
func intKey(p []byte, i int) int64 {
	off := headerSize + i*12
	return int64(binary.LittleEndian.Uint64(p[off:]))
}

func intChild(p []byte, i int) storage.PageID {
	if i == 0 {
		return getPage(p[3:])
	}
	off := headerSize + (i-1)*12 + 8
	return getPage(p[off:])
}

func putIntEntry(p []byte, i int, key int64, child storage.PageID) {
	off := headerSize + i*12
	binary.LittleEndian.PutUint64(p[off:], uint64(key))
	putPage(p[off+8:], child)
}

// Get copies the value stored under key into dst (which must be at least
// valSize bytes). An absent key is reported as ErrNotFound itself, never
// wrapped, so callers on the probe path may compare with ==. Reads are
// buffered and counted. A page whose count has no room on it, or an
// internal page naming a child outside the file, is reported as
// storage.ErrCorrupt: page bytes are not checked at open, so a damaged page
// is first seen here.
func (t *Tree) Get(key int64, dst []byte) error {
	page := t.root
	for level := t.height; level > 1; level-- {
		p, n, err := t.page(page, t.internalCap)
		if err != nil {
			return err
		}
		child := intChild(p, childIndex(p, n, key))
		if child < 0 || int(child) >= t.pages {
			return fmt.Errorf("bptree: %w: page %d names child %d outside the file's %d pages",
				storage.ErrCorrupt, page, child, t.pages)
		}
		page = child
	}
	p, n, err := t.page(page, t.leafCap)
	if err != nil {
		return err
	}
	if i := searchKeys(p, n, 8+t.valSize, key); i < n && t.leafKey(p, i) == key {
		copy(dst, t.leafVal(p, i))
		return nil
	}
	return ErrNotFound
}

// page reads page id through the pool and returns it with its entry count,
// which must fit the page's capacity.
func (t *Tree) page(id storage.PageID, capacity int) ([]byte, int, error) {
	p, err := t.pool.Get(id)
	if err != nil {
		return nil, 0, err
	}
	n := getCount(p)
	if n > capacity {
		return nil, 0, fmt.Errorf("bptree: %w: page %d counts %d entries, room for %d", storage.ErrCorrupt, id, n, capacity)
	}
	return p, n, nil
}

// childIndex returns which child of internal page p, holding n keys, covers
// key.
func childIndex(p []byte, n int, key int64) int {
	// First key[i] > key means child i; all keys <= key means child n.
	// Separators are distinct, so that is one past an exact match.
	i := searchKeys(p, n, 12, key)
	if i < n && intKey(p, i) == key {
		i++
	}
	return i
}

// Build bulk-loads a tree bottom-up from key-ascending pairs onto a fresh
// page file, reading through a pool of bufferBytes. keys must be strictly
// increasing; vals[i] is the valSize-byte value of keys[i]. An empty tree
// is one empty leaf.
func Build(file storage.PageFile, bufferBytes, valSize int, keys []int64, vals [][]byte) (*Tree, error) {
	if valSize <= 0 || valSize > 256 {
		return nil, fmt.Errorf("bptree: invalid value size %d", valSize)
	}
	if len(keys) != len(vals) {
		return nil, fmt.Errorf("bptree: %d keys but %d values", len(keys), len(vals))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return nil, fmt.Errorf("bptree: keys not strictly increasing at %d", i)
		}
	}
	for i, v := range vals {
		if len(v) != valSize {
			return nil, fmt.Errorf("bptree: value %d has size %d, want %d", i, len(v), valSize)
		}
	}
	t := &Tree{
		file:        file,
		valSize:     valSize,
		height:      1,
		size:        len(keys),
		leafCap:     (storage.PageSize - headerSize) / (8 + valSize),
		internalCap: (storage.PageSize - headerSize) / (8 + 4),
	}
	// Leaves and nodes are filled to 9/10 of capacity. Nothing is ever
	// inserted, but the fill fixes the middle layer's page count, which is
	// part of every query's NetworkPages and of the pinned counters.
	perLeaf := max(t.leafCap*9/10, 1)
	type levelEntry struct {
		minKey int64
		page   storage.PageID
	}
	leaves := max((len(keys)+perLeaf-1)/perLeaf, 1)
	level := make([]levelEntry, 0, leaves)
	buf := make([]byte, storage.PageSize)
	for l := 0; l < leaves; l++ {
		start, end := l*perLeaf, min((l+1)*perLeaf, len(keys))
		initPage(buf, kindLeaf)
		for i := start; i < end; i++ {
			t.putLeafEntry(buf, i-start, keys[i], vals[i])
		}
		putCount(buf, end-start)
		id, err := file.AppendPage(buf)
		if err != nil {
			return nil, err
		}
		e := levelEntry{page: id}
		if start < end {
			e.minKey = keys[start]
		}
		level = append(level, e)
	}
	// Build internal levels until a single root remains.
	perNode := max(t.internalCap*9/10, 2)
	for len(level) > 1 {
		var next []levelEntry
		for start := 0; start < len(level); {
			end := min(start+perNode+1, len(level)) // a node with k keys has k+1 children
			if len(level)-end == 1 {                // avoid a trailing single-child node
				end--
			}
			initPage(buf, kindInternal)
			putPage(buf[3:], level[start].page)
			for i := start + 1; i < end; i++ {
				putIntEntry(buf, i-start-1, level[i].minKey, level[i].page)
			}
			putCount(buf, end-start-1)
			id, err := file.AppendPage(buf)
			if err != nil {
				return nil, err
			}
			next = append(next, levelEntry{level[start].minKey, id})
			start = end
		}
		level = next
		t.height++
	}
	t.root = level[0].page
	t.pages = file.NumPages()
	t.pool = storage.NewBufferPool(file, bufferBytes)
	return t, nil
}
