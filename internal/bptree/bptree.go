// Package bptree implements a disk-paged B+-tree with int64 keys and
// fixed-size values.
//
// The skyline engine uses it as the middle-layer index of paper Section 3:
// keyed by edge id, it maps every network edge to the pack of data objects
// lying on that edge, so a wavefront expansion can check an edge for
// objects with one or two buffered page reads.
//
// Writes (Insert, bulk Build) go straight to the page file; reads (Get,
// Scan) go through a BufferPool so faults are counted as disk accesses.
// After writing, call Pool().Invalidate() before reading if the tree was
// modified since the pool last saw it.
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
//	bytes 3-6   leaf: next sibling page id (-1 none); internal: child[0]
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
	size    int // number of keys

	leafCap     int
	internalCap int
	scratch     []byte // one-page scratch buffer for writes
}

// ErrNotFound is returned by Get when the key is absent.
var ErrNotFound = errors.New("bptree: key not found")

// New creates an empty tree with fixed valSize-byte values on a fresh page
// file, reading through a pool of bufferBytes.
func New(file storage.PageFile, bufferBytes, valSize int) (*Tree, error) {
	if valSize <= 0 || valSize > 256 {
		return nil, fmt.Errorf("bptree: invalid value size %d", valSize)
	}
	t := &Tree{
		file:        file,
		pool:        storage.NewBufferPool(file, bufferBytes),
		valSize:     valSize,
		leafCap:     (storage.PageSize - headerSize) / (8 + valSize),
		internalCap: (storage.PageSize - headerSize) / (8 + 4),
		scratch:     make([]byte, storage.PageSize),
	}
	// Empty leaf root.
	initPage(t.scratch, kindLeaf)
	root, err := file.AppendPage(t.scratch)
	if err != nil {
		return nil, err
	}
	t.root = root
	t.height = 1
	return t, nil
}

// Meta is the handful of scalars that, together with the page file,
// reconstruct a Tree: persist it (e.g. in a manifest) and pass it to Open
// to reopen a tree built in an earlier process.
type Meta struct {
	Root    storage.PageID `json:"root"`
	Height  int            `json:"height"`
	Size    int            `json:"size"`
	ValSize int            `json:"valSize"`
	// Pages is the page file's length when the Meta was taken; Open holds
	// the file to it, so a truncated index fails there and not in a Get.
	Pages int `json:"pages"`
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
		size:        m.Size,
		leafCap:     (storage.PageSize - headerSize) / (8 + m.ValSize),
		internalCap: (storage.PageSize - headerSize) / (8 + 4),
		scratch:     make([]byte, storage.PageSize),
	}, nil
}

// Pool returns the read-side buffer pool, exposing its I/O statistics.
func (t *Tree) Pool() *storage.BufferPool { return t.pool }

// Clone returns an independent reader over the same pages: structure and
// file are shared, the buffer pool is fresh. Clones may read concurrently
// as long as no clone writes.
func (t *Tree) Clone(bufferBytes int) *Tree {
	c := *t
	c.pool = storage.NewBufferPool(t.file, bufferBytes)
	c.scratch = make([]byte, storage.PageSize)
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

// readForWrite reads page id into buf directly from the file (no stats).
func (t *Tree) readForWrite(id storage.PageID, buf []byte) error {
	return t.file.ReadPage(id, buf)
}

// Get copies the value stored under key into dst (which must be at least
// valSize bytes). An absent key is reported as ErrNotFound itself, never
// wrapped, so callers on the probe path may compare with ==. Reads are
// buffered and counted.
func (t *Tree) Get(key int64, dst []byte) error {
	page := t.root
	for level := t.height; level > 1; level-- {
		p, err := t.pool.Get(page)
		if err != nil {
			return err
		}
		page = intChild(p, childIndex(p, key))
	}
	p, err := t.pool.Get(page)
	if err != nil {
		return err
	}
	n := getCount(p)
	if i := searchKeys(p, n, 8+t.valSize, key); i < n && t.leafKey(p, i) == key {
		copy(dst, t.leafVal(p, i))
		return nil
	}
	return ErrNotFound
}

// childIndex returns which child of internal page p covers key.
func childIndex(p []byte, key int64) int {
	n := getCount(p)
	// First key[i] > key means child i; all keys <= key means child n.
	// Separators are distinct, so that is one past an exact match.
	i := searchKeys(p, n, 12, key)
	if i < n && intKey(p, i) == key {
		i++
	}
	return i
}

// Scan calls fn for every (key, value) with from <= key <= to in ascending
// key order, stopping early when fn returns false. The value slice aliases
// the buffer frame and must not be retained.
func (t *Tree) Scan(from, to int64, fn func(key int64, val []byte) bool) error {
	page := t.root
	for level := t.height; level > 1; level-- {
		p, err := t.pool.Get(page)
		if err != nil {
			return err
		}
		page = intChild(p, childIndex(p, from))
	}
	for page != storage.InvalidPage {
		p, err := t.pool.Get(page)
		if err != nil {
			return err
		}
		n := getCount(p)
		for i := searchKeys(p, n, 8+t.valSize, from); i < n; i++ {
			k := t.leafKey(p, i)
			if k > to {
				return nil
			}
			if !fn(k, t.leafVal(p, i)) {
				return nil
			}
		}
		page = getPage(p[3:])
	}
	return nil
}

// Insert stores val under key, replacing any existing value. val must be
// exactly valSize bytes.
func (t *Tree) Insert(key int64, val []byte) error {
	if len(val) != t.valSize {
		return fmt.Errorf("bptree: value size %d, want %d", len(val), t.valSize)
	}
	sep, right, grew, err := t.insertAt(t.root, t.height, key, val)
	if err != nil {
		return err
	}
	if grew {
		t.size++
	}
	// Writes bypass the read pool, so cached frames may now be stale.
	t.pool.Invalidate()
	if right == storage.InvalidPage {
		return nil
	}
	// Root split: new internal root with two children.
	initPage(t.scratch, kindInternal)
	putPage(t.scratch[3:], t.root)
	putIntEntry(t.scratch, 0, sep, right)
	putCount(t.scratch, 1)
	newRoot, err := t.file.AppendPage(t.scratch)
	if err != nil {
		return err
	}
	t.root = newRoot
	t.height++
	return nil
}

// insertAt inserts into the subtree rooted at page (at the given level;
// level 1 = leaf). When the page splits it returns the separator key and
// the new right sibling page; otherwise right is InvalidPage. grew reports
// whether the key count increased (false on overwrite).
func (t *Tree) insertAt(page storage.PageID, level int, key int64, val []byte) (sep int64, right storage.PageID, grew bool, err error) {
	// The buffer is oversized: a page may briefly hold cap+1 entries before
	// it is split, and only the first PageSize bytes are ever written back.
	buf := make([]byte, storage.PageSize+8+t.valSize+12)
	if err := t.readForWrite(page, buf[:storage.PageSize]); err != nil {
		return 0, storage.InvalidPage, false, err
	}
	if level == 1 {
		return t.insertLeaf(page, buf, key, val)
	}
	ci := childIndex(buf, key)
	child := intChild(buf, ci)
	childSep, childRight, grew, err := t.insertAt(child, level-1, key, val)
	if err != nil || childRight == storage.InvalidPage {
		return 0, storage.InvalidPage, grew, err
	}
	// Insert (childSep, childRight) after child ci.
	n := getCount(buf)
	// Shift entries [ci, n) one slot right.
	copy(buf[headerSize+(ci+1)*12:headerSize+(n+1)*12], buf[headerSize+ci*12:headerSize+n*12])
	putIntEntry(buf, ci, childSep, childRight)
	n++
	putCount(buf, n)
	if n <= t.internalCap {
		return 0, storage.InvalidPage, grew, t.file.WritePage(page, buf[:storage.PageSize])
	}
	// Split internal page: left keeps half keys, middle key moves up.
	half := n / 2
	sep = intKey(buf, half)
	rbuf := make([]byte, storage.PageSize)
	initPage(rbuf, kindInternal)
	putPage(rbuf[3:], intChild(buf, half+1))
	rn := n - half - 1
	copy(rbuf[headerSize:headerSize+rn*12], buf[headerSize+(half+1)*12:headerSize+n*12])
	putCount(rbuf, rn)
	putCount(buf, half)
	rightID, err := t.file.AppendPage(rbuf)
	if err != nil {
		return 0, storage.InvalidPage, grew, err
	}
	return sep, rightID, grew, t.file.WritePage(page, buf[:storage.PageSize])
}

func (t *Tree) insertLeaf(page storage.PageID, buf []byte, key int64, val []byte) (sep int64, right storage.PageID, grew bool, err error) {
	n := getCount(buf)
	es := 8 + t.valSize
	i := searchKeys(buf, n, es, key)
	if i < n && t.leafKey(buf, i) == key {
		copy(buf[headerSize+i*es+8:headerSize+i*es+8+t.valSize], val)
		return 0, storage.InvalidPage, false, t.file.WritePage(page, buf[:storage.PageSize])
	}
	copy(buf[headerSize+(i+1)*es:headerSize+(n+1)*es], buf[headerSize+i*es:headerSize+n*es])
	t.putLeafEntry(buf, i, key, val)
	n++
	putCount(buf, n)
	if n <= t.leafCap {
		return 0, storage.InvalidPage, true, t.file.WritePage(page, buf[:storage.PageSize])
	}
	// Split leaf: right sibling takes the upper half.
	half := n / 2
	rbuf := make([]byte, storage.PageSize)
	initPage(rbuf, kindLeaf)
	rn := n - half
	copy(rbuf[headerSize:headerSize+rn*es], buf[headerSize+half*es:headerSize+n*es])
	putCount(rbuf, rn)
	putPage(rbuf[3:], getPage(buf[3:])) // right inherits old next pointer
	rightID, err := t.file.AppendPage(rbuf)
	if err != nil {
		return 0, storage.InvalidPage, true, err
	}
	putCount(buf, half)
	putPage(buf[3:], rightID)
	return t.leafKey(rbuf, 0), rightID, true, t.file.WritePage(page, buf[:storage.PageSize])
}

// Build bulk-loads a tree bottom-up from key-ascending pairs, which is both
// faster and denser than repeated Insert. keys must be strictly increasing;
// vals[i] is the valSize-byte value of keys[i].
func Build(file storage.PageFile, bufferBytes, valSize int, keys []int64, vals [][]byte) (*Tree, error) {
	if len(keys) != len(vals) {
		return nil, fmt.Errorf("bptree: %d keys but %d values", len(keys), len(vals))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return nil, fmt.Errorf("bptree: keys not strictly increasing at %d", i)
		}
	}
	t, err := New(file, bufferBytes, valSize)
	if err != nil {
		return nil, err
	}
	if len(keys) == 0 {
		return t, nil
	}
	// Fill leaves to ~90% so later inserts don't immediately split.
	perLeaf := t.leafCap * 9 / 10
	if perLeaf < 1 {
		perLeaf = 1
	}
	type levelEntry struct {
		minKey int64
		page   storage.PageID
	}
	var level []levelEntry
	buf := make([]byte, storage.PageSize)
	var prevLeaf storage.PageID = t.root // reuse the empty root page as first leaf
	for start := 0; start < len(keys); {
		end := start + perLeaf
		if end > len(keys) {
			end = len(keys)
		}
		initPage(buf, kindLeaf)
		for i := start; i < end; i++ {
			t.putLeafEntry(buf, i-start, keys[i], vals[i])
			if len(vals[i]) != valSize {
				return nil, fmt.Errorf("bptree: value %d has size %d, want %d", i, len(vals[i]), valSize)
			}
		}
		putCount(buf, end-start)
		var id storage.PageID
		if start == 0 {
			id = t.root
			if err := file.WritePage(id, buf); err != nil {
				return nil, err
			}
		} else {
			var err error
			if id, err = file.AppendPage(buf); err != nil {
				return nil, err
			}
			// Link previous leaf to this one.
			if err := file.ReadPage(prevLeaf, buf); err != nil {
				return nil, err
			}
			putPage(buf[3:], id)
			if err := file.WritePage(prevLeaf, buf); err != nil {
				return nil, err
			}
		}
		level = append(level, levelEntry{keys[start], id})
		prevLeaf = id
		start = end
	}
	t.size = len(keys)
	// Build internal levels until a single root remains.
	perNode := t.internalCap * 9 / 10
	if perNode < 2 {
		perNode = 2
	}
	for len(level) > 1 {
		var next []levelEntry
		for start := 0; start < len(level); {
			end := start + perNode + 1 // a node with k keys has k+1 children
			if end > len(level) {
				end = len(level)
			}
			if len(level)-end == 1 { // avoid a trailing single-child node
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
	t.pool.Invalidate()
	return t, nil
}
