package storage

import "fmt"

// Stats counts buffer pool activity. Misses is the paper's "disk pages
// accessed" metric: the number of pages physically faulted in from the file.
type Stats struct {
	Gets   int64 // logical page requests
	Misses int64 // physical page reads (buffer faults)
}

// PageMapper is implemented by page files whose pages are directly
// addressable in memory (MmapFile): Page returns page id as a read-only
// slice aliasing the mapping, with no copy.
type PageMapper interface {
	Page(id PageID) ([]byte, error)
}

// BufferPool is an LRU page cache in front of a PageFile. It serves
// read-only workloads (the engine builds files up front and queries them),
// is not safe for concurrent use, and hands out direct references to cached
// frames: a slice returned by Get is valid only until the next Get call.
//
// Over a PageMapper (an mmap-backed file) the pool skips frame copies
// entirely — Get returns the mapping's slice — but keeps the same LRU
// bookkeeping, so Gets and Misses are bit-identical to a pool of the same
// capacity over any other backend: the paper's "disk pages accessed"
// metric stays honest whichever tier serves the bytes.
type BufferPool struct {
	file   PageFile
	mapper PageMapper // non-nil when file serves zero-copy pages
	frames []frame
	where  []int32 // page -> frame index + 1, 0 = not cached; grown on demand
	head   int32   // most recently used, -1 when empty
	tail   int32   // least recently used, -1 when empty
	free   int32   // next unused frame, len(frames) when full
	stats  Stats
}

type frame struct {
	page       PageID // InvalidPage while the frame holds nothing
	prev, next int32
	data       []byte
}

// NewBufferPool returns a buffer pool of bufferBytes/PageSize frames (at
// least one) over file.
func NewBufferPool(file PageFile, bufferBytes int) *BufferPool {
	n := bufferBytes / PageSize
	if n < 1 {
		n = 1
	}
	b := &BufferPool{
		file:   file,
		frames: make([]frame, n),
		where:  make([]int32, file.NumPages()),
		head:   -1,
		tail:   -1,
	}
	if m, ok := file.(PageMapper); ok {
		// Zero-copy mode: frames point into the mapping, no backing buffer.
		b.mapper = m
		return b
	}
	backing := make([]byte, n*PageSize)
	for i := range b.frames {
		b.frames[i].data = backing[i*PageSize : (i+1)*PageSize]
	}
	return b
}

// Mapped reports whether the pool serves zero-copy pages from a mapping.
func (b *BufferPool) Mapped() bool { return b.mapper != nil }

// Capacity returns the number of frames in the pool.
func (b *BufferPool) Capacity() int { return len(b.frames) }

// Stats returns the counters accumulated since the last ResetStats.
func (b *BufferPool) Stats() Stats { return b.stats }

// ResetStats zeroes the counters without touching cache contents, so a
// warm-cache query can be measured in isolation.
func (b *BufferPool) ResetStats() { b.stats = Stats{} }

// Invalidate drops every cached frame, forcing subsequent Gets to fault. It
// clears the page table entry of each resident frame rather than the whole
// table, so a cold query pays for the pool's size, not the file's.
func (b *BufferPool) Invalidate() {
	for i := range b.frames[:b.free] {
		if pg := b.frames[i].page; pg != InvalidPage {
			b.where[pg] = 0
		}
	}
	b.head, b.tail, b.free = -1, -1, 0
}

// Get returns the contents of page id, faulting it in on a miss. The
// returned slice aliases the cache frame and is valid only until the next
// call to Get; callers must decode, not retain.
func (b *BufferPool) Get(id PageID) ([]byte, error) {
	b.stats.Gets++
	if uint(id) < uint(len(b.where)) {
		if fi := b.where[id] - 1; fi >= 0 {
			b.touch(fi)
			return b.frames[fi].data, nil
		}
	}
	b.stats.Misses++
	// The frame to fill is the next unused one or, once all are in use, the
	// least recently used. It stays where it is (free run or LRU tail) until
	// the read has succeeded, so a failed read costs the pool no frame. A
	// reused frame forgets its page first: a failed copy may leave it half
	// overwritten (a mapper overwrites nothing but follows the same rule, so
	// counters stay equal across backends), and it then waits at the tail,
	// empty, for the next miss.
	fi := b.free
	unused := int(fi) < len(b.frames)
	if !unused {
		fi = b.tail
		if pg := b.frames[fi].page; pg != InvalidPage {
			b.where[pg] = 0
			b.frames[fi].page = InvalidPage
		}
	}
	if b.mapper != nil {
		p, err := b.mapper.Page(id)
		if err != nil {
			return nil, fmt.Errorf("buffer pool: %w", err)
		}
		b.frames[fi].data = p
	} else if err := b.file.ReadPage(id, b.frames[fi].data); err != nil {
		return nil, fmt.Errorf("buffer pool: %w", err)
	}
	if int(id) >= len(b.where) {
		// The file has grown since the pool was built: nothing in the
		// engine appends under a live pool, but a PageFile may (the model
		// in FuzzBufferPool does).
		n := max(int(id)+1, b.file.NumPages())
		b.where = append(b.where, make([]int32, n-len(b.where))...)
	}
	b.frames[fi].page = id
	b.where[id] = fi + 1
	if unused {
		b.free++
		b.pushFront(fi)
	} else {
		b.touch(fi)
	}
	return b.frames[fi].data, nil
}

func (b *BufferPool) touch(fi int32) {
	if b.head == fi {
		return
	}
	b.unlink(fi)
	b.pushFront(fi)
}

func (b *BufferPool) pushFront(fi int32) {
	b.frames[fi].prev = -1
	b.frames[fi].next = b.head
	if b.head >= 0 {
		b.frames[b.head].prev = fi
	}
	b.head = fi
	if b.tail < 0 {
		b.tail = fi
	}
}

func (b *BufferPool) unlink(fi int32) {
	p, n := b.frames[fi].prev, b.frames[fi].next
	if p >= 0 {
		b.frames[p].next = n
	} else {
		b.head = n
	}
	if n >= 0 {
		b.frames[n].prev = p
	} else {
		b.tail = p
	}
}
