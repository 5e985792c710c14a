package storage

import (
	"bytes"
	"container/list"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"
)

// A failed read used to leak the frame picked for it: after Capacity()
// failures the pool had no frame left and the next miss indexed frame -1.
func TestBufferPoolFailedReadKeepsFrames(t *testing.T) {
	b := NewBufferPool(memFileWithPages(t, 4), 2*PageSize)
	for i := 0; i < 3; i++ {
		if _, err := b.Get(100); !errors.Is(err, ErrPageBounds) {
			t.Fatalf("Get(100) #%d: error %v, want ErrPageBounds", i, err)
		}
	}
	// Both frames still serve: two pages fault in, then hit.
	for _, id := range []PageID{0, 1, 0, 1} {
		p, err := b.Get(id)
		if err != nil {
			t.Fatalf("Get(%d): %v", id, err)
		}
		if p[0] != byte(id) {
			t.Fatalf("Get(%d) returned page %d", id, p[0])
		}
	}
	// Failures on a full pool, where the frame comes off the LRU list.
	for i := 0; i < 3; i++ {
		if _, err := b.Get(-1); !errors.Is(err, ErrPageBounds) {
			t.Fatalf("Get(-1) #%d: error %v, want ErrPageBounds", i, err)
		}
	}
	if _, err := b.Get(2); err != nil {
		t.Fatalf("Get(2) after failed reads: %v", err)
	}
	if got, want := b.Stats(), (Stats{Gets: 11, Misses: 9}); got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
	if b.Capacity() != 2 {
		t.Fatalf("capacity %d, want 2", b.Capacity())
	}
}

// lruModel is the reference the pool is held to: an LRU set of page ids with
// the pool's two counters. A miss makes room before it reads, so a failed
// read on a full pool still evicts the least recently used page (its frame
// is the one the read scribbled on) and caches nothing.
type lruModel struct {
	capacity     int
	order        *list.List // front = most recently used
	at           map[PageID]*list.Element
	gets, misses int64
}

func newLRUModel(capacity int) *lruModel {
	return &lruModel{capacity: capacity, order: list.New(), at: map[PageID]*list.Element{}}
}

func (m *lruModel) get(id PageID, readable bool) {
	m.gets++
	if e, ok := m.at[id]; ok {
		m.order.MoveToFront(e)
		return
	}
	m.misses++
	if len(m.at) == m.capacity {
		delete(m.at, m.order.Remove(m.order.Back()).(PageID))
	}
	if readable {
		m.at[id] = m.order.PushFront(id)
	}
}

func (m *lruModel) invalidate() {
	m.order.Init()
	clear(m.at)
}

// poolBackends are the page files the model test runs over. Each starts
// with n pages (page i filled with byte i); grow reports whether the file
// accepts appends once a pool reads it (a mapping is fixed at open).
var poolBackends = []struct {
	name string
	open func(t *testing.T, n int) (f PageFile, grow bool)
}{
	{"mem", func(t *testing.T, n int) (PageFile, bool) { return memFileWithPages(t, n), true }},
	{"file", func(t *testing.T, n int) (PageFile, bool) {
		f, err := CreateOSFile(filepath.Join(t.TempDir(), "pages.db"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		for i := 0; i < n; i++ {
			if _, err := f.AppendPage(filledPage(byte(i))); err != nil {
				t.Fatal(err)
			}
		}
		return f, true
	}},
	{"mmap", func(t *testing.T, n int) (PageFile, bool) {
		path := filepath.Join(t.TempDir(), "pages.db")
		buildPageFile(t, path, n)
		f, err := OpenMmapFile(path)
		if err != nil {
			t.Skipf("mmap unavailable: %v", err)
		}
		t.Cleanup(func() { f.Close() })
		return f, false
	}},
}

// checkPoolAgainstModel drives one pool and the model with the operations
// encoded in ops, two bytes each (opcode, argument), and compares bytes
// returned, counters and the cached pages in LRU order after every step.
func checkPoolAgainstModel(t *testing.T, f PageFile, grow bool, capacity int, ops []byte) {
	t.Helper()
	b := NewBufferPool(f, capacity*PageSize)
	m := newLRUModel(capacity)
	if b.Capacity() != capacity {
		t.Fatalf("capacity %d, want %d", b.Capacity(), capacity)
	}
	for step := 0; step+1 < len(ops); step += 2 {
		op, arg := ops[step]%8, int(ops[step+1])
		n := f.NumPages()
		id := InvalidPage
		switch op {
		case 4:
			id = PageID(-1 - arg) // below the file
		case 5:
			id = PageID(n + arg) // beyond it
		case 6:
			if arg%2 == 0 {
				b.Invalidate()
				m.invalidate()
			} else {
				b.ResetStats()
				m.gets, m.misses = 0, 0
			}
		case 7:
			if grow {
				if _, err := f.AppendPage(filledPage(byte(n))); err != nil {
					t.Fatalf("step %d: AppendPage: %v", step/2, err)
				}
			}
		default:
			if n > 0 {
				id = PageID(arg % n)
			}
		}
		if op < 6 {
			readable := id >= 0 && int(id) < n
			m.get(id, readable)
			p, err := b.Get(id)
			switch {
			case readable && err != nil:
				t.Fatalf("step %d: Get(%d): %v", step/2, id, err)
			case readable && !bytes.Equal(p, filledPage(byte(id))):
				t.Fatalf("step %d: Get(%d) returned wrong bytes (first %d)", step/2, id, p[0])
			case !readable && !errors.Is(err, ErrPageBounds):
				t.Fatalf("step %d: Get(%d) of %d pages: error %v, want ErrPageBounds", step/2, id, n, err)
			}
		}
		if got, want := b.Stats(), (Stats{Gets: m.gets, Misses: m.misses}); got != want {
			t.Fatalf("step %d (op %d): stats %+v, model %+v", step/2, op, got, want)
		}
		// The LRU list, minus a frame a failed read left empty, is the model's.
		e := m.order.Front()
		for fi := b.head; fi >= 0; fi = b.frames[fi].next {
			pg := b.frames[fi].page
			if pg == InvalidPage {
				continue
			}
			if e == nil || e.Value.(PageID) != pg {
				t.Fatalf("step %d (op %d): pool caches page %d where the model has %v", step/2, op, pg, e)
			}
			if b.where[pg] != fi+1 {
				t.Fatalf("step %d (op %d): page table sends page %d to frame %d, it is in %d", step/2, op, pg, b.where[pg]-1, fi)
			}
			e = e.Next()
		}
		if e != nil {
			t.Fatalf("step %d (op %d): model caches page %d, pool does not", step/2, op, e.Value)
		}
		cached := 0
		for _, w := range b.where {
			if w != 0 {
				cached++
			}
		}
		if cached != len(m.at) {
			t.Fatalf("step %d (op %d): page table maps %d pages, model caches %d", step/2, op, cached, len(m.at))
		}
	}
}

func TestBufferPoolMatchesLRUModel(t *testing.T) {
	for _, be := range poolBackends {
		t.Run(be.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(20))
			for capacity := 1; capacity <= 8; capacity++ {
				for _, pages := range []int{0, 3, 12} {
					if pages == 0 && be.name == "mmap" {
						continue // nothing to read and no way to append
					}
					ops := make([]byte, 2*600)
					rng.Read(ops)
					f, grow := be.open(t, pages)
					checkPoolAgainstModel(t, f, grow, capacity, ops)
				}
			}
		})
	}
}

func FuzzBufferPool(f *testing.F) {
	// Seeds are the named files under testdata/fuzz/FuzzBufferPool.
	f.Fuzz(func(t *testing.T, backend, capacity uint8, ops []byte) {
		be := poolBackends[int(backend)%len(poolBackends)]
		file, grow := be.open(t, 12)
		checkPoolAgainstModel(t, file, grow, 1+int(capacity)%8, ops)
	})
}

// BenchmarkBufferPoolGet times Get on a 256-frame pool: hits cycle through a
// resident working set, misses through one twice the pool's size (every Get
// evicts), over a copying MemFile and over a mapping, which hands out pages
// without a copy.
func BenchmarkBufferPoolGet(b *testing.B) {
	const frames = 256
	mem := NewMemFile()
	path := filepath.Join(b.TempDir(), "pages.db")
	osf, err := CreateOSFile(path)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2*frames; i++ {
		mem.AppendPage(filledPage(byte(i)))
		if _, err := osf.AppendPage(filledPage(byte(i))); err != nil {
			b.Fatal(err)
		}
	}
	if err := osf.Close(); err != nil {
		b.Fatal(err)
	}
	files := map[string]PageFile{"mem": mem}
	if mf, err := OpenMmapFile(path); err == nil {
		defer mf.Close()
		files["mmap"] = mf
	}
	for _, backend := range []string{"mem", "mmap"} {
		f, ok := files[backend]
		if !ok {
			continue
		}
		for _, c := range []struct {
			name string
			span int
		}{{"hit", frames}, {"miss", 2 * frames}} {
			b.Run(backend+"/"+c.name, func(b *testing.B) {
				pool := NewBufferPool(f, frames*PageSize)
				for i := 0; i < c.span; i++ {
					if _, err := pool.Get(PageID(i)); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := pool.Get(PageID(i % c.span)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
