package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func filledPage(b byte) []byte {
	p := make([]byte, PageSize)
	for i := range p {
		p[i] = b
	}
	return p
}

func testPageFile(t *testing.T, f PageFile) {
	t.Helper()
	if f.NumPages() != 0 {
		t.Fatalf("new file has %d pages", f.NumPages())
	}
	id0, err := f.AppendPage(filledPage(1))
	if err != nil {
		t.Fatalf("AppendPage: %v", err)
	}
	if id0 != 0 || f.NumPages() != 1 {
		t.Fatalf("first append: id=%d pages=%d", id0, f.NumPages())
	}
	// Grow by writing at NumPages.
	if err := f.WritePage(1, filledPage(2)); err != nil {
		t.Fatalf("WritePage grow: %v", err)
	}
	// Overwrite in place.
	if err := f.WritePage(0, filledPage(9)); err != nil {
		t.Fatalf("WritePage overwrite: %v", err)
	}
	buf := make([]byte, PageSize)
	if err := f.ReadPage(0, buf); err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	if !bytes.Equal(buf, filledPage(9)) {
		t.Error("page 0 contents wrong after overwrite")
	}
	if err := f.ReadPage(1, buf); err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	if !bytes.Equal(buf, filledPage(2)) {
		t.Error("page 1 contents wrong")
	}
	// Bounds errors.
	if err := f.ReadPage(5, buf); err == nil {
		t.Error("out-of-bounds read succeeded")
	}
	if err := f.ReadPage(-1, buf); err == nil {
		t.Error("negative read succeeded")
	}
	if err := f.WritePage(7, filledPage(0)); err == nil {
		t.Error("sparse write succeeded")
	}
	if err := f.WritePage(0, []byte{1, 2, 3}); err == nil {
		t.Error("short write succeeded")
	}
	// Buffer validation must be symmetric with writes: reads into a
	// wrong-sized buffer fail instead of silently truncating or over-reading.
	if err := f.ReadPage(0, buf[:10]); err == nil {
		t.Error("read into undersized buffer succeeded")
	}
	if err := f.ReadPage(0, make([]byte, PageSize+1)); err == nil {
		t.Error("read into oversized buffer succeeded")
	}
}

func TestMemFile(t *testing.T) {
	testPageFile(t, NewMemFile())
}

func TestOSFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	f, err := CreateOSFile(path)
	if err != nil {
		t.Fatalf("CreateOSFile: %v", err)
	}
	testPageFile(t, f)
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Reopen and verify persistence.
	g, err := OpenOSFile(path)
	if err != nil {
		t.Fatalf("OpenOSFile: %v", err)
	}
	defer g.Close()
	if g.NumPages() != 2 {
		t.Fatalf("reopened pages = %d, want 2", g.NumPages())
	}
	buf := make([]byte, PageSize)
	if err := g.ReadPage(1, buf); err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	if !bytes.Equal(buf, filledPage(2)) {
		t.Error("persisted page contents wrong")
	}
}

func TestOpenOSFileErrors(t *testing.T) {
	if _, err := OpenOSFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("opening missing file succeeded")
	}
	// A file truncated mid-page is rejected at open rather than served with
	// a garbage tail page.
	for _, size := range []int{1, PageSize - 1, PageSize + 1, 2*PageSize - 100} {
		path := filepath.Join(t.TempDir(), "truncated.db")
		if err := os.WriteFile(path, make([]byte, size), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenOSFile(path); err == nil {
			t.Errorf("opening %d-byte file succeeded", size)
		}
	}
}

// OpenOSFile yields a read-only view: mutations must fail fast with
// ErrReadOnly instead of surfacing an EBADF deep inside a query.
func TestOSFileReadOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	buildPageFile(t, path, 2)
	f, err := OpenOSFile(path)
	if err != nil {
		t.Fatalf("OpenOSFile: %v", err)
	}
	defer f.Close()
	if err := f.WritePage(0, filledPage(7)); !errors.Is(err, ErrReadOnly) {
		t.Errorf("WritePage: %v, want ErrReadOnly", err)
	}
	if _, err := f.AppendPage(filledPage(7)); !errors.Is(err, ErrReadOnly) {
		t.Errorf("AppendPage: %v, want ErrReadOnly", err)
	}
	// Reads still work and contents are untouched.
	buf := make([]byte, PageSize)
	if err := f.ReadPage(0, buf); err != nil || buf[0] != 0 {
		t.Fatalf("ReadPage after failed write: %v (byte %d)", err, buf[0])
	}
}

// A file shrunk underneath an open OSFile must produce a wrapped
// unexpected-EOF error, not a silent partial page (the original code
// dropped io.EOF from ReadAt and returned garbage as success).
func TestOSFileShortRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	buildPageFile(t, path, 2)
	f, err := OpenOSFile(path)
	if err != nil {
		t.Fatalf("OpenOSFile: %v", err)
	}
	defer f.Close()
	if err := os.Truncate(path, PageSize+100); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	buf := filledPage(0xEE)
	err = f.ReadPage(1, buf)
	if err == nil {
		t.Fatal("short read returned success")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("short read error = %v, want io.ErrUnexpectedEOF", err)
	}
	// Page 0 is still fully readable.
	if err := f.ReadPage(0, buf); err != nil || buf[0] != 0 {
		t.Fatalf("ReadPage(0): %v (byte %d)", err, buf[0])
	}
}

// memFileWithPages builds a MemFile of n pages where page i is filled with
// byte i.
func memFileWithPages(t *testing.T, n int) *MemFile {
	t.Helper()
	f := NewMemFile()
	for i := 0; i < n; i++ {
		if _, err := f.AppendPage(filledPage(byte(i))); err != nil {
			t.Fatalf("AppendPage: %v", err)
		}
	}
	return f
}

func TestBufferPoolHitMiss(t *testing.T) {
	f := memFileWithPages(t, 4)
	b := NewBufferPool(f, 2*PageSize) // 2 frames
	if len(b.frames) != 2 {
		t.Fatalf("Capacity = %d", len(b.frames))
	}
	// First access: miss.
	p, err := b.Get(0)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if p[0] != 0 {
		t.Error("wrong page returned")
	}
	// Second access to the same page: hit.
	if _, err := b.Get(0); err != nil {
		t.Fatalf("Get: %v", err)
	}
	st := b.Stats()
	if st.Gets != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want gets=2 misses=1", st)
	}
}

func TestBufferPoolLRUEviction(t *testing.T) {
	f := memFileWithPages(t, 3)
	b := NewBufferPool(f, 2*PageSize)
	mustGet := func(id PageID) {
		t.Helper()
		if _, err := b.Get(id); err != nil {
			t.Fatalf("Get(%d): %v", id, err)
		}
	}
	mustGet(0) // miss: {0}
	mustGet(1) // miss: {1,0}
	mustGet(0) // hit : {0,1}
	mustGet(2) // miss, evicts LRU=1: {2,0}
	mustGet(0) // hit  (0 must still be cached)
	mustGet(1) // miss (1 was evicted)
	st := b.Stats()
	if st.Misses != 4 {
		t.Fatalf("misses = %d, want 4 (0,1,2,1)", st.Misses)
	}
	if st.Gets != 6 {
		t.Fatalf("gets = %d, want 6", st.Gets)
	}
}

func TestBufferPoolSingleFrame(t *testing.T) {
	f := memFileWithPages(t, 2)
	b := NewBufferPool(f, 1) // rounds up to one frame
	if len(b.frames) != 1 {
		t.Fatalf("Capacity = %d", len(b.frames))
	}
	for i := 0; i < 3; i++ {
		if _, err := b.Get(PageID(i % 2)); err != nil {
			t.Fatalf("Get: %v", err)
		}
	}
	if b.Stats().Misses != 3 {
		t.Fatalf("misses = %d, want 3 (thrashing)", b.Stats().Misses)
	}
}

// When the working set exactly fills the pool, the free-list hands out its
// last frame and the pool sits at the full/evicting boundary: every page
// must stay resident (zero evictions), and touching one page more must
// evict exactly the LRU page and nothing else.
func TestBufferPoolExactlyFullCapacity(t *testing.T) {
	const frames = 4
	f := memFileWithPages(t, frames+1)
	b := NewBufferPool(f, frames*PageSize)
	for round := 0; round < 3; round++ {
		for id := 0; id < frames; id++ {
			if _, err := b.Get(PageID(id)); err != nil {
				t.Fatalf("Get(%d): %v", id, err)
			}
		}
	}
	if st := b.Stats(); st.Misses != frames {
		t.Fatalf("misses = %d, want %d (working set == capacity must not evict)", st.Misses, frames)
	}
	// One page past capacity evicts exactly the LRU page (page 0 after the
	// in-order sweep); the rest stay resident.
	if _, err := b.Get(PageID(frames)); err != nil {
		t.Fatal(err)
	}
	for id := 1; id < frames; id++ {
		if _, err := b.Get(PageID(id)); err != nil {
			t.Fatal(err)
		}
	}
	if st := b.Stats(); st.Misses != frames+1 {
		t.Fatalf("misses = %d, want %d (only the LRU page may be evicted)", st.Misses, frames+1)
	}
	if _, err := b.Get(0); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.Misses != frames+2 {
		t.Fatalf("misses = %d, want %d (page 0 was the eviction victim)", st.Misses, frames+2)
	}
}

func TestBufferPoolResetStatsAndInvalidate(t *testing.T) {
	f := memFileWithPages(t, 2)
	b := NewBufferPool(f, 2*PageSize)
	b.Get(0)
	b.ResetStats()
	if st := b.Stats(); st.Gets != 0 || st.Misses != 0 {
		t.Fatalf("ResetStats left %+v", st)
	}
	b.Get(0) // still cached: hit
	if st := b.Stats(); st.Misses != 0 {
		t.Fatalf("expected warm hit, got %+v", st)
	}
	b.Invalidate()
	b.Get(0) // cold again: miss
	if st := b.Stats(); st.Misses != 1 {
		t.Fatalf("expected cold miss after Invalidate, got %+v", st)
	}
}

func TestBufferPoolErrorPropagation(t *testing.T) {
	f := memFileWithPages(t, 1)
	b := NewBufferPool(f, PageSize)
	if _, err := b.Get(42); err == nil {
		t.Error("Get of missing page succeeded")
	}
}

// Model check: random access pattern over a pool must return correct data
// and never exceed capacity misses when the working set fits.
func TestBufferPoolModel(t *testing.T) {
	const numPages = 32
	f := memFileWithPages(t, numPages)
	b := NewBufferPool(f, 8*PageSize)
	rng := rand.New(rand.NewSource(3))
	// Simulate with an exact LRU model.
	type lruModel struct{ order []PageID }
	model := lruModel{}
	touch := func(id PageID) bool { // returns miss
		for i, p := range model.order {
			if p == id {
				model.order = append(model.order[:i], model.order[i+1:]...)
				model.order = append([]PageID{id}, model.order...)
				return false
			}
		}
		model.order = append([]PageID{id}, model.order...)
		if len(model.order) > 8 {
			model.order = model.order[:8]
		}
		return true
	}
	wantMisses := int64(0)
	for i := 0; i < 5000; i++ {
		id := PageID(rng.Intn(numPages))
		if touch(id) {
			wantMisses++
		}
		p, err := b.Get(id)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if p[0] != byte(id) {
			t.Fatalf("page %d returned wrong data %d", id, p[0])
		}
	}
	if got := b.Stats().Misses; got != wantMisses {
		t.Fatalf("misses = %d, model predicts %d", got, wantMisses)
	}
}

// Page files must support concurrent readers (clones depend on it).
func TestConcurrentReads(t *testing.T) {
	files := map[string]PageFile{"mem": memFileWithPages(t, 16)}
	path := filepath.Join(t.TempDir(), "conc.db")
	osf, err := CreateOSFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer osf.Close()
	for i := 0; i < 16; i++ {
		osf.AppendPage(filledPage(byte(i)))
	}
	files["os"] = osf
	for name, f := range files {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			errs := make([]error, 8)
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					buf := make([]byte, PageSize)
					for i := 0; i < 500; i++ {
						id := PageID((w + i) % 16)
						if err := f.ReadPage(id, buf); err != nil {
							errs[w] = err
							return
						}
						if buf[0] != byte(id) {
							errs[w] = fmt.Errorf("page %d returned %d", id, buf[0])
							return
						}
					}
				}(w)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
