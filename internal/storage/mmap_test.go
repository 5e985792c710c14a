package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// buildPageFile writes n pages (page i filled with byte i) at path and
// closes the file.
func buildPageFile(t *testing.T, path string, n int) {
	t.Helper()
	f, err := CreateOSFile(path)
	if err != nil {
		t.Fatalf("CreateOSFile: %v", err)
	}
	for i := 0; i < n; i++ {
		if _, err := f.AppendPage(filledPage(byte(i))); err != nil {
			t.Fatalf("AppendPage: %v", err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestMmapFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	buildPageFile(t, path, 3)
	f, err := OpenMmapFile(path)
	if err != nil {
		t.Skipf("mmap unavailable: %v", err)
	}
	defer f.Close()
	if f.NumPages() != 3 {
		t.Fatalf("NumPages = %d, want 3", f.NumPages())
	}
	buf := make([]byte, PageSize)
	for i := 0; i < 3; i++ {
		if err := f.ReadPage(PageID(i), buf); err != nil {
			t.Fatalf("ReadPage(%d): %v", i, err)
		}
		if !bytes.Equal(buf, filledPage(byte(i))) {
			t.Errorf("page %d contents wrong", i)
		}
		p, err := f.Page(PageID(i))
		if err != nil {
			t.Fatalf("Page(%d): %v", i, err)
		}
		if len(p) != PageSize || p[0] != byte(i) {
			t.Errorf("Page(%d) = %d bytes starting %d", i, len(p), p[0])
		}
	}
	// Bounds and buffer validation.
	if err := f.ReadPage(3, buf); !errors.Is(err, ErrPageBounds) {
		t.Errorf("out-of-bounds read: %v", err)
	}
	if err := f.ReadPage(-1, buf); !errors.Is(err, ErrPageBounds) {
		t.Errorf("negative read: %v", err)
	}
	if _, err := f.Page(3); !errors.Is(err, ErrPageBounds) {
		t.Errorf("out-of-bounds Page: %v", err)
	}
	if err := f.ReadPage(0, buf[:10]); err == nil {
		t.Error("short-buffer read succeeded")
	}
	// The mapping is read-only.
	if err := f.WritePage(0, filledPage(9)); !errors.Is(err, ErrReadOnly) {
		t.Errorf("WritePage: %v, want ErrReadOnly", err)
	}
	if _, err := f.AppendPage(filledPage(9)); !errors.Is(err, ErrReadOnly) {
		t.Errorf("AppendPage: %v, want ErrReadOnly", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestOpenMmapEmptyAndUnaligned(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.db")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := OpenMmapFile(empty)
	if err != nil {
		t.Fatalf("OpenMmapFile(empty): %v", err)
	}
	if f.NumPages() != 0 {
		t.Errorf("empty file has %d pages", f.NumPages())
	}
	if err := f.ReadPage(0, make([]byte, PageSize)); !errors.Is(err, ErrPageBounds) {
		t.Errorf("read from empty file: %v", err)
	}
	f.Close()

	ragged := filepath.Join(dir, "ragged.db")
	if err := os.WriteFile(ragged, make([]byte, PageSize+100), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMmapFile(ragged); err == nil {
		t.Error("OpenMmapFile accepted an unaligned file")
	}
	if _, err := OpenOSFile(ragged); err == nil {
		t.Error("OpenOSFile accepted an unaligned file")
	}
}

func TestOpenBackend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	buildPageFile(t, path, 2)

	f, actual, err := Open(path, BackendFile)
	if err != nil {
		t.Fatalf("Open(BackendFile): %v", err)
	}
	if actual != BackendFile {
		t.Errorf("actual backend = %v, want file", actual)
	}
	if _, ok := f.(*OSFile); !ok {
		t.Errorf("BackendFile opened %T", f)
	}
	f.Close()

	f, actual, err = Open(path, BackendMmap)
	if err != nil {
		t.Fatalf("Open(BackendMmap): %v", err)
	}
	// Mmap may legitimately fall back to file on exotic platforms; either
	// way the file must serve the pages.
	buf := make([]byte, PageSize)
	if err := f.ReadPage(1, buf); err != nil || buf[0] != 1 {
		t.Fatalf("ReadPage via %v backend: %v (first byte %d)", actual, err, buf[0])
	}
	if _, ok := f.(*MmapFile); ok != (actual == BackendMmap) {
		t.Errorf("backend %v opened %T", actual, f)
	}
	f.Close()

	if _, _, err := Open(path, BackendMem); err == nil {
		t.Error("Open(BackendMem) from a path succeeded")
	}
	if _, _, err := Open(filepath.Join(t.TempDir(), "missing"), BackendMmap); err == nil {
		t.Error("Open of a missing file succeeded")
	}
}

// The acceptance bar for the zero-copy pool: over the same access pattern
// and capacity, every backend's BufferPool must report bit-identical Gets
// and Misses and serve identical bytes.
func TestBufferPoolBackendCounterEquivalence(t *testing.T) {
	const numPages = 16
	path := filepath.Join(t.TempDir(), "pages.db")
	buildPageFile(t, path, numPages)

	files := map[string]PageFile{"mem": memFileWithPages(t, numPages)}
	osf, err := OpenOSFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer osf.Close()
	files["file"] = osf
	if mf, err := OpenMmapFile(path); err == nil {
		defer mf.Close()
		files["mmap"] = mf
	} else {
		t.Logf("mmap unavailable, matrix runs without it: %v", err)
	}

	// A deterministic pattern with hits, misses, evictions and thrashing.
	var pattern []PageID
	for i := 0; i < 400; i++ {
		pattern = append(pattern, PageID((i*7+i/3)%numPages))
	}
	type outcome struct {
		stats Stats
		sum   int
	}
	results := map[string]outcome{}
	for name, f := range files {
		pool := NewBufferPool(f, 4*PageSize)
		if name == "mmap" && pool.mapper == nil {
			t.Errorf("pool over MmapFile is not in zero-copy mode")
		}
		o := outcome{}
		for _, id := range pattern {
			p, err := pool.Get(id)
			if err != nil {
				t.Fatalf("%s: Get(%d): %v", name, id, err)
			}
			if p[0] != byte(id) || p[PageSize-1] != byte(id) {
				t.Fatalf("%s: page %d returned wrong bytes", name, id)
			}
			o.sum += int(p[0])
		}
		o.stats = pool.Stats()
		results[name] = o
	}
	want := results["mem"]
	for name, got := range results {
		if got != want {
			t.Errorf("%s pool diverged: %+v, mem: %+v", name, got, want)
		}
	}
}
