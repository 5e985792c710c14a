package bptree

import (
	"encoding/binary"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"roadskyline/internal/storage"
)

const testValSize = 12

func val(n uint64) []byte {
	v := make([]byte, testValSize)
	binary.LittleEndian.PutUint64(v, n)
	return v
}

func valOf(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

func TestNewRejectsBadValSize(t *testing.T) {
	for _, size := range []int{0, 10000} {
		if _, err := Build(storage.NewMemFile(), 1024, size, nil, nil); err == nil {
			t.Errorf("valSize %d accepted", size)
		}
	}
	if _, err := Build(storage.NewMemFile(), 1024, testValSize, []int64{1}, [][]byte{{1, 2}}); err == nil {
		t.Error("short value accepted")
	}
}

// An empty tree is one empty leaf page: the root a lookup walks.
func TestEmptyTree(t *testing.T) {
	file := storage.NewMemFile()
	tr, err := Build(file, storage.DefaultBufferBytes, testValSize, nil, nil)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if tr.Len() != 0 || tr.Meta().Height != 1 || file.NumPages() != 1 {
		t.Fatalf("empty tree: len=%d height=%d pages=%d", tr.Len(), tr.Meta().Height, file.NumPages())
	}
	dst := make([]byte, testValSize)
	if err := tr.Get(7, dst); err != ErrNotFound {
		t.Errorf("Get on empty = %v, want ErrNotFound", err)
	}
	if st := tr.Pool().Stats(); st.Gets != 1 {
		t.Errorf("Get on empty read %d pages, want the root leaf", st.Gets)
	}
}

func TestBuildBulk(t *testing.T) {
	const n = 50000
	keys := make([]int64, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = int64(i * 3) // gaps between keys
		vals[i] = val(uint64(i))
	}
	tr, err := Build(storage.NewMemFile(), storage.DefaultBufferBytes, testValSize, keys, vals)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	if tr.Meta().Height < 2 {
		t.Fatalf("bulk tree too shallow: height = %d", tr.Meta().Height)
	}
	dst := make([]byte, testValSize)
	for i := 0; i < n; i++ {
		if err := tr.Get(keys[i], dst); err != nil {
			t.Fatalf("Get(%d): %v", keys[i], err)
		}
		if valOf(dst) != uint64(i) {
			t.Fatalf("Get(%d) = %d, want %d", keys[i], valOf(dst), i)
		}
	}
	// Keys in the gaps are absent.
	if err := tr.Get(1, dst); err != ErrNotFound {
		t.Errorf("Get(gap) = %v, want ErrNotFound", err)
	}
	if err := tr.Get(int64(n*3), dst); err != ErrNotFound {
		t.Errorf("Get(beyond) = %v, want ErrNotFound", err)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(storage.NewMemFile(), 1024, testValSize, []int64{1, 2}, [][]byte{val(1)}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := Build(storage.NewMemFile(), 1024, testValSize, []int64{2, 1}, [][]byte{val(1), val(2)}); err == nil {
		t.Error("unsorted keys accepted")
	}
	if _, err := Build(storage.NewMemFile(), 1024, testValSize, []int64{1, 1}, [][]byte{val(1), val(2)}); err == nil {
		t.Error("duplicate keys accepted")
	}
	// Empty build is valid.
	tr, err := Build(storage.NewMemFile(), 1024, testValSize, nil, nil)
	if err != nil {
		t.Fatalf("empty Build: %v", err)
	}
	if tr.Len() != 0 {
		t.Error("empty Build non-empty")
	}
}

func TestGetCountsBufferIO(t *testing.T) {
	keys := make([]int64, 100000)
	vals := make([][]byte, 100000)
	for i := range keys {
		keys[i] = int64(i)
		vals[i] = val(uint64(i))
	}
	// Tiny buffer: two frames force real faults.
	tr, err := Build(storage.NewMemFile(), 2*storage.PageSize, testValSize, keys, vals)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	tr.Pool().ResetStats()
	dst := make([]byte, testValSize)
	tr.Get(0, dst)
	tr.Get(99999, dst)
	st := tr.Pool().Stats()
	if st.Misses == 0 {
		t.Error("expected buffer misses with a tiny pool")
	}
	if st.Gets < int64(2*tr.Meta().Height) {
		t.Errorf("gets = %d, want >= %d (two root-to-leaf walks)", st.Gets, 2*tr.Meta().Height)
	}
}

// Property: for any set of keys, bulk Build followed by Get finds exactly
// the keys it was given.
func TestBuildGetProperty(t *testing.T) {
	f := func(rawKeys []int64) bool {
		seen := map[int64]bool{}
		var keys []int64
		for _, k := range rawKeys {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		vals := make([][]byte, len(keys))
		for i := range vals {
			vals[i] = val(uint64(i))
		}
		tr, err := Build(storage.NewMemFile(), storage.DefaultBufferBytes, testValSize, keys, vals)
		if err != nil {
			return false
		}
		dst := make([]byte, testValSize)
		for i, k := range keys {
			if err := tr.Get(k, dst); err != nil || valOf(dst) != uint64(i) {
				return false
			}
		}
		// A key absent from the set must not be found.
		probe := int64(1)
		for seen[probe] {
			probe++
		}
		return tr.Get(probe, dst) == ErrNotFound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// A tree built in one process must be reopenable from its Meta alone.
func TestMetaReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.pages")
	file, err := storage.CreateOSFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	keys := make([]int64, n)
	var vals [][]byte
	for i := range keys {
		keys[i] = int64(i * 3)
		vals = append(vals, val(uint64(i)))
	}
	tr, err := Build(file, storage.DefaultBufferBytes, testValSize, keys, vals)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	meta := tr.Meta()
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := storage.OpenOSFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	tr2, err := Open(reopened, storage.DefaultBufferBytes, meta)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if tr2.Len() != n || tr2.Meta().Height != tr.Meta().Height {
		t.Fatalf("reopened len=%d height=%d, want %d/%d", tr2.Len(), tr2.Meta().Height, n, tr.Meta().Height)
	}
	buf := make([]byte, testValSize)
	for i := range keys {
		if err := tr2.Get(keys[i], buf); err != nil {
			t.Fatalf("Get(%d): %v", keys[i], err)
		}
		if valOf(buf) != uint64(i) {
			t.Fatalf("Get(%d) = %d, want %d", keys[i], valOf(buf), i)
		}
	}
	if err := tr2.Get(1, buf); err != ErrNotFound {
		t.Errorf("Get(absent) = %v, want ErrNotFound", err)
	}

	// Invalid metas are rejected.
	for name, m := range map[string]Meta{
		"bad valsize": {Root: meta.Root, Height: 1, ValSize: 0},
		"bad root":    {Root: storage.PageID(reopened.NumPages()), Height: 1, ValSize: testValSize},
		"bad height":  {Root: meta.Root, Height: 0, ValSize: testValSize},
	} {
		if _, err := Open(reopened, storage.DefaultBufferBytes, m); err == nil {
			t.Errorf("Open accepted %s", name)
		}
	}
}
