package bptree

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"roadskyline/internal/storage"
)

// checkSearch builds a tree over n random keys — the whole int64 range with
// both extremes and a run of consecutive keys — and holds Get to a
// brute-force scan of the key list: probes on a key, one off either side,
// below the minimum and above the maximum.
func checkSearch(t *testing.T, seed int64, n, valSize int) *Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	set := map[int64]bool{}
	if n >= 2 {
		set[math.MinInt64], set[math.MaxInt64] = true, true
	}
	for base := int64(rng.Uint64()) >> 1; len(set) < n/4; base++ {
		set[base] = true
	}
	for len(set) < n {
		set[int64(rng.Uint64())] = true
	}
	keys := make([]int64, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	value := func(k int64) []byte {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(k)*31+7)
		v := make([]byte, valSize)
		copy(v, b[:])
		return v
	}

	vals := make([][]byte, len(keys))
	for i, k := range keys {
		vals[i] = value(k)
	}
	tr, err := Build(storage.NewMemFile(), storage.DefaultBufferBytes, valSize, keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(keys) {
		t.Fatalf("Len %d, want %d", tr.Len(), len(keys))
	}

	probes := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	for _, k := range keys {
		probes = append(probes, k)
		if k > math.MinInt64 {
			probes = append(probes, k-1)
		}
		if k < math.MaxInt64 {
			probes = append(probes, k+1)
		}
	}
	dst := make([]byte, valSize)
	for _, p := range probes {
		err := tr.Get(p, dst)
		switch {
		case set[p] && err != nil:
			t.Fatalf("Get(%d) of a stored key: %v", p, err)
		case set[p] && !slices.Equal(dst, value(p)):
			t.Fatalf("Get(%d) returned another key's value", p)
		case !set[p] && err != ErrNotFound:
			t.Fatalf("Get(%d) of an absent key: error %v, want ErrNotFound bare", p, err)
		}
	}

	return tr
}

func TestSearchMatchesBruteForce(t *testing.T) {
	for _, c := range []struct {
		name       string
		n, valSize int
		height     int
	}{
		{"empty", 0, 12, 1},
		{"one", 1, 12, 1},
		{"leaf", 150, 12, 1},
		{"two-levels", 2000, 12, 2},
		{"three-levels", 6000, 256, 3}, // 15 entries a leaf
	} {
		t.Run(c.name+"/build", func(t *testing.T) {
			if tr := checkSearch(t, int64(c.n), c.n, c.valSize); tr.Meta().Height != c.height {
				t.Fatalf("height %d, want %d", tr.Meta().Height, c.height)
			}
		})
	}
}

func FuzzSearch(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(12))
	f.Add(int64(2), uint16(900), uint8(255))
	f.Add(int64(-209), uint16(40), uint8(3)) // a value shorter than the uint64 it is cut from
	f.Fuzz(func(t *testing.T, seed int64, n uint16, valSize uint8) {
		checkSearch(t, seed, int(n)%3000, 1+int(valSize))
	})
}
