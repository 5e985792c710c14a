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
// both extremes and a run of consecutive keys — by bulk Build or by Insert in
// random order, and holds Get and Scan to a brute-force scan of the key
// list: probes on a key, one off either side, below the minimum and above
// the maximum; ranges that start and end on and between keys.
func checkSearch(t *testing.T, seed int64, n, valSize int, insert bool) *Tree {
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
		v := make([]byte, valSize)
		binary.LittleEndian.PutUint64(v, uint64(k)*31+7)
		return v
	}

	var tr *Tree
	var err error
	if insert {
		if tr, err = New(storage.NewMemFile(), storage.DefaultBufferBytes, valSize); err != nil {
			t.Fatal(err)
		}
		for _, i := range rng.Perm(len(keys)) {
			if err := tr.Insert(keys[i], value(keys[i])); err != nil {
				t.Fatalf("Insert(%d): %v", keys[i], err)
			}
		}
	} else {
		vals := make([][]byte, len(keys))
		for i, k := range keys {
			vals[i] = value(k)
		}
		if tr, err = Build(storage.NewMemFile(), storage.DefaultBufferBytes, valSize, keys, vals); err != nil {
			t.Fatal(err)
		}
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

	for i := 0; i < 300; i++ {
		from, to := probes[rng.Intn(len(probes))], probes[rng.Intn(len(probes))]
		if i%3 == 0 && from > to {
			from, to = to, from // otherwise a third of the ranges are empty
		}
		var want []int64
		for _, k := range keys {
			if from <= k && k <= to {
				want = append(want, k)
			}
		}
		var got []int64
		if err := tr.Scan(from, to, func(k int64, v []byte) bool {
			if !slices.Equal(v, value(k)) {
				t.Fatalf("Scan(%d, %d) pairs key %d with another key's value", from, to, k)
			}
			got = append(got, k)
			return true
		}); err != nil {
			t.Fatalf("Scan(%d, %d): %v", from, to, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("Scan(%d, %d) visited %d keys %v, want %d %v", from, to, len(got), got, len(want), want)
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
		for _, insert := range []bool{false, true} {
			name := c.name + "/build"
			if insert {
				name = c.name + "/insert"
			}
			t.Run(name, func(t *testing.T) {
				if tr := checkSearch(t, int64(c.n), c.n, c.valSize, insert); tr.Height() != c.height {
					t.Fatalf("height %d, want %d", tr.Height(), c.height)
				}
			})
		}
	}
}

func FuzzSearch(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(12), false)
	f.Add(int64(2), uint16(900), uint8(255), true)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, valSize uint8, insert bool) {
		checkSearch(t, seed, int(n)%3000, 1+int(valSize), insert)
	})
}
