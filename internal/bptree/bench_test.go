package bptree

import (
	"math/rand"
	"testing"

	"roadskyline/internal/storage"
)

func benchTree(b *testing.B, n int) *Tree {
	b.Helper()
	keys := make([]int64, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = int64(i)
		vals[i] = val(uint64(i))
	}
	tr, err := Build(storage.NewMemFile(), storage.DefaultBufferBytes, testValSize, keys, vals)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

func BenchmarkGet(b *testing.B) {
	tr := benchTree(b, 1_000_000)
	rng := rand.New(rand.NewSource(1))
	dst := make([]byte, testValSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Get(int64(rng.Intn(1_000_000)), dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBulkBuild(b *testing.B) {
	const n = 200_000
	keys := make([]int64, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = int64(i)
		vals[i] = val(uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(storage.NewMemFile(), storage.DefaultBufferBytes, testValSize, keys, vals); err != nil {
			b.Fatal(err)
		}
	}
}
