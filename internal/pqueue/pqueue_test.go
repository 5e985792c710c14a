package pqueue

import (
	"testing"
	"testing/quick"
)

func TestQueueOrdering(t *testing.T) {
	q := New[string](4)
	q.Push("c", 3)
	q.Push("a", 1)
	q.Push("d", 4)
	q.Push("b", 2)
	want := []string{"a", "b", "c", "d"}
	for i, w := range want {
		v, k := q.Pop()
		if v != w {
			t.Fatalf("pop %d = %q (key %v), want %q", i, v, k, w)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue not empty after draining")
	}
}

func TestQueuePeekMinKey(t *testing.T) {
	q := New[int](0)
	q.Push(7, 7)
	q.Push(3, 3)
	if v, k := q.Peek(); v != 3 || k != 3 {
		t.Fatalf("Peek = (%d,%v)", v, k)
	}
	if q.MinKey() != 3 {
		t.Fatalf("MinKey = %v", q.MinKey())
	}
	if q.Len() != 2 {
		t.Fatalf("Peek consumed an item")
	}
}

func TestQueueReset(t *testing.T) {
	q := New[int](0)
	q.Push(1, 1)
	q.Reset()
	if q.Len() != 0 {
		t.Fatal("Reset did not empty the queue")
	}
	q.Push(2, 2)
	if v, _ := q.Pop(); v != 2 {
		t.Fatal("queue unusable after Reset")
	}
}

// Popping everything must yield keys in non-decreasing order, for any input.
func TestQueueHeapProperty(t *testing.T) {
	f := func(keys []float64) bool {
		q := New[int](len(keys))
		for i, k := range keys {
			q.Push(i, k)
		}
		prev := 0.0
		for i := 0; q.Len() > 0; i++ {
			_, k := q.Pop()
			if i > 0 && k < prev {
				return false
			}
			prev = k
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
