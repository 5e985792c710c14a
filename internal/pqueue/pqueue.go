// Package pqueue provides two binary min-heaps keyed by float64 priorities.
// Queue is generic and supports decrease-key through lazy deletion: callers
// push a fresh (item, key) pair and ignore stale pops. It orders the R-tree
// best-first traversals, LBC's source streams, the wavefronts' object hits
// and the brute-force oracle's Dijkstra. Dense is the indexed heap over dense
// int32 ids with true decrease-key behind the shortest-path wavefronts and
// the landmark and generator Dijkstras.
package pqueue

// Item is an element with a priority.
type Item[T any] struct {
	Value T
	Key   float64
}

// Queue is a binary min-heap over float64 keys. The zero value is an empty
// queue ready for use.
type Queue[T any] struct {
	items []Item[T]
}

// New returns an empty queue with capacity hint n.
func New[T any](n int) *Queue[T] {
	return &Queue[T]{items: make([]Item[T], 0, n)}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Push adds value with the given key.
func (q *Queue[T]) Push(value T, key float64) {
	q.items = append(q.items, Item[T]{value, key})
	q.up(len(q.items) - 1)
}

// MinKey returns the smallest key in the queue. It panics on an empty queue.
func (q *Queue[T]) MinKey() float64 { return q.items[0].Key }

// Peek returns the item with the smallest key without removing it.
func (q *Queue[T]) Peek() (T, float64) {
	top := q.items[0]
	return top.Value, top.Key
}

// Pop removes and returns the item with the smallest key.
func (q *Queue[T]) Pop() (T, float64) {
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	var zero Item[T]
	q.items[last] = zero
	q.items = q.items[:last]
	if last > 0 {
		q.down(0)
	}
	return top.Value, top.Key
}

// Reset empties the queue, keeping the allocated backing array.
func (q *Queue[T]) Reset() {
	clear(q.items)
	q.items = q.items[:0]
}

func (q *Queue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if q.items[parent].Key <= q.items[i].Key {
			break
		}
		q.items[parent], q.items[i] = q.items[i], q.items[parent]
		i = parent
	}
}

func (q *Queue[T]) down(i int) {
	n := len(q.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.items[l].Key < q.items[smallest].Key {
			smallest = l
		}
		if r < n && q.items[r].Key < q.items[smallest].Key {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
}
