// Package pqueue provides a generic binary min-heap keyed by float64
// priorities. It is the priority queue behind the Dijkstra/A* wavefronts,
// the R-tree best-first traversals and the BBS skyline heap.
//
// The implementation supports decrease-key through lazy deletion: callers
// push a fresh (item, key) pair and ignore stale pops, or use the indexed
// variant (Indexed) when true decrease-key is required.
package pqueue

import "cmp"

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

// Items returns the raw heap slice (heap order, not sorted). It is exposed
// for rebuild operations; callers must not modify keys in place.
func (q *Queue[T]) Items() []Item[T] { return q.items }

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

// Indexed is a min-heap over ordered handles with true decrease-key
// support, for wavefronts where each graph node appears at most once in
// the frontier and its tentative distance only decreases. Production code
// runs on Dense; Indexed stays as the map-based reference behind the
// bruteforce oracle and the sp differential tests.
//
// Equal keys are ordered by id, making Pop order a function of the heap's
// contents alone rather than of insertion order. The A* searcher re-keys
// its frontier by iterating a map, so without the tie-break identical
// queries could expand nodes in different orders from run to run.
type Indexed[ID cmp.Ordered] struct {
	keys  []float64 // heap-ordered keys
	ids   []ID      // heap-ordered node ids
	where map[ID]int
}

// NewIndexed returns an empty indexed heap with capacity hint n.
func NewIndexed[ID cmp.Ordered](n int) *Indexed[ID] {
	return &Indexed[ID]{
		keys:  make([]float64, 0, n),
		ids:   make([]ID, 0, n),
		where: make(map[ID]int, n),
	}
}

// Len returns the number of queued nodes.
func (h *Indexed[ID]) Len() int { return len(h.ids) }

// Contains reports whether id is currently queued.
func (h *Indexed[ID]) Contains(id ID) bool {
	_, ok := h.where[id]
	return ok
}

// Key returns the current key of id; ok is false when id is not queued.
func (h *Indexed[ID]) Key(id ID) (float64, bool) {
	i, ok := h.where[id]
	if !ok {
		return 0, false
	}
	return h.keys[i], true
}

// MinKey returns the smallest key. It panics on an empty heap.
func (h *Indexed[ID]) MinKey() float64 { return h.keys[0] }

// Push inserts id with the given key, or decreases its key when id is
// already queued with a larger key. Attempts to increase a key are ignored,
// matching Dijkstra relaxation semantics.
func (h *Indexed[ID]) Push(id ID, key float64) {
	if i, ok := h.where[id]; ok {
		if key < h.keys[i] {
			h.keys[i] = key
			h.up(i)
		}
		return
	}
	h.keys = append(h.keys, key)
	h.ids = append(h.ids, id)
	h.where[id] = len(h.ids) - 1
	h.up(len(h.ids) - 1)
}

// Update sets id's key unconditionally (increase or decrease), inserting it
// if absent. It is used by the A* searcher when re-keying the frontier for a
// new target heuristic.
func (h *Indexed[ID]) Update(id ID, key float64) {
	i, ok := h.where[id]
	if !ok {
		h.Push(id, key)
		return
	}
	old := h.keys[i]
	h.keys[i] = key
	if key < old {
		h.up(i)
	} else {
		h.down(i)
	}
}

// Pop removes and returns the node with the smallest key.
func (h *Indexed[ID]) Pop() (ID, float64) {
	id, key := h.ids[0], h.keys[0]
	last := len(h.ids) - 1
	h.swap(0, last)
	h.ids = h.ids[:last]
	h.keys = h.keys[:last]
	delete(h.where, id)
	if last > 0 {
		h.down(0)
	}
	return id, key
}

// Each calls fn for every queued (id, key) pair in unspecified (heap)
// order. fn must not mutate the heap. It is used to snapshot wavefront
// frontiers for the cross-query distance cache.
func (h *Indexed[ID]) Each(fn func(id ID, key float64)) {
	for i, id := range h.ids {
		fn(id, h.keys[i])
	}
}

// Reset empties the heap, keeping allocations.
func (h *Indexed[ID]) Reset() {
	h.ids = h.ids[:0]
	h.keys = h.keys[:0]
	clear(h.where)
}

func (h *Indexed[ID]) swap(i, j int) {
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.keys[i], h.keys[j] = h.keys[j], h.keys[i]
	h.where[h.ids[i]] = i
	h.where[h.ids[j]] = j
}

// less orders heap slots by (key, id); the id tie-break keeps Pop
// deterministic when tentative distances collide.
func (h *Indexed[ID]) less(i, j int) bool {
	if h.keys[i] != h.keys[j] {
		return h.keys[i] < h.keys[j]
	}
	return h.ids[i] < h.ids[j]
}

func (h *Indexed[ID]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(parent, i)
		i = parent
	}
}

func (h *Indexed[ID]) down(i int) {
	n := len(h.ids)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}
