package pqueue

// Dense is an indexed min-heap over dense int32 ids in [0, n) with true
// decrease-key support, the allocation-free counterpart of Indexed for the
// shortest-path wavefronts: the where-map is replaced by a position array
// stamped with an epoch counter, so Reset is O(1) and steady-state Push/Pop
// touch no allocator.
//
// Pop order matches Indexed exactly — equal keys break ties by ascending
// id — so the two heaps are interchangeable oracles for each other.
type Dense struct {
	keys  []float64 // heap-ordered keys
	ids   []int32   // heap-ordered ids
	pos   []int32   // id -> heap slot; valid only when stamp[id] == epoch
	stamp []uint32
	epoch uint32
}

// NewDense returns an empty heap; id-space capacity grows on Grow.
func NewDense() *Dense { return &Dense{epoch: 1} }

// Grow extends the id space to at least n ids. Existing heap contents are
// preserved. Callers must Grow before pushing ids >= the previous capacity.
func (h *Dense) Grow(n int) {
	if n <= len(h.pos) {
		return
	}
	pos := make([]int32, n)
	stamp := make([]uint32, n)
	copy(pos, h.pos)
	copy(stamp, h.stamp)
	h.pos, h.stamp = pos, stamp
}

// Reset empties the heap in O(1), keeping allocations: the epoch bump
// invalidates every position at once. On the (rare) epoch wrap the stamp
// array is cleared so stale stamps from ~4 billion resets ago cannot alias.
func (h *Dense) Reset() {
	h.keys = h.keys[:0]
	h.ids = h.ids[:0]
	h.epoch++
	if h.epoch == 0 {
		clear(h.stamp)
		h.epoch = 1
	}
}

// Len returns the number of queued ids.
func (h *Dense) Len() int { return len(h.ids) }

// Contains reports whether id is currently queued.
func (h *Dense) Contains(id int32) bool {
	return h.stamp[id] == h.epoch && h.pos[id] >= 0
}

// Key returns the current key of id; ok is false when id is not queued.
func (h *Dense) Key(id int32) (float64, bool) {
	if !h.Contains(id) {
		return 0, false
	}
	return h.keys[h.pos[id]], true
}

// MinKey returns the smallest key. It panics on an empty heap.
func (h *Dense) MinKey() float64 { return h.keys[0] }

// Min returns the id with the smallest key and that key without removing
// it. It panics on an empty heap.
func (h *Dense) Min() (int32, float64) { return h.ids[0], h.keys[0] }

// Push inserts id with the given key, or decreases its key when id is
// already queued with a larger key. Attempts to increase a key are ignored,
// matching Dijkstra relaxation semantics.
func (h *Dense) Push(id int32, key float64) {
	if h.Contains(id) {
		i := h.pos[id]
		if key < h.keys[i] {
			h.keys[i] = key
			h.up(int(i))
		}
		return
	}
	h.insert(id, key)
}

func (h *Dense) insert(id int32, key float64) {
	h.keys = append(h.keys, key)
	h.ids = append(h.ids, id)
	h.stamp[id] = h.epoch
	h.pos[id] = int32(len(h.ids) - 1)
	h.up(len(h.ids) - 1)
}

// Fill appends id with the given key without ordering anything: the bulk
// half of a fill-then-Heapify load, which costs O(n) for n entries where n
// Pushes cost O(n log n). It must start from an empty (Reset) heap, every id
// must be distinct, and until Heapify runs the only other valid calls are
// Len, Each and Reset — a filled heap that is never ordered (a caller that
// only needed the entries scanned) pays nothing beyond the appends.
func (h *Dense) Fill(id int32, key float64) {
	h.keys = append(h.keys, key)
	h.ids = append(h.ids, id)
}

// Heapify orders the entries loaded by Fill. The result pops in exactly the
// order the same entries pushed one by one would: (key, id) is a strict
// total order, so a heap's pop sequence does not depend on its layout.
func (h *Dense) Heapify() {
	for i, id := range h.ids {
		h.stamp[id] = h.epoch
		h.pos[id] = int32(i)
	}
	for i := len(h.ids)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// Update sets id's key unconditionally (increase or decrease), inserting it
// if absent.
func (h *Dense) Update(id int32, key float64) {
	if !h.Contains(id) {
		h.insert(id, key)
		return
	}
	i := h.pos[id]
	old := h.keys[i]
	h.keys[i] = key
	if key < old {
		h.up(int(i))
	} else {
		h.down(int(i))
	}
}

// Pop removes and returns the id with the smallest key.
func (h *Dense) Pop() (int32, float64) {
	id, key := h.ids[0], h.keys[0]
	last := len(h.ids) - 1
	h.swap(0, last)
	h.ids = h.ids[:last]
	h.keys = h.keys[:last]
	h.pos[id] = -1
	if last > 0 {
		h.down(0)
	}
	return id, key
}

// Each calls fn for every queued (id, key) pair in unspecified (heap)
// order. fn must not mutate the heap.
func (h *Dense) Each(fn func(id int32, key float64)) {
	for i, id := range h.ids {
		fn(id, h.keys[i])
	}
}

func (h *Dense) swap(i, j int) {
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.keys[i], h.keys[j] = h.keys[j], h.keys[i]
	h.pos[h.ids[i]] = int32(i)
	h.pos[h.ids[j]] = int32(j)
}

// less orders heap slots by (key, id), mirroring Indexed.less so the two
// implementations pop in identical order.
func (h *Dense) less(i, j int) bool {
	if h.keys[i] != h.keys[j] {
		return h.keys[i] < h.keys[j]
	}
	return h.ids[i] < h.ids[j]
}

func (h *Dense) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(parent, i)
		i = parent
	}
}

func (h *Dense) down(i int) {
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
