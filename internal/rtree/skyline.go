package rtree

import (
	"roadskyline/internal/geom"
	"roadskyline/internal/pqueue"
	"roadskyline/internal/skyline"
)

// SkylineOptions configures a SkylineIterator.
type SkylineOptions struct {
	// ExtraDims appends this many static dimensions to every vector (e.g.
	// non-spatial attributes like hotel price). Internal nodes use zero as
	// the lower bound for each extra dimension.
	ExtraDims int
	// LeafExtra returns the exact extra-dimension values of a leaf entry.
	// Required when ExtraDims > 0.
	LeafExtra func(id int32) []float64
	// Prune, when non-nil, is consulted with an entry's or node's
	// lower-bound vector; returning true skips it. EDC's incremental
	// variant uses it to skip entries inside already-fetched candidate
	// regions.
	Prune func(vec []float64) bool
}

// SkylineIterator progressively reports the multi-source Euclidean skyline
// of the tree's entries with respect to a set of query points, in ascending
// mindist (sum of vector components) order. It is the multi-source
// extension of the BBS algorithm (paper Section 4.2): the heap holds nodes
// and entries keyed by mindist, and anything dominated by an
// already-reported skyline point — in the space of per-query-point
// distances plus extra dimensions — is pruned.
type SkylineIterator struct {
	tree  *Tree
	qs    []geom.Point
	opts  SkylineOptions
	heap  *pqueue.Queue[nnItem]
	found [][]float64 // vectors of reported skyline points
	vec   []float64   // scratch
}

// NewSkylineIterator returns a progressive multi-source Euclidean skyline
// iterator. opts may be nil. qs must not be empty.
func (t *Tree) NewSkylineIterator(qs []geom.Point, opts *SkylineOptions) *SkylineIterator {
	it := &SkylineIterator{
		tree: t,
		qs:   qs,
		heap: pqueue.New[nnItem](64),
	}
	if opts != nil {
		it.opts = *opts
	}
	it.vec = make([]float64, len(qs)+it.opts.ExtraDims)
	if t.size > 0 {
		it.heap.Push(nodeItem(t.root), it.nodeKey(t.root.rect))
	}
	return it
}

// nodeKey fills it.vec with the lower-bound vector of rectangle r (extra
// dims zero) and returns the component sum.
func (it *SkylineIterator) nodeKey(r geom.Rect) float64 {
	sum := 0.0
	for i, q := range it.qs {
		d := r.MinDist(q)
		it.vec[i] = d
		sum += d
	}
	for i := len(it.qs); i < len(it.vec); i++ {
		it.vec[i] = 0
	}
	return sum
}

// entryKey fills it.vec with the exact vector of leaf entry e and returns
// the component sum.
func (it *SkylineIterator) entryKey(e Entry) float64 {
	p := e.Point()
	sum := 0.0
	for i, q := range it.qs {
		d := p.Dist(q)
		it.vec[i] = d
		sum += d
	}
	if it.opts.ExtraDims > 0 {
		extra := it.opts.LeafExtra(e.ID)
		for i := 0; i < it.opts.ExtraDims; i++ {
			it.vec[len(it.qs)+i] = extra[i]
			sum += extra[i]
		}
	}
	return sum
}

// skip reports whether the current it.vec is dominated by a reported
// skyline point or rejected by the external prune function. Strict
// dominance keeps exact-duplicate vectors, which are skyline points under
// the engine-wide convention.
func (it *SkylineIterator) skip() bool {
	for _, s := range it.found {
		if skyline.Dominates(s, it.vec) {
			return true
		}
	}
	return it.opts.Prune != nil && it.opts.Prune(it.vec)
}

// Next returns the next Euclidean skyline point: the entry, its vector
// (distances to the query points followed by extra dimensions), and
// ok=false when the skyline is exhausted. The returned vector is freshly
// allocated and owned by the caller.
func (it *SkylineIterator) Next() (Entry, []float64, bool) {
	for it.heap.Len() > 0 {
		item, _ := it.heap.Pop()
		if item.isEntry() {
			e := item.entry()
			if it.entryKey(e); it.skip() {
				continue
			}
			vec := append([]float64(nil), it.vec...)
			it.found = append(it.found, vec)
			return e, vec, true
		}
		n := item.node
		if it.nodeKey(n.rect); it.skip() {
			continue
		}
		it.tree.visits.Add(1)
		if n.leaf {
			for i, e := range n.entries {
				if key := it.entryKey(e); !it.skip() {
					it.heap.Push(nnItem{n, int32(i)}, key)
				}
			}
		} else {
			for _, c := range n.children {
				if key := it.nodeKey(c.rect); !it.skip() {
					it.heap.Push(nodeItem(c), key)
				}
			}
		}
	}
	return Entry{}, nil, false
}
