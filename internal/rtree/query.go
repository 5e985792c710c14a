package rtree

import (
	"roadskyline/internal/geom"
	"roadskyline/internal/pqueue"
)

// SearchFunc is EDC's step-3 window query, whose window is the hypercube
// under a shifted vector and cannot be expressed as one rectangle. It walks
// the tree depth first under caller control: descend(id, rect) decides
// whether node id, with bounding rectangle rect, can hold qualifying
// entries, and visit receives each leaf descended into as one slice of
// entries, the first at position first of the tree's leaf order, returning
// false to stop. Entries are not passed to descend: visit tests them itself.
//
// Node ids are dense in [0, NumNodes()) and positions in [0, Len()), both
// fixed when the tree is loaded: leaf k is node k and holds the positions
// from k*Fanout(). A caller can so keep per-node, per-leaf and per-entry
// state in flat tables across many windows over one tree.
func (t *Tree) SearchFunc(descend func(id int, r geom.Rect) bool, visit func(first int, entries []Entry) bool) {
	t.searchFuncNode(t.root, descend, visit)
}

func (t *Tree) searchFuncNode(n *node, descend func(int, geom.Rect) bool, visit func(int, []Entry) bool) bool {
	t.visits.Add(1)
	if n.leaf {
		return visit(int(n.id)*t.fanout, n.entries)
	}
	for _, c := range n.children {
		if descend(int(c.id), c.rect) {
			if !t.searchFuncNode(c, descend, visit) {
				return false
			}
		}
	}
	return true
}

// nnItem is a node (internal or leaf) or a leaf entry queued by a
// traversal's key: node is the node itself, or the leaf holding the entry
// at index idx, so a queued entry costs a pointer and an index.
type nnItem struct {
	node *node
	idx  int32 // the entry's index in node.entries; -1 for the node itself
}

func nodeItem(n *node) nnItem { return nnItem{n, -1} }

func (it nnItem) isEntry() bool { return it.idx >= 0 }

func (it nnItem) entry() Entry { return it.node.entries[it.idx] }

// NNIterator yields entries in ascending Euclidean distance from a query
// point (best-first traversal, Hjaltason & Samet). An optional prune
// function skips any subtree or entry whose rectangle it rejects; it is
// evaluated when items are popped, so it may become more aggressive as the
// caller learns more (LBC prunes regions dominated by network skyline
// points found so far).
type NNIterator struct {
	tree  *Tree
	from  geom.Point
	prune func(geom.Rect) bool // reports "skip this rectangle"
	heap  *pqueue.Queue[nnItem]
}

// NewNNIterator returns an iterator over t's entries in ascending distance
// from. prune may be nil.
func (t *Tree) NewNNIterator(from geom.Point, prune func(geom.Rect) bool) *NNIterator {
	it := &NNIterator{tree: t, from: from, prune: prune, heap: pqueue.New[nnItem](64)}
	if t.size > 0 {
		it.heap.Push(nodeItem(t.root), t.root.rect.MinDist(from))
	}
	return it
}

// Next returns the next entry and its distance; ok is false when the
// iteration is exhausted.
func (it *NNIterator) Next() (e Entry, dist float64, ok bool) {
	for it.heap.Len() > 0 {
		item, key := it.heap.Pop()
		if item.isEntry() {
			e := item.entry()
			if it.prune != nil && it.prune(e.Rect) {
				continue
			}
			return e, key, true
		}
		n := item.node
		if it.prune != nil && it.prune(n.rect) {
			continue
		}
		it.tree.visits.Add(1)
		if n.leaf {
			for i, e := range n.entries {
				if it.prune != nil && it.prune(e.Rect) {
					continue
				}
				it.heap.Push(nnItem{n, int32(i)}, e.Rect.MinDist(it.from))
			}
		} else {
			for _, c := range n.children {
				if it.prune != nil && it.prune(c.rect) {
					continue
				}
				it.heap.Push(nodeItem(c), c.rect.MinDist(it.from))
			}
		}
	}
	return Entry{}, 0, false
}
