package rtree

import (
	"roadskyline/internal/geom"
	"roadskyline/internal/pqueue"
)

// BestFirst is a generic best-first traversal of the tree under a
// caller-supplied key: nodes and entries pop in ascending key order, where
// NodeKey must lower-bound the EntryKey of everything inside the node's
// rectangle. Prune callbacks run at pop time, so they may become stricter
// as the caller learns more (EDC's candidate-space enumeration prunes with
// the shifted vectors accumulated so far). Nodes come with their ids and
// entries with their leaf-order positions, as SearchFunc passes them, so a
// caller can read its keys from state it keeps per node and entry.
type BestFirst struct {
	tree *Tree
	heap *pqueue.Queue[nnItem]

	// NodeKey returns the traversal key lower bound of a subtree MBR.
	nodeKey func(id int, r geom.Rect) float64
	// EntryKey returns the traversal key of a leaf entry.
	entryKey func(pos int, e Entry) float64
	// PruneNode reports that no entry below this MBR can qualify.
	pruneNode func(id int, r geom.Rect) bool
	// PruneEntry reports that this entry does not qualify.
	pruneEntry func(pos int, e Entry) bool
}

// NewBestFirst returns a best-first iterator. nodeKey and entryKey are
// required; pruneNode and pruneEntry may be nil.
func (t *Tree) NewBestFirst(
	nodeKey func(id int, r geom.Rect) float64,
	entryKey func(pos int, e Entry) float64,
	pruneNode func(id int, r geom.Rect) bool,
	pruneEntry func(pos int, e Entry) bool,
) *BestFirst {
	it := &BestFirst{
		tree:       t,
		heap:       pqueue.New[nnItem](64),
		nodeKey:    nodeKey,
		entryKey:   entryKey,
		pruneNode:  pruneNode,
		pruneEntry: pruneEntry,
	}
	if t.size > 0 {
		it.heap.Push(nodeItem(t.root), nodeKey(int(t.root.id), t.root.rect))
	}
	return it
}

// Next returns the next surviving entry in ascending key order.
func (it *BestFirst) Next() (Entry, float64, bool) {
	for it.heap.Len() > 0 {
		item, key := it.heap.Pop()
		if item.isEntry() {
			e := item.entry()
			if it.pruneEntry != nil && it.pruneEntry(int(item.node.id)*it.tree.fanout+int(item.idx), e) {
				continue
			}
			return e, key, true
		}
		n := item.node
		if it.pruneNode != nil && it.pruneNode(int(n.id), n.rect) {
			continue
		}
		it.tree.visits.Add(1)
		if n.leaf {
			first := int(n.id) * it.tree.fanout
			for i, e := range n.entries {
				if it.pruneEntry != nil && it.pruneEntry(first+i, e) {
					continue
				}
				it.heap.Push(nnItem{n, int32(i)}, it.entryKey(first+i, e))
			}
		} else {
			for _, c := range n.children {
				if it.pruneNode != nil && it.pruneNode(int(c.id), c.rect) {
					continue
				}
				it.heap.Push(nodeItem(c), it.nodeKey(int(c.id), c.rect))
			}
		}
	}
	return Entry{}, 0, false
}
