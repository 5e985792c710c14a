// Package rtree implements an in-memory R-tree over planar rectangles with
// the query surface the skyline engine needs:
//
//   - STR bulk loading: the object set is static, so the tree is packed
//     once and never modified;
//   - window queries with a caller-supplied descend predicate over dense
//     node ids (used for EDC's window, which memoizes per node and entry);
//   - a best-first incremental nearest-neighbor iterator with pop-time
//     pruning (used for LBC's dominance-constrained Euclidean NN stream);
//   - a BBS-style multi-source Euclidean skyline iterator (paper
//     Section 4.2).
//
// Node visits are counted so experiments can report index I/O: with
// page-sized fan-out, one node visit corresponds to one page access.
package rtree

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"roadskyline/internal/geom"
)

// DefaultFanout packs a node into roughly one 4 KB page: an entry is a
// 32-byte rectangle plus a pointer/id.
const DefaultFanout = 100

// Entry is a leaf record: a rectangle (degenerate for point data) and the
// caller's identifier.
type Entry struct {
	Rect geom.Rect
	ID   int32
}

// Point returns the center of the entry's rectangle; for point data this is
// the point itself.
func (e Entry) Point() geom.Point { return e.Rect.Center() }

type node struct {
	rect     geom.Rect
	id       int32 // dense, leaves first in leaf order (see LoadSorted)
	leaf     bool
	entries  []Entry // when leaf
	children []*node // when internal
}

// Tree is an R-tree. The zero value is not usable; construct with BulkLoad
// or LoadSorted. A tree is never modified after construction, so
// concurrent queries are safe (node visits are counted atomically).
type Tree struct {
	root   *node
	fanout int
	size   int
	nodes  int
	visits *atomic.Int64 // atomic: concurrent readers share the tree
}

// minFanout is the smallest fanout a tree is built with.
const minFanout = 4

// Len returns the number of entries stored.
func (t *Tree) Len() int { return t.size }

// NumNodes returns the number of nodes, one more than the largest node id
// SearchFunc passes to descend.
func (t *Tree) NumNodes() int { return t.nodes }

// Fanout returns the capacity of a node: leaf k holds the leaf-order
// positions [k*Fanout(), (k+1)*Fanout()).
func (t *Tree) Fanout() int { return t.fanout }

// Bounds returns the bounding rectangle of all entries.
func (t *Tree) Bounds() geom.Rect { return t.root.rect }

// NodeAccesses returns the number of nodes visited by queries since the
// last ResetNodeAccesses.
func (t *Tree) NodeAccesses() int64 { return t.visits.Load() }

// ResetNodeAccesses zeroes the node-visit counter.
func (t *Tree) ResetNodeAccesses() { t.visits.Store(0) }

// Clone returns a reader over the same tree structure with an independent
// node-visit counter. The nodes themselves are shared; each clone's
// NodeAccesses/ResetNodeAccesses only see that clone's queries, so
// concurrent readers get isolated statistics.
func (t *Tree) Clone() *Tree {
	c := *t
	c.visits = new(atomic.Int64)
	return &c
}

// Height returns the number of levels (1 for a leaf-only tree).
func (t *Tree) Height() int {
	h, n := 1, t.root
	for !n.leaf {
		h++
		n = n.children[0]
	}
	return h
}

// BulkLoad builds a tree over entries using Sort-Tile-Recursive packing:
// SortSTR, then LoadSorted. The entries slice is reordered in place and
// kept by the tree.
func BulkLoad(entries []Entry, fanout int) *Tree {
	SortSTR(entries, fanout)
	return LoadSorted(entries, fanout)
}

// SortSTR reorders entries into the leaf order of an STR-packed tree of the
// given fanout: sorted by center X, tiled into vertical slices, each slice
// sorted by center Y. Runs of fanout entries of the result are the leaves,
// so the order is all a later LoadSorted needs — a caller may persist the
// ids and never sort again.
func SortSTR(entries []Entry, fanout int) {
	fanout = max(fanout, minFanout)
	numLeaves := (len(entries) + fanout - 1) / fanout
	numSlices := int(math.Ceil(math.Sqrt(float64(numLeaves))))
	sliceSize := numSlices * fanout
	slices.SortFunc(entries, func(a, b Entry) int {
		return cmp.Compare(a.Rect.Center().X, b.Rect.Center().X)
	})
	for s := 0; s < len(entries); s += sliceSize {
		slices.SortFunc(entries[s:min(s+sliceSize, len(entries))], func(a, b Entry) int {
			return cmp.Compare(a.Rect.Center().Y, b.Rect.Center().Y)
		})
	}
}

// LoadSorted builds the tree over entries that are already in SortSTR's
// order for this fanout: it cuts them into leaves and packs the upper
// levels, sorting nodes but never entries. The tree keeps the slice (leaves
// are sub-slices of it).
//
// Nodes are numbered densely as they are made: leaf k, which holds the
// entries at positions [k*fanout, (k+1)*fanout) of the slice, is node k, and
// the upper levels follow from the leaves' count up to the root.
func LoadSorted(entries []Entry, fanout int) *Tree {
	t := &Tree{
		root:   &node{leaf: true, rect: geom.EmptyRect()},
		fanout: max(fanout, minFanout),
		size:   len(entries),
		nodes:  1,
		visits: new(atomic.Int64),
	}
	if len(entries) == 0 {
		return t
	}
	leaves := make([]*node, 0, (len(entries)+t.fanout-1)/t.fanout)
	for o := 0; o < len(entries); o += t.fanout {
		oe := min(o+t.fanout, len(entries))
		leaf := &node{leaf: true, id: int32(len(leaves)), entries: entries[o:oe]}
		leaf.recomputeRect()
		leaves = append(leaves, leaf)
	}
	t.root, t.nodes = strPackUp(leaves, t.fanout)
	return t
}

// strPackUp packs level into parents until one root is left, numbering each
// new node after the nodes of level, and returns the root and the number of
// nodes in the tree.
func strPackUp(level []*node, fanout int) (*node, int) {
	count := len(level)
	for len(level) > 1 {
		numNodes := (len(level) + fanout - 1) / fanout
		numSlices := int(math.Ceil(math.Sqrt(float64(numNodes))))
		sliceSize := numSlices * fanout
		sort.Slice(level, func(i, j int) bool {
			return level[i].rect.Center().X < level[j].rect.Center().X
		})
		var next []*node
		for s := 0; s < len(level); s += sliceSize {
			end := s + sliceSize
			if end > len(level) {
				end = len(level)
			}
			slice := level[s:end]
			sort.Slice(slice, func(i, j int) bool {
				return slice[i].rect.Center().Y < slice[j].rect.Center().Y
			})
			for o := 0; o < len(slice); o += fanout {
				oe := o + fanout
				if oe > len(slice) {
					oe = len(slice)
				}
				n := &node{id: int32(count), children: append([]*node(nil), slice[o:oe]...)}
				n.recomputeRect()
				next = append(next, n)
				count++
			}
		}
		level = next
	}
	return level[0], count
}

func (n *node) recomputeRect() {
	r := geom.EmptyRect()
	if n.leaf {
		for _, e := range n.entries {
			r = r.Union(e.Rect)
		}
	} else {
		for _, c := range n.children {
			r = r.Union(c.rect)
		}
	}
	n.rect = r
}

// checkInvariants walks the tree verifying structural invariants; it is
// exported to tests via export_test.go.
func (t *Tree) checkInvariants() error {
	count, err := t.root.check(t.fanout, t.root)
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("rtree: size %d but %d entries reachable", t.size, count)
	}
	return nil
}

func (n *node) check(fanout int, root *node) (int, error) {
	if n.leaf {
		if n != root && len(n.entries) == 0 {
			return 0, fmt.Errorf("rtree: empty non-root leaf")
		}
		if len(n.entries) > fanout {
			return 0, fmt.Errorf("rtree: leaf overflow: %d > %d", len(n.entries), fanout)
		}
		for _, e := range n.entries {
			if !n.rect.ContainsRect(e.Rect) {
				return 0, fmt.Errorf("rtree: leaf MBR %v does not contain entry %v", n.rect, e.Rect)
			}
		}
		return len(n.entries), nil
	}
	if len(n.children) == 0 {
		return 0, fmt.Errorf("rtree: internal node with no children")
	}
	if len(n.children) > fanout {
		return 0, fmt.Errorf("rtree: internal overflow: %d > %d", len(n.children), fanout)
	}
	total := 0
	for _, c := range n.children {
		if !n.rect.ContainsRect(c.rect) {
			return 0, fmt.Errorf("rtree: node MBR %v does not contain child %v", n.rect, c.rect)
		}
		sub, err := c.check(fanout, root)
		if err != nil {
			return 0, err
		}
		total += sub
	}
	return total, nil
}
