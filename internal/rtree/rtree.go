// Package rtree implements an in-memory R-tree over planar rectangles with
// the query surface the skyline engine needs:
//
//   - STR bulk loading for static datasets and Guttman quadratic-split
//     insertion for incremental ones;
//   - window queries with caller-supplied descend/accept predicates (used
//     for EDC's intersection-of-disks candidate retrieval);
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
	leaf     bool
	entries  []Entry // when leaf
	children []*node // when internal
}

// Tree is an R-tree. The zero value is not usable; construct with New or
// BulkLoad. Not safe for concurrent mutation; concurrent read-only queries
// are safe (node visits are counted atomically).
type Tree struct {
	root    *node
	fanout  int
	minFill int
	size    int
	visits  *atomic.Int64 // atomic: concurrent readers share the tree
}

// minFanout is the smallest fanout a tree is built with.
const minFanout = 4

// New returns an empty tree with the given fanout (entries per node);
// fanout < 4 is raised to 4.
func New(fanout int) *Tree {
	fanout = max(fanout, minFanout)
	return &Tree{
		root:    &node{leaf: true, rect: geom.EmptyRect()},
		fanout:  fanout,
		minFill: fanout * 2 / 5,
		visits:  new(atomic.Int64),
	}
}

// Len returns the number of entries stored.
func (t *Tree) Len() int { return t.size }

// Bounds returns the bounding rectangle of all entries.
func (t *Tree) Bounds() geom.Rect { return t.root.rect }

// NodeAccesses returns the number of nodes visited by queries since the
// last ResetNodeAccesses.
func (t *Tree) NodeAccesses() int64 { return t.visits.Load() }

// ResetNodeAccesses zeroes the node-visit counter.
func (t *Tree) ResetNodeAccesses() { t.visits.Store(0) }

// Clone returns a reader over the same tree structure with an independent
// node-visit counter. The nodes themselves are shared (the tree must not be
// mutated afterwards); each clone's NodeAccesses/ResetNodeAccesses only see
// that clone's queries, so concurrent readers get isolated statistics.
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
func LoadSorted(entries []Entry, fanout int) *Tree {
	t := New(fanout)
	if len(entries) == 0 {
		return t
	}
	t.size = len(entries)
	leaves := make([]*node, 0, (len(entries)+t.fanout-1)/t.fanout)
	for o := 0; o < len(entries); o += t.fanout {
		oe := min(o+t.fanout, len(entries))
		// Capacity stops at the leaf's end: an Insert that grows a leaf
		// reallocates it instead of writing into its neighbour.
		leaf := &node{leaf: true, entries: entries[o:oe:oe]}
		leaf.recomputeRect()
		leaves = append(leaves, leaf)
	}
	t.root = strPackUp(leaves, t.fanout)
	return t
}

func strPackUp(level []*node, fanout int) *node {
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
				n := &node{children: append([]*node(nil), slice[o:oe]...)}
				n.recomputeRect()
				next = append(next, n)
			}
		}
		level = next
	}
	return level[0]
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

// Insert adds an entry, choosing subtrees by least area enlargement and
// splitting full nodes with Guttman's quadratic split.
func (t *Tree) Insert(e Entry) {
	t.size++
	split := t.insert(t.root, e)
	if split != nil {
		old := t.root
		t.root = &node{children: []*node{old, split}}
		t.root.recomputeRect()
	}
}

func (t *Tree) insert(n *node, e Entry) *node {
	n.rect = n.rect.Union(e.Rect)
	if n.leaf {
		n.entries = append(n.entries, e)
		if len(n.entries) > t.fanout {
			return t.splitLeaf(n)
		}
		return nil
	}
	best := chooseSubtree(n.children, e.Rect)
	if split := t.insert(n.children[best], e); split != nil {
		n.children = append(n.children, split)
		if len(n.children) > t.fanout {
			return t.splitInternal(n)
		}
	}
	return nil
}

func chooseSubtree(children []*node, r geom.Rect) int {
	best, bestEnl, bestArea := 0, math.Inf(1), math.Inf(1)
	for i, c := range children {
		area := c.rect.Area()
		enl := c.rect.Union(r).Area() - area
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// quadratic seeds: the pair wasting the most area when grouped together.
func quadraticSeeds(rects []geom.Rect) (int, int) {
	s1, s2, worst := 0, 1, math.Inf(-1)
	for i := 0; i < len(rects); i++ {
		for j := i + 1; j < len(rects); j++ {
			waste := rects[i].Union(rects[j]).Area() - rects[i].Area() - rects[j].Area()
			if waste > worst {
				worst, s1, s2 = waste, i, j
			}
		}
	}
	return s1, s2
}

// quadraticSplit partitions indices 0..n-1 into two groups.
func (t *Tree) quadraticSplit(rects []geom.Rect) (g1, g2 []int) {
	s1, s2 := quadraticSeeds(rects)
	g1, g2 = []int{s1}, []int{s2}
	r1, r2 := rects[s1], rects[s2]
	rest := make([]int, 0, len(rects)-2)
	for i := range rects {
		if i != s1 && i != s2 {
			rest = append(rest, i)
		}
	}
	for len(rest) > 0 {
		// Force assignment when one group must take all remaining to reach
		// minimum fill.
		if len(g1)+len(rest) == t.minFill {
			for _, i := range rest {
				g1 = append(g1, i)
			}
			break
		}
		if len(g2)+len(rest) == t.minFill {
			for _, i := range rest {
				g2 = append(g2, i)
			}
			break
		}
		// Pick the entry with the greatest preference for one group.
		bestIdx, bestDiff := -1, -1.0
		var toG1 bool
		for k, i := range rest {
			d1 := r1.Union(rects[i]).Area() - r1.Area()
			d2 := r2.Union(rects[i]).Area() - r2.Area()
			diff := math.Abs(d1 - d2)
			if diff > bestDiff {
				bestDiff, bestIdx, toG1 = diff, k, d1 < d2
			}
		}
		i := rest[bestIdx]
		rest[bestIdx] = rest[len(rest)-1]
		rest = rest[:len(rest)-1]
		if toG1 {
			g1 = append(g1, i)
			r1 = r1.Union(rects[i])
		} else {
			g2 = append(g2, i)
			r2 = r2.Union(rects[i])
		}
	}
	return g1, g2
}

func (t *Tree) splitLeaf(n *node) *node {
	rects := make([]geom.Rect, len(n.entries))
	for i, e := range n.entries {
		rects[i] = e.Rect
	}
	g1, g2 := t.quadraticSplit(rects)
	old := n.entries
	n.entries = make([]Entry, 0, len(g1))
	for _, i := range g1 {
		n.entries = append(n.entries, old[i])
	}
	sib := &node{leaf: true, entries: make([]Entry, 0, len(g2))}
	for _, i := range g2 {
		sib.entries = append(sib.entries, old[i])
	}
	n.recomputeRect()
	sib.recomputeRect()
	return sib
}

func (t *Tree) splitInternal(n *node) *node {
	rects := make([]geom.Rect, len(n.children))
	for i, c := range n.children {
		rects[i] = c.rect
	}
	g1, g2 := t.quadraticSplit(rects)
	old := n.children
	n.children = make([]*node, 0, len(g1))
	for _, i := range g1 {
		n.children = append(n.children, old[i])
	}
	sib := &node{children: make([]*node, 0, len(g2))}
	for _, i := range g2 {
		sib.children = append(sib.children, old[i])
	}
	n.recomputeRect()
	sib.recomputeRect()
	return sib
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
