package rtree

import (
	"fmt"

	"roadskyline/internal/geom"
)

// CheckInvariants walks the tree verifying structural invariants: no node
// over the fanout, no empty node below the root, every rectangle inside its
// parent's, and every entry reachable.
func (t *Tree) CheckInvariants() error {
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
			if !containsRect(n.rect, e.Rect) {
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
		if !containsRect(n.rect, c.rect) {
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

// height returns the number of levels (1 for a leaf-only tree).
func (t *Tree) height() int {
	h, n := 1, t.root
	for !n.leaf {
		h++
		n = n.children[0]
	}
	return h
}

// containsRect reports whether s lies entirely inside r.
func containsRect(r, s geom.Rect) bool {
	return s.IsEmpty() || s.MinX >= r.MinX && s.MaxX <= r.MaxX && s.MinY >= r.MinY && s.MaxY <= r.MaxY
}

// intersects reports whether r and s share at least one point.
func intersects(r, s geom.Rect) bool {
	return !r.IsEmpty() && !s.IsEmpty() && r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}
