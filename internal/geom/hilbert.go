package geom

// HilbertOrder is the resolution (bits per dimension) of the Hilbert curve
// used for disk clustering. 16 bits per dimension gives 2^32 cells, far
// below float64 precision loss for unit-square coordinates.
const HilbertOrder = 16

// HilbertXY2D converts cell coordinates (x, y) into the distance along the
// order-n Hilbert curve. Cells adjacent on the curve are adjacent in the
// plane, which is why sorting graph nodes by this key clusters spatially
// close adjacency lists onto the same disk page.
func HilbertXY2D(order uint, x, y uint32) uint64 {
	var rx, ry, d uint64
	for s := uint64(1) << (order - 1); s > 0; s /= 2 {
		if uint64(x)&s > 0 {
			rx = 1
		} else {
			rx = 0
		}
		if uint64(y)&s > 0 {
			ry = 1
		} else {
			ry = 0
		}
		d += s * s * ((3 * rx) ^ ry)
		x, y = hilbertRot(s, x, y, rx, ry)
	}
	return d
}

// hilbertRot rotates/flips a quadrant appropriately.
func hilbertRot(s uint64, x, y uint32, rx, ry uint64) (uint32, uint32) {
	if ry == 0 {
		if rx == 1 {
			x = uint32(s-1) - x
			y = uint32(s-1) - y
		}
		x, y = y, x
	}
	return x, y
}

// HilbertKey maps a point inside bounds to its Hilbert curve distance at
// HilbertOrder resolution. Points outside bounds are clamped.
func HilbertKey(p Point, bounds Rect) uint64 {
	side := uint32(1)<<HilbertOrder - 1
	w := bounds.MaxX - bounds.MinX
	h := bounds.MaxY - bounds.MinY
	var cx, cy uint32
	if w > 0 {
		cx = clampCell((p.X-bounds.MinX)/w, side)
	}
	if h > 0 {
		cy = clampCell((p.Y-bounds.MinY)/h, side)
	}
	return HilbertXY2D(HilbertOrder, cx, cy)
}

func clampCell(t float64, side uint32) uint32 {
	if t <= 0 {
		return 0
	}
	if t >= 1 {
		return side
	}
	return uint32(t * float64(side+1))
}
