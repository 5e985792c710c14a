package geom

import (
	"math"
	"math/rand"
	"testing"
)

// The Hilbert mapping must be a bijection between curve distance and cells.
func TestHilbertBijection(t *testing.T) {
	const order = 6 // 4096 cells: exhaustive
	seen := make(map[uint64]bool)
	for x := uint32(0); x < 1<<order; x++ {
		for y := uint32(0); y < 1<<order; y++ {
			d := HilbertXY2D(order, x, y)
			if seen[d] {
				t.Fatalf("duplicate hilbert distance %d at (%d,%d)", d, x, y)
			}
			seen[d] = true
			gx, gy := hilbertD2XY(order, d)
			if gx != x || gy != y {
				t.Fatalf("roundtrip (%d,%d) -> %d -> (%d,%d)", x, y, d, gx, gy)
			}
		}
	}
	if len(seen) != 1<<(2*order) {
		t.Fatalf("expected %d distinct distances, got %d", 1<<(2*order), len(seen))
	}
}

// Consecutive curve positions must be adjacent cells (the locality property
// that makes Hilbert ordering a good disk-clustering key).
func TestHilbertAdjacency(t *testing.T) {
	const order = 6
	px, py := hilbertD2XY(order, 0)
	for d := uint64(1); d < 1<<(2*order); d++ {
		x, y := hilbertD2XY(order, d)
		manhattan := absDiff(x, px) + absDiff(y, py)
		if manhattan != 1 {
			t.Fatalf("curve jump at d=%d: (%d,%d)->(%d,%d)", d, px, py, x, y)
		}
		px, py = x, y
	}
}

func absDiff(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

func TestHilbertKeyClamping(t *testing.T) {
	b := Rect{0, 0, 1, 1}
	// Outside points clamp to corners rather than wrapping.
	lo := HilbertKey(Point{-5, -5}, b)
	if lo != HilbertKey(Point{0, 0}, b) {
		t.Errorf("below-range point should clamp to min corner")
	}
	hi := HilbertKey(Point{7, 7}, b)
	if hi != HilbertKey(Point{1, 1}, b) {
		t.Errorf("above-range point should clamp to max corner")
	}
}

func TestHilbertKeyDegenerateBounds(t *testing.T) {
	b := RectFromPoint(Point{0.5, 0.5})
	// Zero-size bounds must not divide by zero and must be deterministic.
	k1 := HilbertKey(Point{0.5, 0.5}, b)
	k2 := HilbertKey(Point{0.9, 0.1}, b)
	if k1 != k2 {
		t.Errorf("degenerate bounds should map everything to the same key")
	}
}

// Points close in space should have, on average, far closer Hilbert keys
// than random pairs. This is a statistical locality check.
func TestHilbertKeyLocality(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	b := Rect{0, 0, 1, 1}
	const n = 2000
	var closeGap, farGap float64
	for i := 0; i < n; i++ {
		p := Point{rng.Float64(), rng.Float64()}
		q := Point{
			math.Min(1, math.Max(0, p.X+rng.Float64()*0.01-0.005)),
			math.Min(1, math.Max(0, p.Y+rng.Float64()*0.01-0.005)),
		}
		r := Point{rng.Float64(), rng.Float64()}
		closeGap += keyGap(p, q, b)
		farGap += keyGap(p, r, b)
	}
	if closeGap*10 > farGap {
		t.Errorf("hilbert locality too weak: close gap %v vs far gap %v", closeGap/n, farGap/n)
	}
}

func keyGap(p, q Point, b Rect) float64 {
	kp, kq := HilbertKey(p, b), HilbertKey(q, b)
	if kp > kq {
		kp, kq = kq, kp
	}
	return float64(kq - kp)
}

// hilbertD2XY converts a distance d along the order-n Hilbert curve into
// cell coordinates (x, y). It is the inverse of HilbertXY2D, the oracle of
// its round trip.
func hilbertD2XY(order uint, d uint64) (x, y uint32) {
	var rx, ry uint64
	t := d
	for s := uint64(1); s < 1<<order; s *= 2 {
		rx = 1 & (t / 2)
		ry = 1 & (t ^ rx)
		x, y = hilbertRot(s, x, y, rx, ry)
		x += uint32(s * rx)
		y += uint32(s * ry)
		t /= 4
	}
	return x, y
}
