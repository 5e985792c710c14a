// Package geom provides the small geometry kernel shared by the road-network
// skyline engine: points, segments, minimum bounding rectangles and the
// Hilbert space-filling curve used to cluster adjacency lists on disk.
//
// All coordinates are in the abstract unit of the network embedding. The
// paper normalises every network into a 1 km x 1 km region, so coordinates
// are typically in [0, 1].
//
// A product that a sum or difference consumes is wrapped in float64(...)
// throughout the repository: the Go spec lets a compiler fuse x*y + z into
// one rounding, as arm64 does, and an explicit conversion forbids that, so
// every architecture rounds as amd64 does. TestNoFusedMultiplyAdd (package
// roadskyline) holds the arm64 build to it.
package geom

import "math"

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// DistSq returns the squared Euclidean distance between p and q. It avoids
// the square root for comparison-only call sites.
func (p Point) DistSq(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return float64(dx*dx) + float64(dy*dy)
}

// Lerp returns the point a fraction t of the way from p to q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + float64((q.X-p.X)*t), p.Y + float64((q.Y-p.Y)*t)}
}

// Rect is an axis-aligned minimum bounding rectangle. A Rect is valid when
// MinX <= MaxX and MinY <= MaxY; the zero Rect is a degenerate rectangle at
// the origin.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// RectFromPoint returns the degenerate rectangle covering exactly p.
func RectFromPoint(p Point) Rect {
	return Rect{p.X, p.Y, p.X, p.Y}
}

// RectFromPoints returns the smallest rectangle covering both p and q.
func RectFromPoints(p, q Point) Rect {
	return Rect{
		MinX: math.Min(p.X, q.X),
		MinY: math.Min(p.Y, q.Y),
		MaxX: math.Max(p.X, q.X),
		MaxY: math.Max(p.Y, q.Y),
	}
}

// EmptyRect returns the identity element for Union: a rectangle that
// contains nothing and unions to its argument.
func EmptyRect() Rect {
	inf := math.Inf(1)
	return Rect{inf, inf, -inf, -inf}
}

// IsEmpty reports whether r is the empty rectangle (contains no point).
func (r Rect) IsEmpty() bool {
	return r.MinX > r.MaxX || r.MinY > r.MaxY
}

// Union returns the smallest rectangle covering both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		MinX: math.Min(r.MinX, s.MinX),
		MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX),
		MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{float64((r.MinX + r.MaxX) / 2), float64((r.MinY + r.MaxY) / 2)}
}

// MinDist returns the minimum Euclidean distance from p to any point of r;
// it is 0 when p is inside r. MinDist is the classic R-tree NN lower bound.
func (r Rect) MinDist(p Point) float64 {
	dx := axisDist(p.X, r.MinX, r.MaxX)
	dy := axisDist(p.Y, r.MinY, r.MaxY)
	return math.Hypot(dx, dy)
}

func axisDist(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo - v
	case v > hi:
		return v - hi
	default:
		return 0
	}
}

// SegmentPointDist returns the minimum distance from point p to the segment
// a-b, together with the parameter t in [0,1] of the closest point.
func SegmentPointDist(a, b, p Point) (dist, t float64) {
	abx, aby := b.X-a.X, b.Y-a.Y
	den := float64(abx*abx) + float64(aby*aby)
	if den == 0 {
		return p.Dist(a), 0
	}
	t = (float64((p.X-a.X)*abx) + float64((p.Y-a.Y)*aby)) / den
	t = math.Max(0, math.Min(1, t))
	return p.Dist(a.Lerp(b, t)), t
}

// SegmentsIntersect reports whether segments a-b and c-d share a point.
// Collinear overlapping segments are reported as intersecting.
func SegmentsIntersect(a, b, c, d Point) bool {
	d1 := cross(c, d, a)
	d2 := cross(c, d, b)
	d3 := cross(a, b, c)
	d4 := cross(a, b, d)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	return (d1 == 0 && onSegment(c, d, a)) ||
		(d2 == 0 && onSegment(c, d, b)) ||
		(d3 == 0 && onSegment(a, b, c)) ||
		(d4 == 0 && onSegment(a, b, d))
}

func cross(o, a, b Point) float64 {
	return float64((a.X-o.X)*(b.Y-o.Y)) - float64((a.Y-o.Y)*(b.X-o.X))
}

func onSegment(a, b, p Point) bool {
	return math.Min(a.X, b.X) <= p.X && p.X <= math.Max(a.X, b.X) &&
		math.Min(a.Y, b.Y) <= p.Y && p.Y <= math.Max(a.Y, b.Y)
}

// SegmentIntersectsRect reports whether segment a-b intersects rectangle r
// (boundary inclusive).
func SegmentIntersectsRect(a, b Point, r Rect) bool {
	if r.Contains(a) || r.Contains(b) {
		return true
	}
	corners := [4]Point{
		{r.MinX, r.MinY}, {r.MaxX, r.MinY},
		{r.MaxX, r.MaxY}, {r.MinX, r.MaxY},
	}
	for i := 0; i < 4; i++ {
		if SegmentsIntersect(a, b, corners[i], corners[(i+1)%4]) {
			return true
		}
	}
	return false
}
