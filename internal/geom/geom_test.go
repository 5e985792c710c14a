package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1, 1}, Point{1, 1}, 0},
		{Point{-1, 0}, Point{1, 0}, 2},
		{Point{0, -2}, Point{0, 2}, 4},
	}
	for _, c := range cases {
		if got := c.p.Dist(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Dist(%v, %v) = %v, want %v", c.p, c.q, got, c.want)
		}
		if got := c.p.DistSq(c.q); math.Abs(got-c.want*c.want) > 1e-9 {
			t.Errorf("DistSq(%v, %v) = %v, want %v", c.p, c.q, got, c.want*c.want)
		}
	}
}

func TestDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Point{ax, ay}, Point{bx, by}
		return a.Dist(b) == b.Dist(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLerp(t *testing.T) {
	a, b := Point{0, 0}, Point{10, 20}
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp 0 = %v, want %v", got, a)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp 1 = %v, want %v", got, b)
	}
	if got := a.Lerp(b, 0.5); got != (Point{5, 10}) {
		t.Errorf("Lerp 0.5 = %v", got)
	}
}

func TestRectBasics(t *testing.T) {
	r := RectFromPoints(Point{2, 3}, Point{0, 1})
	want := Rect{0, 1, 2, 3}
	if r != want {
		t.Fatalf("RectFromPoints = %v, want %v", r, want)
	}
	if r.IsEmpty() {
		t.Error("non-degenerate rect reported empty")
	}
	if !r.Contains(Point{1, 2}) || !r.Contains(Point{0, 1}) || r.Contains(Point{3, 3}) {
		t.Error("Contains wrong")
	}
	if got := r.Center(); got != (Point{1, 2}) {
		t.Errorf("Center = %v", got)
	}
}

func TestEmptyRect(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Fatal("EmptyRect not empty")
	}
	r := Rect{0, 0, 1, 1}
	if e.Union(r) != r || r.Union(e) != r {
		t.Error("empty rect is not the Union identity")
	}
	if e.Contains(Point{0, 0}) || e.Contains(Point{0.5, 0.5}) {
		t.Error("empty rect contains a point")
	}
}

func TestUnionContains(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		r := RectFromPoints(Point{ax, ay}, Point{bx, by})
		s := RectFromPoints(Point{cx, cy}, Point{dx, dy})
		u := r.Union(s)
		for _, c := range []Point{{ax, ay}, {bx, by}, {cx, cy}, {dx, dy}} {
			if !u.Contains(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinDist(t *testing.T) {
	r := Rect{0, 0, 2, 2}
	cases := []struct {
		p    Point
		want float64
	}{
		{Point{1, 1}, 0},            // inside
		{Point{2, 2}, 0},            // corner
		{Point{3, 1}, 1},            // right of
		{Point{-1, -1}, math.Sqrt2}, // diagonal
		{Point{1, 5}, 3},            // above
	}
	for _, c := range cases {
		if got := r.MinDist(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("MinDist(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// MinDist must lower-bound the distance to every point inside the rect.
func TestMinDistLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		r := RectFromPoints(
			Point{rng.Float64(), rng.Float64()},
			Point{rng.Float64(), rng.Float64()},
		)
		p := Point{rng.Float64()*4 - 2, rng.Float64()*4 - 2}
		inside := Point{
			r.MinX + rng.Float64()*(r.MaxX-r.MinX),
			r.MinY + rng.Float64()*(r.MaxY-r.MinY),
		}
		if md := r.MinDist(p); md > p.Dist(inside)+1e-9 {
			t.Fatalf("MinDist %v > actual dist %v", md, p.Dist(inside))
		}
	}
}

func TestSegmentPointDist(t *testing.T) {
	a, b := Point{0, 0}, Point{10, 0}
	d, tt := SegmentPointDist(a, b, Point{5, 3})
	if math.Abs(d-3) > 1e-12 || math.Abs(tt-0.5) > 1e-12 {
		t.Errorf("got (%v,%v), want (3,0.5)", d, tt)
	}
	d, tt = SegmentPointDist(a, b, Point{-3, 4})
	if math.Abs(d-5) > 1e-12 || tt != 0 {
		t.Errorf("clamp before start: got (%v,%v)", d, tt)
	}
	d, tt = SegmentPointDist(a, b, Point{13, 4})
	if math.Abs(d-5) > 1e-12 || tt != 1 {
		t.Errorf("clamp after end: got (%v,%v)", d, tt)
	}
	// Degenerate segment.
	d, tt = SegmentPointDist(a, a, Point{3, 4})
	if math.Abs(d-5) > 1e-12 || tt != 0 {
		t.Errorf("degenerate: got (%v,%v)", d, tt)
	}
}

func TestSegmentsIntersect(t *testing.T) {
	cases := []struct {
		a, b, c, d Point
		want       bool
	}{
		{Point{0, 0}, Point{2, 2}, Point{0, 2}, Point{2, 0}, true},  // cross
		{Point{0, 0}, Point{1, 1}, Point{2, 2}, Point{3, 3}, false}, // collinear apart
		{Point{0, 0}, Point{2, 2}, Point{1, 1}, Point{3, 3}, true},  // collinear overlap
		{Point{0, 0}, Point{1, 0}, Point{1, 0}, Point{2, 5}, true},  // shared endpoint
		{Point{0, 0}, Point{1, 0}, Point{0, 1}, Point{1, 1}, false}, // parallel
		{Point{0, 0}, Point{4, 0}, Point{2, 0}, Point{2, 3}, true},  // T-junction
	}
	for i, c := range cases {
		if got := SegmentsIntersect(c.a, c.b, c.c, c.d); got != c.want {
			t.Errorf("case %d: got %v, want %v", i, got, c.want)
		}
	}
}

func TestSegmentIntersectsRect(t *testing.T) {
	r := Rect{1, 1, 3, 3}
	cases := []struct {
		a, b Point
		want bool
	}{
		{Point{0, 0}, Point{4, 4}, true},      // passes through
		{Point{2, 2}, Point{2.5, 2.5}, true},  // fully inside
		{Point{0, 0}, Point{0.5, 0.5}, false}, // fully outside
		{Point{0, 2}, Point{4, 2}, true},      // horizontal crossing
		{Point{0, 0}, Point{4, 0}, false},     // passes below
		{Point{0, 1}, Point{4, 1}, true},      // along boundary
	}
	for i, c := range cases {
		if got := SegmentIntersectsRect(c.a, c.b, r); got != c.want {
			t.Errorf("case %d: got %v, want %v", i, got, c.want)
		}
	}
}
