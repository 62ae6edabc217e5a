package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	a := Point{0, 0}
	b := Point{3, 4}
	if d := a.Dist(b); d != 5 {
		t.Fatalf("Dist = %v, want 5", d)
	}
	if d2 := a.Dist2(b); d2 != 25 {
		t.Fatalf("Dist2 = %v, want 25", d2)
	}
}

func TestDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if math.IsNaN(ax) || math.IsNaN(ay) || math.IsNaN(bx) || math.IsNaN(by) {
			return true
		}
		a, b := Point{ax, ay}, Point{bx, by}
		return a.Dist(b) == b.Dist(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{Min: Point{0, 0}, Max: Point{10, 5}}
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{5, 2}, true},
		{Point{0, 0}, true},
		{Point{10, 5}, true},
		{Point{11, 2}, false},
		{Point{5, -1}, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRectIntersects(t *testing.T) {
	a := Rect{Min: Point{0, 0}, Max: Point{5, 5}}
	b := Rect{Min: Point{4, 4}, Max: Point{9, 9}}
	c := Rect{Min: Point{6, 6}, Max: Point{9, 9}}
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Fatal("overlapping rects reported disjoint")
	}
	if a.Intersects(c) {
		t.Fatal("disjoint rects reported intersecting")
	}
	// Touching at a corner counts as intersecting.
	d := Rect{Min: Point{5, 5}, Max: Point{7, 7}}
	if !a.Intersects(d) {
		t.Fatal("corner-touching rects reported disjoint")
	}
}

func TestUnionCoversBoth(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		for _, v := range []float64{ax, ay, bx, by, cx, cy, dx, dy} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		r := Rect{Min: Point{math.Min(ax, bx), math.Min(ay, by)}, Max: Point{math.Max(ax, bx), math.Max(ay, by)}}
		s := Rect{Min: Point{math.Min(cx, dx), math.Min(cy, dy)}, Max: Point{math.Max(cx, dx), math.Max(cy, dy)}}
		u := r.Union(s)
		return u.Contains(r.Min) && u.Contains(r.Max) && u.Contains(s.Min) && u.Contains(s.Max)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEnlargement(t *testing.T) {
	r := Rect{Min: Point{0, 0}, Max: Point{2, 2}}
	s := Rect{Min: Point{1, 1}, Max: Point{2, 2}}
	if e := r.Enlargement(s); e != 0 {
		t.Fatalf("contained rect enlarged by %v, want 0", e)
	}
	u := Rect{Min: Point{0, 0}, Max: Point{4, 2}}
	if e := r.Enlargement(u); e != 4 {
		t.Fatalf("Enlargement = %v, want 4", e)
	}
}

func TestMinDist(t *testing.T) {
	r := Rect{Min: Point{0, 0}, Max: Point{10, 10}}
	if d := r.MinDist(Point{5, 5}); d != 0 {
		t.Fatalf("MinDist inside = %v, want 0", d)
	}
	if d := r.MinDist(Point{13, 14}); d != 5 {
		t.Fatalf("MinDist corner = %v, want 5", d)
	}
	if d := r.MinDist(Point{-3, 5}); d != 3 {
		t.Fatalf("MinDist edge = %v, want 3", d)
	}
}

func TestMinDistLowerBoundsPointDist(t *testing.T) {
	// MinDist(p) must never exceed the distance from p to any point in r —
	// the property R-tree pruning relies on.
	f := func(px, py, qx, qy float64) bool {
		for _, v := range []float64{px, py, qx, qy} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		r := Rect{Min: Point{qx - 1, qy - 1}, Max: Point{qx + 1, qy + 1}}
		p := Point{px, py}
		return r.MinDist(p) <= p.Dist(Point{qx, qy})+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
