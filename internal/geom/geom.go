// Package geom provides the small amount of 2-D geometry the routing
// substrates and region queries need: points, Euclidean distance, and
// axis-aligned rectangles (the building block of the R-tree summaries and
// of GPSR's planar forwarding decisions).
//
// The paper deploys sensors on a 256 m x 256 m grid (Table 1, attribute
// pos); all coordinates here are float64 metres in that frame.
package geom

import "math"

// Point is a position in the deployment plane, in metres.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance, avoiding the sqrt when only
// comparisons are needed (GPSR greedy forwarding compares millions of
// candidate distances).
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Rect is an axis-aligned rectangle. Min is the lower-left corner and Max
// the upper-right; a valid Rect has Min.X <= Max.X and Min.Y <= Max.Y.
// The zero Rect is the empty rectangle at the origin.
type Rect struct {
	Min, Max Point
}

// RectFromPoint returns the degenerate rectangle containing exactly p.
func RectFromPoint(p Point) Rect { return Rect{Min: p, Max: p} }

// Contains reports whether p lies inside r (inclusive of the boundary).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// Union returns the smallest rectangle covering both r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		Min: Point{math.Min(r.Min.X, s.Min.X), math.Min(r.Min.Y, s.Min.Y)},
		Max: Point{math.Max(r.Max.X, s.Max.X), math.Max(r.Max.Y, s.Max.Y)},
	}
}

// Area returns the area of r in square metres.
func (r Rect) Area() float64 {
	return (r.Max.X - r.Min.X) * (r.Max.Y - r.Min.Y)
}

// Enlargement returns how much r's area grows if extended to cover s.
// R-tree insertion picks the child with minimum enlargement.
func (r Rect) Enlargement(s Rect) float64 {
	return r.Union(s).Area() - r.Area()
}

// MinDist returns the minimum Euclidean distance from p to any point of r;
// zero when p is inside r. Used to prune R-tree traversal for region joins.
func (r Rect) MinDist(p Point) float64 {
	dx := math.Max(0, math.Max(r.Min.X-p.X, p.X-r.Max.X))
	dy := math.Max(0, math.Max(r.Min.Y-p.Y, p.Y-r.Max.Y))
	return math.Hypot(dx, dy)
}
