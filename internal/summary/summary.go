// Package summary implements the attribute-summary structures the routing
// substrate indexes in its per-tree routing tables (section 2.2 and
// Appendix C): Bloom filters over discrete static attributes, 1-D integer
// intervals (as in TinyDB's semantic routing trees), equi-width histograms,
// and 2-D rectangles backed by a small R-tree (for the pos attribute).
//
// All summaries answer one question during path search: "might the subtree
// below this routing-table entry contain a node whose attribute satisfies
// the predicate?" False positives cost extra exploration traffic; false
// negatives are forbidden (they would silently drop join pairs), and the
// tests enforce that invariant property-style.
//
// The scalar summaries live in a Column: one flat word array holding a
// fixed-width row per node, so a routing table holds no per-node objects
// and a subtree test reads one contiguous row. A probed value is prepared
// once as a Key, which carries its Bloom bit positions.
package summary

import (
	"math"

	"repro/internal/geom"
)

// The one Bloom geometry. The paper builds Bloom summaries for x, y, cid,
// rid and id (section 4.1). Motes have tens of KB of RAM, so filters are
// small: 32 bytes with 3 hash functions keeps the false-positive rate ~5%
// for the per-subtree cardinalities seen at 100 nodes. The bit count is a
// power of two, so a bit position is a mask of the hash, not a remainder.
const (
	bloomBytes  = 32
	bloomHashes = 3
	bloomBits   = bloomBytes * 8
	bloomWords  = bloomBits / 64
)

// A position is a uint8: the filter must keep at most 256 bits.
const _ = uint8(bloomBits - 1)

// Key is a probed value prepared once for every row it is tested against:
// the value itself, for interval and histogram rows, and its bit positions
// in the Bloom geometry.
type Key struct {
	v   int32
	pos [bloomHashes]uint8
}

// NewKey hashes v once. Bit i of v is h1 + i*h2 modulo the filter's bit
// count (Kirsch-Mitzenmacher double hashing over splitmix-style mixes).
func NewKey(v int32) Key {
	h1, h2 := bloomMix(v)
	k := Key{v: v}
	for i := range k.pos {
		k.pos[i] = uint8((h1 + uint64(i)*h2) & (bloomBits - 1))
	}
	return k
}

// bloomMix returns v's two base hashes.
func bloomMix(v int32) (h1, h2 uint64) {
	z := uint64(uint32(v)) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	h1 = z ^ (z >> 31)
	z2 := h1 * 0x94D049BB133111EB
	return h1, z2 ^ (z2 >> 29)
}

type kind uint8

const (
	bloom kind = iota
	interval
	histogram
)

// Column is one scalar summary per row, stored as w words per row in one
// flat array; every row starts empty. Its kind fixes the row layout:
//   - Bloom: the 256-bit filter in 4 words; bit b lies in word b/64 at bit
//     b%64, so the words read as little-endian bytes are the filter's
//     32-byte wire image;
//   - Interval: one word, min in the low and max in the high 32 bits. An
//     empty row has min > max, which no value and no range lies in;
//   - Histogram: one bit per bucket, ceil(buckets/64) words.
type Column struct {
	kind    kind
	w       int   // words per row
	lo, hi  int32 // histogram domain
	buckets int
	words   []uint64
}

// NewBloomColumn returns n empty Bloom rows.
func NewBloomColumn(n int) Column {
	return Column{kind: bloom, w: bloomWords, words: make([]uint64, n*bloomWords)}
}

// emptyInterval is the row of an empty interval: min MaxInt32, max MinInt32.
const emptyInterval = uint64(math.MaxInt32) | uint64(1<<31)<<32

// NewIntervalColumn returns n empty interval rows.
func NewIntervalColumn(n int) Column {
	c := Column{kind: interval, w: 1, words: make([]uint64, n)}
	for i := range c.words {
		c.words[i] = emptyInterval
	}
	return c
}

// NewHistogramColumn returns n empty rows of an equi-width bucket-occupancy
// bitmap over [lo, hi] with buckets buckets — a denser alternative to Bloom
// filters for low-cardinality attributes.
func NewHistogramColumn(n int, lo, hi int32, buckets int) Column {
	if buckets <= 0 || hi < lo {
		panic("summary: invalid histogram domain")
	}
	w := (buckets + 63) / 64
	return Column{kind: histogram, w: w, lo: lo, hi: hi, buckets: buckets, words: make([]uint64, n*w)}
}

// Row returns row i's words; writes through it change the row.
func (c *Column) Row(i int) []uint64 { return c.words[i*c.w : (i+1)*c.w : (i+1)*c.w] }

// SizeBytes is the wire size of one row when it is shipped up the tree,
// charged as control traffic: the filter's bytes, two 16-bit bounds, or
// one bit per bucket rounded up.
func (c *Column) SizeBytes() int {
	switch c.kind {
	case interval:
		return 4
	case histogram:
		return (c.buckets + 7) / 8
	default:
		return bloomBytes
	}
}

// MemBytes is the column's resident size: its words.
func (c *Column) MemBytes() int64 { return int64(len(c.words)) * 8 }

func intervalRow(min, max int32) uint64 { return uint64(uint32(min)) | uint64(uint32(max))<<32 }

func intervalBounds(w uint64) (min, max int32) { return int32(uint32(w)), int32(uint32(w >> 32)) }

// bucket maps v to its histogram bucket. Values outside the domain clamp to
// the edge buckets, preserving the no-false-negative contract.
func (c *Column) bucket(v int32) int {
	if v < c.lo {
		return 0
	}
	if v > c.hi {
		return c.buckets - 1
	}
	span := int64(c.hi) - int64(c.lo) + 1
	return int(int64(c.buckets) * (int64(v) - int64(c.lo)) / span)
}

// Set makes row i summarize v alone.
func (c *Column) Set(i int, v int32) {
	if c.kind == interval {
		c.words[i] = intervalRow(v, v)
		return
	}
	clear(c.Row(i))
	c.Add(i, v)
}

// Add folds v into row i.
func (c *Column) Add(i int, v int32) {
	switch c.kind {
	case bloom:
		row := (*[bloomWords]uint64)(c.words[i*bloomWords:])
		for _, p := range NewKey(v).pos {
			row[p>>6] |= 1 << (p & 63)
		}
	case interval:
		min0, max0 := intervalBounds(c.words[i])
		c.words[i] = intervalRow(min(min0, v), max(max0, v))
	case histogram:
		b := c.bucket(v)
		c.words[i*c.w+b/64] |= 1 << (b % 64)
	}
}

// Merge folds row j into row i: the union of the two summarized sets.
func (c *Column) Merge(i, j int) {
	if c.kind == interval {
		min0, max0 := intervalBounds(c.words[i])
		min1, max1 := intervalBounds(c.words[j])
		c.words[i] = intervalRow(min(min0, min1), max(max0, max1))
		return
	}
	dst, src := c.Row(i), c.Row(j)
	src = src[:len(dst)]
	for k := range dst {
		dst[k] |= src[k]
	}
}

// MayContain reports whether row i might summarize k's value. It never
// returns false for a value the row holds.
func (c *Column) MayContain(i int, k Key) bool {
	switch c.kind {
	case bloom:
		row := (*[bloomWords]uint64)(c.words[i*bloomWords:])
		for _, p := range k.pos {
			if row[p>>6]&(1<<(p&63)) == 0 {
				return false
			}
		}
		return true
	case interval:
		min, max := intervalBounds(c.words[i])
		return min <= k.v && k.v <= max
	default:
		b := c.bucket(k.v)
		return c.words[i*c.w+b/64]&(1<<(b%64)) != 0
	}
}

// Overlaps reports whether row i's values might intersect [lo, hi] — the
// primitive for range-predicate routing. Only an interval row can tell; a
// Bloom or histogram row answers true, conservatively.
func (c *Column) Overlaps(i int, lo, hi int32) bool {
	if c.kind != interval {
		return true
	}
	min, max := intervalBounds(c.words[i])
	return min <= max && lo <= max && min <= hi
}

// --- Region (R-tree) ------------------------------------------------------

// Region summarizes a set of positions with a small R-tree so region
// predicates (Query 3's Dst < 5m) can prune subtrees. It is not a scalar
// row; routing tables hold one per entry beside their columns.
type Region struct {
	root *rnode
}

const rtreeFanout = 4

type rnode struct {
	mbr      geom.Rect
	children []*rnode // nil for leaves
	leaf     bool
}

// NewRegion returns an empty region summary.
func NewRegion() *Region { return &Region{} }

// AddPoint inserts one node position.
func (r *Region) AddPoint(p geom.Point) { r.insert(geom.RectFromPoint(p)) }

// AddRect inserts a bounding rectangle (merging a child subtree's region).
func (r *Region) AddRect(rect geom.Rect) { r.insert(rect) }

func (r *Region) insert(rect geom.Rect) {
	entry := &rnode{mbr: rect, leaf: true}
	if r.root == nil {
		r.root = &rnode{mbr: rect, children: []*rnode{entry}}
		return
	}
	r.root.mbr = r.root.mbr.Union(rect)
	n := r.root
	for {
		if len(n.children) == 0 || n.children[0].leaf {
			n.children = append(n.children, entry)
			if len(n.children) > rtreeFanout {
				r.splitOverflow(n)
			}
			return
		}
		best := n.children[0]
		for _, c := range n.children[1:] {
			if c.mbr.Enlargement(rect) < best.mbr.Enlargement(rect) {
				best = c
			}
		}
		best.mbr = best.mbr.Union(rect)
		n = best
	}
}

// splitOverflow performs a simple quadratic-ish split: the node keeps the
// fanout/2 entries closest to its first entry; the rest move to a sibling.
// If the node is the root, grow a new root. For small sensor networks this
// cheap heuristic suffices; search correctness never depends on split
// quality, only pruning efficiency does.
func (r *Region) splitOverflow(n *rnode) {
	half := len(n.children) / 2
	// Copy the moved entries: re-slicing would alias the parent's backing
	// array, so a later append to n.children would clobber the sibling.
	moved := make([]*rnode, len(n.children)-half)
	copy(moved, n.children[half:])
	sibling := &rnode{children: moved}
	n.children = n.children[:half]
	n.mbr = n.children[0].mbr
	for _, c := range n.children[1:] {
		n.mbr = n.mbr.Union(c.mbr)
	}
	sibling.mbr = sibling.children[0].mbr
	for _, c := range sibling.children[1:] {
		sibling.mbr = sibling.mbr.Union(c.mbr)
	}
	if n == r.root {
		r.root = &rnode{mbr: n.mbr.Union(sibling.mbr), children: []*rnode{n, sibling}}
		return
	}
	// Non-root overflow: attach sibling to the root (shallow trees are
	// fine at mote scale).
	r.root.children = append(r.root.children, sibling)
	r.root.mbr = r.root.mbr.Union(sibling.mbr)
}

// MayContainWithin reports whether any summarized position might be within
// distance d of p (the Query 3 primary predicate).
func (r *Region) MayContainWithin(p geom.Point, d float64) bool {
	if r.root == nil {
		return false
	}
	return within(r.root, p, d)
}

func within(n *rnode, p geom.Point, d float64) bool {
	if n.mbr.MinDist(p) > d {
		return false
	}
	if len(n.children) == 0 {
		return true
	}
	for _, c := range n.children {
		if c.leaf {
			if c.mbr.MinDist(p) <= d {
				return true
			}
		} else if within(c, p, d) {
			return true
		}
	}
	return false
}

// Bounds returns the overall minimum bounding rectangle; ok is false when
// empty.
func (r *Region) Bounds() (geom.Rect, bool) {
	if r.root == nil {
		return geom.Rect{}, false
	}
	return r.root.mbr, true
}

// Merge folds another region in by inserting its MBR. This loses precision
// (as shipping a whole R-tree up a mote network would be too expensive —
// the paper ships summaries, not full structures).
func (r *Region) Merge(o *Region) {
	if b, ok := o.Bounds(); ok {
		r.AddRect(b)
	}
}

// SizeBytes is the wire size: 4 coordinates at 2 bytes, per rectangle up to
// the fanout (the substrate ships only the top level).
func (r *Region) SizeBytes() int {
	if r.root == nil {
		return 2
	}
	n := len(r.root.children)
	if n > rtreeFanout {
		n = rtreeFanout
	}
	return 8 * int(math.Max(1, float64(n)))
}
