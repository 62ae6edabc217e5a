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
package summary

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// Summary is the interface routing tables store per indexed attribute.
// Implementations are value-mergeable: a parent's summary is the Merge of
// its children's plus its own.
type Summary interface {
	// AddValue folds one node's attribute value into the summary.
	AddValue(v int32)
	// MayContain reports whether the summarized set might contain v.
	// It must never return false when v was added (no false negatives).
	MayContain(v int32) bool
	// Merge folds other (same concrete type) into the receiver.
	Merge(other Summary)
	// SizeBytes is the wire size when shipped up the tree during
	// construction; charged as control traffic.
	SizeBytes() int
}

// --- Bloom filter ---------------------------------------------------------

// Bloom is a fixed-size Bloom filter over int32 attribute values. The paper
// builds Bloom summaries for x, y, cid, rid and id (section 4.1). Motes
// have tens of KB of RAM, so filters are small: the default is 32 bytes
// with 3 hash functions, which keeps the false-positive rate ~5% for the
// per-subtree cardinalities seen at 100 nodes.
type Bloom struct {
	bits   []byte
	hashes int
}

// NewBloom returns a Bloom filter of nBytes with k hash functions.
func NewBloom(nBytes, k int) *Bloom {
	if nBytes <= 0 || k <= 0 {
		panic("summary: bloom size and hash count must be positive")
	}
	return &Bloom{bits: make([]byte, nBytes), hashes: k}
}

// DefaultBloom returns the 32-byte, 3-hash filter used by the substrate.
func DefaultBloom() *Bloom { return NewBloom(32, 3) }

// hash derives the i-th bit index for v (double hashing over splitmix-style
// mixes, standard Kirsch-Mitzenmacher construction).
func (b *Bloom) hash(v int32, i int) int {
	h1, h2 := bloomMix(v)
	return int((h1 + uint64(i)*h2) % uint64(len(b.bits)*8))
}

// bloomMix returns v's two base hashes; bit i of v is h1 + i*h2 modulo the
// filter's bit count.
func bloomMix(v int32) (h1, h2 uint64) {
	z := uint64(uint32(v)) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	h1 = z ^ (z >> 31)
	z2 := h1 * 0x94D049BB133111EB
	return h1, z2 ^ (z2 >> 29)
}

// AddValue implements Summary.
func (b *Bloom) AddValue(v int32) {
	for i := 0; i < b.hashes; i++ {
		idx := b.hash(v, i)
		b.bits[idx/8] |= 1 << (idx % 8)
	}
}

// MayContain implements Summary. It mixes v once for all hash functions:
// it runs on every edge an exploration probe considers.
func (b *Bloom) MayContain(v int32) bool {
	h1, h2 := bloomMix(v)
	m := uint64(len(b.bits) * 8)
	for i := 0; i < b.hashes; i++ {
		idx := (h1 + uint64(i)*h2) % m
		if b.bits[idx/8]&(1<<(idx%8)) == 0 {
			return false
		}
	}
	return true
}

// Merge implements Summary; other must be a *Bloom of identical geometry.
func (b *Bloom) Merge(other Summary) {
	o, ok := other.(*Bloom)
	if !ok || len(o.bits) != len(b.bits) || o.hashes != b.hashes {
		panic(fmt.Sprintf("summary: cannot merge %T into *Bloom with different geometry", other))
	}
	for i := range b.bits {
		b.bits[i] |= o.bits[i]
	}
}

// SizeBytes implements Summary.
func (b *Bloom) SizeBytes() int { return len(b.bits) }

// --- Interval -------------------------------------------------------------

// Interval tracks [min, max] of the values added — the TinyDB semantic
// routing tree structure for ordered attributes.
type Interval struct {
	min, max int32
	empty    bool
}

// NewInterval returns an empty interval.
func NewInterval() *Interval { return &Interval{empty: true} }

// AddValue implements Summary.
func (iv *Interval) AddValue(v int32) {
	if iv.empty {
		iv.min, iv.max, iv.empty = v, v, false
		return
	}
	if v < iv.min {
		iv.min = v
	}
	if v > iv.max {
		iv.max = v
	}
}

// MayContain implements Summary.
func (iv *Interval) MayContain(v int32) bool {
	return !iv.empty && v >= iv.min && v <= iv.max
}

// Overlaps reports whether the summarized range intersects [lo, hi] —
// the primitive for range-predicate routing.
func (iv *Interval) Overlaps(lo, hi int32) bool {
	return !iv.empty && lo <= iv.max && iv.min <= hi
}

// Bounds returns the tracked range; ok is false for an empty interval.
func (iv *Interval) Bounds() (min, max int32, ok bool) {
	return iv.min, iv.max, !iv.empty
}

// Merge implements Summary.
func (iv *Interval) Merge(other Summary) {
	o, ok := other.(*Interval)
	if !ok {
		panic(fmt.Sprintf("summary: cannot merge %T into *Interval", other))
	}
	if o.empty {
		return
	}
	iv.AddValue(o.min)
	iv.AddValue(o.max)
}

// SizeBytes implements Summary: two 16-bit bounds.
func (iv *Interval) SizeBytes() int { return 4 }

// --- Histogram ------------------------------------------------------------

// Histogram is an equi-width bucket-occupancy bitmap over a fixed domain,
// a denser alternative to Bloom filters for low-cardinality attributes.
type Histogram struct {
	lo, hi  int32
	buckets []bool
}

// NewHistogram returns a histogram over [lo, hi] with n buckets.
func NewHistogram(lo, hi int32, n int) *Histogram {
	if n <= 0 || hi < lo {
		panic("summary: invalid histogram domain")
	}
	return &Histogram{lo: lo, hi: hi, buckets: make([]bool, n)}
}

func (h *Histogram) bucket(v int32) int {
	if v < h.lo {
		return 0
	}
	if v > h.hi {
		return len(h.buckets) - 1
	}
	span := int64(h.hi) - int64(h.lo) + 1
	return int(int64(len(h.buckets)) * (int64(v) - int64(h.lo)) / span)
}

// AddValue implements Summary.
func (h *Histogram) AddValue(v int32) { h.buckets[h.bucket(v)] = true }

// MayContain implements Summary. Values outside the domain clamp to the
// edge buckets, preserving the no-false-negative contract.
func (h *Histogram) MayContain(v int32) bool { return h.buckets[h.bucket(v)] }

// Merge implements Summary.
func (h *Histogram) Merge(other Summary) {
	o, ok := other.(*Histogram)
	if !ok || len(o.buckets) != len(h.buckets) || o.lo != h.lo || o.hi != h.hi {
		panic(fmt.Sprintf("summary: cannot merge %T into *Histogram with different geometry", other))
	}
	for i, b := range o.buckets {
		if b {
			h.buckets[i] = true
		}
	}
}

// SizeBytes implements Summary: one bit per bucket, rounded up.
func (h *Histogram) SizeBytes() int { return (len(h.buckets) + 7) / 8 }

// --- Region (R-tree) ------------------------------------------------------

// Region summarizes a set of positions with a small R-tree so region
// predicates (Query 3's Dst < 5m) can prune subtrees. It is not a Summary
// over int32 values; routing tables hold it alongside scalar summaries.
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
