package routing

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/topology"
)

// refSummary is the per-node summary object a routing table held before
// its columns became flat word rows, kept here as the reference the rows
// are checked against: words renders it in the row layout.
type refSummary interface {
	add(v int32)
	merge(o refSummary)
	words() []uint64
}

// refMix is the filter's hash, copied so the reference does not share it.
func refMix(v int32) (h1, h2 uint64) {
	z := uint64(uint32(v)) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	h1 = z ^ (z >> 31)
	z2 := h1 * 0x94D049BB133111EB
	return h1, z2 ^ (z2 >> 29)
}

// refBloom is the 32-byte, 3-hash filter: bit (h1 + i*h2) % m at byte
// idx/8, bit idx%8.
type refBloom struct{ bits [32]byte }

func (b *refBloom) add(v int32) {
	h1, h2 := refMix(v)
	for i := uint64(0); i < 3; i++ {
		idx := (h1 + i*h2) % uint64(len(b.bits)*8)
		b.bits[idx/8] |= 1 << (idx % 8)
	}
}

func (b *refBloom) merge(o refSummary) {
	for i, x := range o.(*refBloom).bits {
		b.bits[i] |= x
	}
}

func (b *refBloom) words() []uint64 {
	w := make([]uint64, 4)
	for i, x := range b.bits {
		w[i/8] |= uint64(x) << (8 * (i % 8))
	}
	return w
}

type refInterval struct {
	min, max int32
	empty    bool
}

func (iv *refInterval) add(v int32) {
	if iv.empty {
		iv.min, iv.max, iv.empty = v, v, false
		return
	}
	iv.min, iv.max = min(iv.min, v), max(iv.max, v)
}

func (iv *refInterval) merge(o refSummary) {
	if oi := o.(*refInterval); !oi.empty {
		iv.add(oi.min)
		iv.add(oi.max)
	}
}

func (iv *refInterval) words() []uint64 {
	return []uint64{uint64(uint32(iv.min)) | uint64(uint32(iv.max))<<32}
}

type refHistogram struct {
	lo, hi  int32
	buckets []bool
}

func (h *refHistogram) add(v int32) {
	b := len(h.buckets) - 1
	if v < h.lo {
		b = 0
	} else if v <= h.hi {
		b = int(int64(len(h.buckets)) * (int64(v) - int64(h.lo)) / (int64(h.hi) - int64(h.lo) + 1))
	}
	h.buckets[b] = true
}

func (h *refHistogram) merge(o refSummary) {
	for i, x := range o.(*refHistogram).buckets {
		h.buckets[i] = h.buckets[i] || x
	}
}

func (h *refHistogram) words() []uint64 {
	w := make([]uint64, (len(h.buckets)+63)/64)
	for i, x := range h.buckets {
		if x {
			w[i/64] |= 1 << (i % 64)
		}
	}
	return w
}

// valuesOf is the IndexSpec.Value of a test's dense value column.
func valuesOf(vals []int32) func(topology.NodeID) int32 {
	return func(id topology.NodeID) int32 { return vals[id] }
}

func newRef(spec IndexSpec) refSummary {
	switch spec.Kind {
	case IntervalSummary:
		return &refInterval{empty: true}
	case HistogramSummary:
		return &refHistogram{lo: spec.Lo, hi: spec.Hi, buckets: make([]bool, spec.Buckets)}
	default:
		return &refBloom{}
	}
}

// requireColumnsMatchReference folds every live column of s from scratch
// with the per-node reference objects over each tree's current shape and
// requires every row to equal the reference's, bit for bit. A freed column
// must hold no words.
func requireColumnsMatchReference(t *testing.T, s *Substrate, ctx string) {
	t.Helper()
	n := s.Topo.N()
	for ti, tree := range s.Trees {
		for ci, spec := range s.specs {
			if !s.live(ci) {
				if b := s.cols[ti][ci].MemBytes(); b != 0 {
					t.Fatalf("%s: tree %d freed column %s keeps %d bytes", ctx, ti, spec.Attr, b)
				}
				continue
			}
			ref := make([]refSummary, n)
			for _, id := range tree.DeepFirst() {
				ref[id] = newRef(spec)
				ref[id].add(spec.Value(id))
				for _, c := range tree.ChildrenOf(id) {
					ref[id].merge(ref[c])
				}
			}
			for i := 0; i < n; i++ {
				if got, want := s.cols[ti][ci].Row(i), ref[i].words(); !slices.Equal(got, want) {
					t.Fatalf("%s: tree %d column %s node %d: row %x, reference %x", ctx, ti, spec.Attr, i, got, want)
				}
			}
		}
	}
}

// TestFlatColumnsMatchObjectReference: the flat Bloom, interval and
// histogram rows equal the per-node objects they replace, bit for bit,
// after construction, an extension and churn repairs — patches and the
// re-root of a tree whose root died.
func TestFlatColumnsMatchObjectReference(t *testing.T) {
	n := 300
	topo := topology.Generate(topology.DenseRandom, n, 4)
	ids, band := make([]int32, n), make([]int32, n)
	for i := range ids {
		ids[i] = int32(i) - 40 // negatives too
		band[i] = int32(i*7) % 500
	}
	specs := []IndexSpec{
		{Attr: "id", Kind: BloomSummary, Value: valuesOf(ids)},
		{Attr: "range", Kind: IntervalSummary, Value: valuesOf(ids)},
		{Attr: "band", Kind: HistogramSummary, Value: valuesOf(band), Lo: 0, Hi: 499, Buckets: 100},
		{Attr: "coarse", Kind: HistogramSummary, Value: valuesOf(band), Lo: 0, Hi: 99, Buckets: 16},
	}
	s := NewSubstrate(topo, Options{NumTrees: 2, Indexes: specs[:2]}, nil)
	requireColumnsMatchReference(t, s, "construction")
	s.ExtendIndexes(specs, nil)
	requireColumnsMatchReference(t, s, "extension")

	live := topology.NewLiveness(n)
	rng := xorshift(31)
	for epoch := 0; epoch < 12; epoch++ {
		var failed []topology.NodeID
		if r := s.Trees[1].Root; epoch%5 == 3 && live.Alive(r) {
			failed = append(failed, r)
		}
		for k := 0; k < 1+rng.intn(3); k++ {
			if id := topology.NodeID(1 + rng.intn(n-1)); live.Alive(id) && !slices.Contains(failed, id) {
				failed = append(failed, id)
			}
		}
		for _, id := range failed {
			live.Fail(id)
		}
		s.RepairTrees(nil, live, failed)
		requireColumnsMatchReference(t, s, fmt.Sprintf("repair %d", epoch))
	}
	if st := s.Stats(); st.Patched == 0 || st.Rebuilt == 0 {
		t.Fatalf("a repair kind never ran: %+v", st)
	}
}

// TestFoldAllocs: folding a repair's dirty nodes writes rows in place, so
// once the columns exist it allocates nothing, for every summary kind.
func TestFoldAllocs(t *testing.T) {
	n := 500
	topo := topology.Generate(topology.DenseRandom, n, 6)
	vals := make([]int32, n)
	for i := range vals {
		vals[i] = int32(i % 61)
	}
	s := NewSubstrate(topo, Options{NumTrees: 1, Indexes: []IndexSpec{
		{Attr: "b", Kind: BloomSummary, Value: valuesOf(vals)},
		{Attr: "i", Kind: IntervalSummary, Value: valuesOf(vals)},
		{Attr: "h", Kind: HistogramSummary, Value: valuesOf(vals), Lo: 0, Hi: 60, Buckets: 80},
	}}, nil)
	tree := s.Trees[0]
	live := topology.NewLiveness(n)
	victim := tree.DeepFirst()[n/2]
	for len(tree.ChildrenOf(victim)) == 0 {
		victim = tree.Parent[victim]
	}
	live.Fail(victim)
	dirty := PatchTreeLive(topo, tree, nil, live, NewPatchScratch())
	if len(dirty) == 0 {
		t.Fatal("the patch dirtied nothing")
	}
	foldAll := func(order []topology.NodeID) {
		for c := range s.cols[0] {
			s.fold(0, tree, order, c)
		}
	}
	if a := testing.AllocsPerRun(20, func() { foldAll(dirty) }); a != 0 {
		t.Fatalf("a repair fold allocates %.1f times", a)
	}
	if a := testing.AllocsPerRun(5, func() { foldAll(tree.DeepFirst()) }); a != 0 {
		t.Fatalf("a whole-tree fold allocates %.1f times", a)
	}
	requireColumnsMatchReference(t, s, "after the folds")
}
