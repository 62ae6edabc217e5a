package routing

import (
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/summary"
	"repro/internal/topology"
)

// extendSpecs builds two small index specs over deterministic per-node
// values.
func extendSpecs(n int) []IndexSpec {
	a := make([]int32, n)
	b := make([]int32, n)
	for i := range a {
		a[i] = int32(i % 13)
		b[i] = int32((i * 7) % 29)
	}
	return []IndexSpec{
		{Attr: "alpha", Kind: BloomSummary, Value: valuesOf(a)},
		{Attr: "beta", Kind: BloomSummary, Value: valuesOf(b)},
	}
}

// TestExtendIndexesMatchesConstruction: extending an index-less substrate
// must produce exactly the routing tables a substrate built with those
// indexes up front has — same rows, same membership answers.
func TestExtendIndexesMatchesConstruction(t *testing.T) {
	topo := topology.Generate(topology.ModerateRandom, 80, 1)
	specs := extendSpecs(topo.N())

	upfront := NewSubstrate(topo, Options{NumTrees: 3, Indexes: specs}, nil)
	extended := NewSubstrate(topo, Options{NumTrees: 3}, nil)
	extended.ExtendIndexes(specs, nil)

	for _, spec := range specs {
		if !extended.HasIndex(spec.Attr) {
			t.Fatalf("attr %s not indexed after extension", spec.Attr)
		}
		ca, cb := upfront.ColumnIndex(spec.Attr), extended.ColumnIndex(spec.Attr)
		for ti := range upfront.Trees {
			for i := 0; i < topo.N(); i++ {
				id := topology.NodeID(i)
				a, b := upfront.cols[ti][ca].Row(i), extended.cols[ti][cb].Row(i)
				if !slices.Equal(a, b) {
					t.Fatalf("tree %d node %d attr %s: row %x != %x", ti, id, spec.Attr, a, b)
				}
				for v := int32(0); v < 32; v++ {
					k := summary.NewKey(v)
					if upfront.Entry(ti, id).MayContain(ca, k) != extended.Entry(ti, id).MayContain(cb, k) {
						t.Fatalf("tree %d node %d attr %s value %d: membership differs", ti, id, spec.Attr, v)
					}
				}
			}
		}
	}
}

// TestExtendIndexesCharges: extension ships each new summary to the parent
// once per tree; re-extending the same attribute is free.
func TestExtendIndexesCharges(t *testing.T) {
	topo := topology.Generate(topology.ModerateRandom, 60, 1)
	specs := extendSpecs(topo.N())
	net := sim.NewNetwork(topo, 0, 1)
	s := NewSubstrate(topo, Options{NumTrees: 2}, nil)

	s.ExtendIndexes(specs[:1], net)
	first := net.Metrics().TotalBytes
	if first <= 0 {
		t.Fatal("extension charged nothing")
	}
	s.ExtendIndexes(specs[:1], net)
	if net.Metrics().TotalBytes != first {
		t.Fatal("re-extending an indexed attribute charged traffic")
	}
	s.ExtendIndexes(specs, net)
	second := net.Metrics().TotalBytes
	if second <= first {
		t.Fatal("new attribute charged nothing")
	}
	// Dissemination is incremental: adding beta after alpha costs no more
	// headers than adding beta alone would.
	net2 := sim.NewNetwork(topo, 0, 1)
	s2 := NewSubstrate(topo, Options{NumTrees: 2}, nil)
	s2.ExtendIndexes(specs[1:], net2)
	if got, want := second-first, net2.Metrics().TotalBytes; got != want {
		t.Fatalf("incremental beta cost %d, standalone %d", got, want)
	}
}

// TestExtendPositionIndex: extension adds region summaries identical to
// construction-time indexing and is idempotent.
func TestExtendPositionIndex(t *testing.T) {
	topo := topology.Generate(topology.ModerateRandom, 60, 1)
	upfront := NewSubstrate(topo, Options{NumTrees: 2, IndexPositions: true}, nil)
	net := sim.NewNetwork(topo, 0, 1)
	ext := NewSubstrate(topo, Options{NumTrees: 2}, nil)
	ext.ExtendPositionIndex(net)
	if ext.Entry(0, topology.Base).Region() == nil {
		t.Fatal("positions not indexed")
	}
	charged := net.Metrics().TotalBytes
	if charged <= 0 {
		t.Fatal("position extension charged nothing")
	}
	ext.ExtendPositionIndex(net)
	if net.Metrics().TotalBytes != charged {
		t.Fatal("re-extending positions charged traffic")
	}
	for ti := range upfront.Trees {
		for i := 0; i < topo.N(); i++ {
			id := topology.NodeID(i)
			a, b := upfront.Entry(ti, id).Region(), ext.Entry(ti, id).Region()
			if a.SizeBytes() != b.SizeBytes() {
				t.Fatalf("tree %d node %d: region size %d != %d", ti, id, a.SizeBytes(), b.SizeBytes())
			}
			if !a.MayContainWithin(topo.Pos(id), 0.01) || !b.MayContainWithin(topo.Pos(id), 0.01) {
				t.Fatalf("tree %d node %d: region misses own position", ti, id)
			}
		}
	}
}
