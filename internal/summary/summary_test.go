package summary

import (
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/rng"
)

// --- Bloom ---

func TestBloomNoFalseNegatives(t *testing.T) {
	f := func(vals []int32) bool {
		b := DefaultBloom()
		for _, v := range vals {
			b.AddValue(v)
		}
		for _, v := range vals {
			if !b.MayContain(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBloomFalsePositiveRate(t *testing.T) {
	b := DefaultBloom()
	src := rng.New(1)
	for i := 0; i < 20; i++ { // ~ per-subtree cardinality at 100 nodes
		b.AddValue(int32(src.Intn(1 << 16)))
	}
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		v := int32(src.Intn(1<<16)) + (1 << 20) // disjoint from inserted domain
		if b.MayContain(v) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.15 {
		t.Fatalf("false positive rate %.3f too high for 20 inserts in 32 bytes", rate)
	}
}

// TestBloomMayContainMatchesHash: MayContain, which mixes a value once for
// all its hash functions, answers exactly as testing every hash(v, i) bit
// does, over random geometries, contents and probes.
func TestBloomMayContainMatchesHash(t *testing.T) {
	src := rng.New(11)
	value := func() int32 {
		if src.Bool(0.5) {
			return int32(src.Intn(256)) - 128 // dense enough to hit set bits
		}
		return int32(src.Uint64())
	}
	hits := 0
	for trial := 0; trial < 300; trial++ {
		b := NewBloom(1+src.Intn(64), 1+src.Intn(8))
		for k := src.Intn(48); k > 0; k-- {
			b.AddValue(value())
		}
		for probe := 0; probe < 100; probe++ {
			v := value()
			want := true
			for i := 0; i < b.hashes; i++ {
				idx := b.hash(v, i)
				want = want && b.bits[idx/8]&(1<<(idx%8)) != 0
			}
			if got := b.MayContain(v); got != want {
				t.Fatalf("%d bytes, %d hashes: MayContain(%d) = %v, per-hash bits say %v", len(b.bits), b.hashes, v, got, want)
			}
			if want {
				hits++
			}
		}
	}
	if hits == 0 || hits == 300*100 {
		t.Fatalf("%d of %d probes hit: the property was only checked one way", hits, 300*100)
	}
}

func TestBloomMergeIsUnion(t *testing.T) {
	a, b := DefaultBloom(), DefaultBloom()
	a.AddValue(1)
	a.AddValue(2)
	b.AddValue(3)
	a.Merge(b)
	for _, v := range []int32{1, 2, 3} {
		if !a.MayContain(v) {
			t.Fatalf("merged bloom lost value %d", v)
		}
	}
}

func TestBloomMergeGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging mismatched blooms did not panic")
		}
	}()
	DefaultBloom().Merge(NewBloom(16, 3))
}

func TestBloomEmpty(t *testing.T) {
	b := DefaultBloom()
	hits := 0
	for v := int32(0); v < 1000; v++ {
		if b.MayContain(v) {
			hits++
		}
	}
	if hits != 0 {
		t.Fatalf("empty bloom claimed %d values", hits)
	}
}

func TestNewBloomValidates(t *testing.T) {
	for _, c := range []struct{ n, k int }{{0, 3}, {8, 0}, {-1, 1}} {
		func() {
			defer func() { recover() }()
			NewBloom(c.n, c.k)
			t.Fatalf("NewBloom(%d,%d) did not panic", c.n, c.k)
		}()
	}
}

// --- Interval ---

func TestIntervalBasics(t *testing.T) {
	iv := NewInterval()
	if iv.MayContain(0) {
		t.Fatal("empty interval contains 0")
	}
	if _, _, ok := iv.Bounds(); ok {
		t.Fatal("empty interval has bounds")
	}
	iv.AddValue(5)
	iv.AddValue(-3)
	min, max, ok := iv.Bounds()
	if !ok || min != -3 || max != 5 {
		t.Fatalf("Bounds = (%d,%d,%v)", min, max, ok)
	}
	if !iv.MayContain(0) || !iv.MayContain(-3) || !iv.MayContain(5) {
		t.Fatal("interval misses covered values")
	}
	if iv.MayContain(6) || iv.MayContain(-4) {
		t.Fatal("interval claims uncovered values")
	}
}

func TestIntervalOverlaps(t *testing.T) {
	iv := NewInterval()
	if iv.Overlaps(0, 10) {
		t.Fatal("empty interval overlaps")
	}
	iv.AddValue(5)
	iv.AddValue(8)
	cases := []struct {
		lo, hi int32
		want   bool
	}{
		{0, 4, false}, {0, 5, true}, {6, 7, true}, {8, 20, true}, {9, 20, false},
	}
	for _, c := range cases {
		if got := iv.Overlaps(c.lo, c.hi); got != c.want {
			t.Errorf("Overlaps(%d,%d) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
}

func TestIntervalNoFalseNegativesQuick(t *testing.T) {
	f := func(vals []int32, probe int32) bool {
		iv := NewInterval()
		for _, v := range vals {
			iv.AddValue(v)
		}
		for _, v := range vals {
			if !iv.MayContain(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntervalMerge(t *testing.T) {
	a, b := NewInterval(), NewInterval()
	a.AddValue(10)
	b.AddValue(-5)
	b.AddValue(3)
	a.Merge(b)
	min, max, _ := a.Bounds()
	if min != -5 || max != 10 {
		t.Fatalf("merged bounds (%d,%d)", min, max)
	}
	// Merging an empty interval is a no-op.
	a.Merge(NewInterval())
	if min2, max2, _ := a.Bounds(); min2 != -5 || max2 != 10 {
		t.Fatal("merging empty interval changed bounds")
	}
}

// --- Histogram ---

func TestHistogramNoFalseNegatives(t *testing.T) {
	f := func(vals []int32) bool {
		h := NewHistogram(-1000, 1000, 16)
		for _, v := range vals {
			h.AddValue(v)
		}
		for _, v := range vals {
			if !h.MayContain(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramSelectivity(t *testing.T) {
	h := NewHistogram(0, 159, 16)
	h.AddValue(5) // bucket 0
	if h.MayContain(50) {
		t.Fatal("histogram claims value in empty bucket")
	}
	if !h.MayContain(9) { // same bucket as 5
		t.Fatal("histogram misses same-bucket value")
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(0, 99, 10)
	b := NewHistogram(0, 99, 10)
	a.AddValue(5)
	b.AddValue(95)
	a.Merge(b)
	if !a.MayContain(5) || !a.MayContain(95) {
		t.Fatal("merge lost buckets")
	}
}

func TestHistogramMergePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched merge")
		}
	}()
	NewHistogram(0, 99, 10).Merge(NewHistogram(0, 99, 20))
}

// --- Region ---

func TestRegionNoFalseNegatives(t *testing.T) {
	src := rng.New(42)
	r := NewRegion()
	pts := make([]geom.Point, 60)
	for i := range pts {
		pts[i] = geom.Point{X: src.Float64() * 256, Y: src.Float64() * 256}
		r.AddPoint(pts[i])
	}
	for _, p := range pts {
		if !r.MayContainWithin(p, 0.001) {
			t.Fatalf("region lost point %v", p)
		}
		if q := (geom.Point{X: p.X + 0.0005, Y: p.Y}); !r.MayContainWithin(q, 0.001) {
			t.Fatalf("region pruned %v, which lies within 0.001 of point %v", q, p)
		}
	}
}

func TestRegionPrunes(t *testing.T) {
	r := NewRegion()
	r.AddPoint(geom.Point{X: 10, Y: 10})
	r.AddPoint(geom.Point{X: 12, Y: 11})
	if r.MayContainWithin(geom.Point{X: 200, Y: 200}, 5) {
		t.Fatal("region failed to prune a far query")
	}
	if r.MayContainWithin(geom.Point{X: 105, Y: 105}, 5) {
		t.Fatal("region failed to prune a disjoint neighbourhood")
	}
}

func TestRegionEmpty(t *testing.T) {
	r := NewRegion()
	if r.MayContainWithin(geom.Point{}, 1e9) {
		t.Fatal("empty region claims containment")
	}
	if _, ok := r.Bounds(); ok {
		t.Fatal("empty region has bounds")
	}
	if r.SizeBytes() <= 0 {
		t.Fatal("SizeBytes must be positive")
	}
}

func TestRegionMerge(t *testing.T) {
	a, b := NewRegion(), NewRegion()
	a.AddPoint(geom.Point{X: 1, Y: 1})
	b.AddPoint(geom.Point{X: 100, Y: 100})
	a.Merge(b)
	if !a.MayContainWithin(geom.Point{X: 100, Y: 100}, 1) {
		t.Fatal("merge lost the other region")
	}
	bounds, ok := a.Bounds()
	if !ok || !bounds.Contains(geom.Point{X: 100, Y: 100}) || !bounds.Contains(geom.Point{X: 1, Y: 1}) {
		t.Fatal("merged bounds wrong")
	}
}

func TestRegionManyInsertsStayConsistent(t *testing.T) {
	// Stress the overflow/split path well past the fanout.
	src := rng.New(7)
	r := NewRegion()
	var pts []geom.Point
	for i := 0; i < 500; i++ {
		p := geom.Point{X: src.Float64() * 256, Y: src.Float64() * 256}
		pts = append(pts, p)
		r.AddPoint(p)
	}
	for _, p := range pts {
		if !r.MayContainWithin(p, 0.01) {
			t.Fatalf("lost point %v after splits", p)
		}
	}
}

func TestSummarySizes(t *testing.T) {
	if DefaultBloom().SizeBytes() != 32 {
		t.Fatal("bloom size")
	}
	if NewInterval().SizeBytes() != 4 {
		t.Fatal("interval size")
	}
	if NewHistogram(0, 15, 16).SizeBytes() != 2 {
		t.Fatal("histogram size")
	}
}

func TestSummaryInterfaceCompliance(t *testing.T) {
	for _, s := range []Summary{DefaultBloom(), NewInterval(), NewHistogram(0, 100, 8)} {
		s.AddValue(42)
		if !s.MayContain(42) {
			t.Fatalf("%T lost a value through the interface", s)
		}
	}
}
