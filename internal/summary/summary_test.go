package summary

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/rng"
)

// --- Bloom ---

// bloomOracle is the Bloom filter as it is shipped: 32 bytes, bit b at byte
// b/8, bit b%8, set at the positions (h1 + i*h2) % m for i < 3.
type bloomOracle [bloomBytes]byte

func oraclePos(v int32, i int) uint64 {
	h1, h2 := bloomMix(v)
	return (h1 + uint64(i)*h2) % (bloomBytes * 8)
}

func (b *bloomOracle) add(v int32) {
	for i := 0; i < bloomHashes; i++ {
		p := oraclePos(v, i)
		b[p/8] |= 1 << (p % 8)
	}
}

func (b *bloomOracle) has(v int32) bool {
	for i := 0; i < bloomHashes; i++ {
		if p := oraclePos(v, i); b[p/8]&(1<<(p%8)) == 0 {
			return false
		}
	}
	return true
}

// words is the oracle's filter as a Bloom row: its bytes read little-endian.
func (b *bloomOracle) words() []uint64 {
	w := make([]uint64, bloomWords)
	for i, x := range b {
		w[i/8] |= uint64(x) << (8 * (i % 8))
	}
	return w
}

func rowEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestKeyMatchesMayContain: a key's bit positions are the ones the shipped
// filter uses, (h1 + i*h2) % m, for the id range of a 100k deployment, the
// negatives down to -10^4, and the int32 extremes; a row set to v is the
// oracle filter holding v, bit for bit, and answers v's key.
func TestKeyMatchesMayContain(t *testing.T) {
	vals := []int32{0, 1, -1, math.MaxInt32, math.MinInt32, math.MaxInt32 - 1, -math.MaxInt32}
	for v := int32(-10000); v <= 100000; v++ {
		vals = append(vals, v)
	}
	if len(vals) < 100000 {
		t.Fatalf("only %d values", len(vals))
	}
	c := NewBloomColumn(1)
	for _, v := range vals {
		k := NewKey(v)
		for i, p := range k.pos {
			if want := oraclePos(v, i); uint64(p) != want {
				t.Fatalf("value %d hash %d: position %d, (h1 + i*h2) %% m = %d", v, i, p, want)
			}
		}
		var o bloomOracle
		o.add(v)
		c.Set(0, v)
		if !rowEqual(c.Row(0), o.words()) {
			t.Fatalf("value %d: row %x, oracle %x", v, c.Row(0), o.words())
		}
		if !c.MayContain(0, k) {
			t.Fatalf("row holding %d misses its key", v)
		}
	}
}

func TestBloomNoFalseNegatives(t *testing.T) {
	f := func(vals []int32) bool {
		c := NewBloomColumn(1)
		for _, v := range vals {
			c.Add(0, v)
		}
		for _, v := range vals {
			if !c.MayContain(0, NewKey(v)) {
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
	c := NewBloomColumn(1)
	src := rng.New(1)
	for i := 0; i < 20; i++ { // ~ per-subtree cardinality at 100 nodes
		c.Add(0, int32(src.Intn(1<<16)))
	}
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		v := int32(src.Intn(1<<16)) + (1 << 20) // disjoint from inserted domain
		if c.MayContain(0, NewKey(v)) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.15 {
		t.Fatalf("false positive rate %.3f too high for 20 inserts in 32 bytes", rate)
	}
}

// TestBloomMayContainMatchesHash: a row's MayContain, which tests a key's
// precomputed positions, answers exactly as the shipped filter does, over
// random contents and probes; the row and the filter stay bit-identical.
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
		c := NewBloomColumn(1)
		var o bloomOracle
		for k := src.Intn(48); k > 0; k-- {
			v := value()
			c.Add(0, v)
			o.add(v)
		}
		if !rowEqual(c.Row(0), o.words()) {
			t.Fatalf("trial %d: row %x, filter %x", trial, c.Row(0), o.words())
		}
		for probe := 0; probe < 100; probe++ {
			v := value()
			want := o.has(v)
			if got := c.MayContain(0, NewKey(v)); got != want {
				t.Fatalf("MayContain(%d) = %v, per-hash bits say %v", v, got, want)
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
	c := NewBloomColumn(2)
	c.Add(0, 1)
	c.Add(0, 2)
	c.Add(1, 3)
	c.Merge(0, 1)
	for _, v := range []int32{1, 2, 3} {
		if !c.MayContain(0, NewKey(v)) {
			t.Fatalf("merged bloom lost value %d", v)
		}
	}
	var o bloomOracle
	o.add(3)
	if !rowEqual(c.Row(1), o.words()) {
		t.Fatal("merge changed its source row")
	}
}

func TestBloomEmpty(t *testing.T) {
	c := NewBloomColumn(1)
	hits := 0
	for v := int32(0); v < 1000; v++ {
		if c.MayContain(0, NewKey(v)) {
			hits++
		}
	}
	if hits != 0 {
		t.Fatalf("empty bloom claimed %d values", hits)
	}
}

// --- Interval ---

func bounds(c *Column, i int) (min, max int32) { return intervalBounds(c.Row(i)[0]) }

func TestIntervalBasics(t *testing.T) {
	c := NewIntervalColumn(1)
	if c.MayContain(0, NewKey(0)) {
		t.Fatal("empty interval contains 0")
	}
	if min, max := bounds(&c, 0); min <= max {
		t.Fatalf("empty interval has bounds (%d,%d)", min, max)
	}
	c.Add(0, 5)
	c.Add(0, -3)
	if min, max := bounds(&c, 0); min != -3 || max != 5 {
		t.Fatalf("bounds = (%d,%d)", min, max)
	}
	for _, v := range []int32{0, -3, 5} {
		if !c.MayContain(0, NewKey(v)) {
			t.Fatalf("interval misses covered value %d", v)
		}
	}
	if c.MayContain(0, NewKey(6)) || c.MayContain(0, NewKey(-4)) {
		t.Fatal("interval claims uncovered values")
	}
	c.Set(0, 9)
	if min, max := bounds(&c, 0); min != 9 || max != 9 {
		t.Fatalf("Set left bounds (%d,%d)", min, max)
	}
}

func TestIntervalOverlaps(t *testing.T) {
	c := NewIntervalColumn(1)
	if c.Overlaps(0, 0, 10) || c.Overlaps(0, math.MinInt32, math.MaxInt32) {
		t.Fatal("empty interval overlaps")
	}
	c.Add(0, 5)
	c.Add(0, 8)
	cases := []struct {
		lo, hi int32
		want   bool
	}{
		{0, 4, false}, {0, 5, true}, {6, 7, true}, {8, 20, true}, {9, 20, false},
	}
	for _, tc := range cases {
		if got := c.Overlaps(0, tc.lo, tc.hi); got != tc.want {
			t.Errorf("Overlaps(%d,%d) = %v, want %v", tc.lo, tc.hi, got, tc.want)
		}
	}
	// Rows that cannot answer a range stay conservative, even empty.
	for _, other := range []Column{NewBloomColumn(1), NewHistogramColumn(1, 0, 9, 4)} {
		if !other.Overlaps(0, 0, 4) {
			t.Fatal("a non-interval row pruned a range")
		}
	}
}

func TestIntervalNoFalseNegativesQuick(t *testing.T) {
	f := func(vals []int32, probe int32) bool {
		c := NewIntervalColumn(1)
		for _, v := range vals {
			c.Add(0, v)
		}
		for _, v := range vals {
			if !c.MayContain(0, NewKey(v)) || !c.Overlaps(0, v, v) {
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
	c := NewIntervalColumn(3)
	c.Add(0, 10)
	c.Add(1, -5)
	c.Add(1, 3)
	c.Merge(0, 1)
	if min, max := bounds(&c, 0); min != -5 || max != 10 {
		t.Fatalf("merged bounds (%d,%d)", min, max)
	}
	// Merging an empty interval is a no-op; merging into one copies.
	c.Merge(0, 2)
	if min, max := bounds(&c, 0); min != -5 || max != 10 {
		t.Fatal("merging empty interval changed bounds")
	}
	c.Merge(2, 1)
	if min, max := bounds(&c, 2); min != -5 || max != 3 {
		t.Fatalf("merge into an empty interval gave (%d,%d)", min, max)
	}
}

// --- Histogram ---

func TestHistogramNoFalseNegatives(t *testing.T) {
	for _, buckets := range []int{16, 200} { // one-word and multi-word rows
		f := func(vals []int32) bool {
			c := NewHistogramColumn(1, -1000, 1000, buckets)
			for _, v := range vals {
				c.Add(0, v)
			}
			for _, v := range vals {
				if !c.MayContain(0, NewKey(v)) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%d buckets: %v", buckets, err)
		}
	}
}

func TestHistogramSelectivity(t *testing.T) {
	c := NewHistogramColumn(1, 0, 159, 16)
	c.Add(0, 5) // bucket 0
	if c.MayContain(0, NewKey(50)) {
		t.Fatal("histogram claims value in empty bucket")
	}
	if !c.MayContain(0, NewKey(9)) { // same bucket as 5
		t.Fatal("histogram misses same-bucket value")
	}
}

func TestHistogramMerge(t *testing.T) {
	c := NewHistogramColumn(2, 0, 99, 100)
	c.Add(0, 5)
	c.Add(1, 95)
	c.Merge(0, 1)
	if !c.MayContain(0, NewKey(5)) || !c.MayContain(0, NewKey(95)) {
		t.Fatal("merge lost buckets")
	}
	if c.MayContain(0, NewKey(50)) {
		t.Fatal("merge set an empty bucket")
	}
}

func TestNewHistogramColumnValidates(t *testing.T) {
	for _, c := range []struct {
		lo, hi  int32
		buckets int
	}{{0, 9, 0}, {0, 9, -1}, {5, 4, 8}} {
		func() {
			defer func() { recover() }()
			NewHistogramColumn(1, c.lo, c.hi, c.buckets)
			t.Fatalf("NewHistogramColumn(%d,%d,%d) did not panic", c.lo, c.hi, c.buckets)
		}()
	}
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
	for _, c := range []struct {
		col          Column
		bytes, words int
	}{
		{NewBloomColumn(3), 32, 4},
		{NewIntervalColumn(3), 4, 1},
		{NewHistogramColumn(3, 0, 15, 16), 2, 1},
		{NewHistogramColumn(3, 0, 99, 65), 9, 2},
	} {
		if got := c.col.SizeBytes(); got != c.bytes {
			t.Errorf("%+v: wire size %d, want %d", c, got, c.bytes)
		}
		if got := len(c.col.Row(2)); got != c.words {
			t.Errorf("%+v: %d words a row, want %d", c, got, c.words)
		}
		if got := c.col.MemBytes(); got != int64(3*8*c.words) {
			t.Errorf("%+v: 3 rows in %d bytes", c, got)
		}
	}
}

// TestSummaryInterfaceCompliance: every kind keeps its values through the
// one Column API — Set, Add, Merge — and leaves other rows alone.
func TestSummaryInterfaceCompliance(t *testing.T) {
	for _, c := range []Column{NewBloomColumn(3), NewIntervalColumn(3), NewHistogramColumn(3, 0, 100, 8)} {
		c.Set(0, 42)
		c.Add(1, 7)
		c.Merge(0, 1)
		if !c.MayContain(0, NewKey(42)) || !c.MayContain(0, NewKey(7)) {
			t.Fatalf("kind %d lost a value", c.kind)
		}
		c.Set(1, 99)
		if c.MayContain(1, NewKey(7)) {
			t.Fatalf("kind %d: Set kept the row's old value", c.kind)
		}
		if c.MayContain(2, NewKey(42)) {
			t.Fatalf("kind %d: an untouched row claims a value", c.kind)
		}
	}
}
