package topology

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

// gridSizes are the deployment sizes the grid-vs-naive property tests
// cover: tiny deployments whose calibration climbs past the first probes,
// the Intel count, the paper's standard 100, and a scale point.
var gridSizes = []int{2, 5, 10, 54, 100, 500}

// sameAdjacency fails the test unless a and b have byte-identical
// positions, radio ranges and neighbor lists (same order, same contents).
func sameAdjacency(t *testing.T, label string, a, b *Topology) {
	t.Helper()
	if a.N() != b.N() || a.RadioRange() != b.RadioRange() {
		t.Fatalf("%s: shape differs: n %d/%d radio %v/%v", label, a.N(), b.N(), a.RadioRange(), b.RadioRange())
	}
	for i := 0; i < a.N(); i++ {
		id := NodeID(i)
		if a.Pos(id) != b.Pos(id) {
			t.Fatalf("%s: node %d position differs: %v vs %v", label, i, a.Pos(id), b.Pos(id))
		}
		na, nb := a.Neighbors(id), b.Neighbors(id)
		if len(na) != len(nb) {
			t.Fatalf("%s: node %d degree differs: %d vs %d (%v vs %v)", label, i, len(na), len(nb), na, nb)
		}
		for k := range na {
			if na[k] != nb[k] {
				t.Fatalf("%s: node %d neighbor %d differs: %v vs %v", label, i, k, na, nb)
			}
		}
	}
}

// TestGridDiscoveryMatchesNaive: the spatial-grid disk-graph discovery
// must produce byte-identical adjacency (same neighbors in the same
// ascending order) to the retained O(n^2) reference, for every generated
// deployment class and size.
func TestGridDiscoveryMatchesNaive(t *testing.T) {
	for _, kind := range Kinds {
		for _, n := range gridSizes {
			topo := Generate(kind, n, 1)
			ref := naiveFromPositions(kind, topo.pos, topo.RadioRange())
			sameAdjacency(t, kind.String()+"/generated", topo, ref)
		}
	}
	// The Intel layout exercises fixed, non-uniform positions.
	intel := Generate(Intel, 0, 1)
	sameAdjacency(t, "intel", intel, naiveFromPositions(Intel, intel.pos, intel.RadioRange()))
}

// TestGridDiscoveryMatchesNaiveAtArbitraryRadii sweeps radio ranges over a
// fixed random point cloud, including degenerate extremes (no edges,
// complete graph), where cell sizing takes its clamped branches.
func TestGridDiscoveryMatchesNaiveAtArbitraryRadii(t *testing.T) {
	src := rng.New(7).Split(99)
	for _, n := range gridSizes {
		pos := make([]geom.Point, n)
		for i := range pos {
			pos[i] = geom.Point{X: src.Float64() * Field, Y: src.Float64() * Field}
		}
		for _, radio := range []float64{0.01, 1, 5, 17.3, 64, Field, 2 * Field} {
			got := fromPositions(ModerateRandom, pos, radio)
			want := naiveFromPositions(ModerateRandom, pos, radio)
			sameAdjacency(t, "radii", got, want)
		}
	}
}

// TestConnectedAtMatchesTraversal: the union-find connectivity check over a
// pair list must agree with a BFS over the materialized graph at every
// radius within the collected one, on both sides of the connectivity
// threshold.
func TestConnectedAtMatchesTraversal(t *testing.T) {
	src := rng.New(5).Split(3)
	both := [2]int{}
	for _, n := range gridSizes {
		pos := make([]geom.Point, n)
		for i := range pos {
			pos[i] = geom.Point{X: src.Float64() * Field, Y: src.Float64() * Field}
		}
		var pairs pairList
		uf := make([]int32, n)
		newCellGrid(pos, 64).collectPairs(2*Field, &pairs)
		for _, radio := range []float64{0.01, 5, 10, 14, 17.3, 20, 25, 30, 40, 64, 100, 2 * Field} {
			want := naiveFromPositions(ModerateRandom, pos, radio).Connected()
			if got := pairs.connectedAt(radio, uf); got != want {
				t.Fatalf("n=%d radio %v: connectedAt %v, traversal %v", n, radio, got, want)
			}
			if want {
				both[1]++
			} else {
				both[0]++
			}
		}
	}
	if both[0] == 0 || both[1] == 0 {
		t.Fatalf("connected/disconnected cases = %v, want both", both)
	}
}

// naiveGenerate replicates the pre-grid generator verbatim: naive O(n^2)
// discovery materialized at every probe of the degree-calibration binary
// search. Generate must reproduce its output exactly — same final
// positions (hence the same placement-attempt index and the same number of
// rng draws consumed), same calibrated radio range, same adjacency.
func naiveGenerate(kind Kind, n int, seed uint64) *Topology {
	src := rng.New(seed).Split(uint64(kind))
	target := kind.targetDegree()
	r := Field * math.Sqrt(target/(float64(n-1)*math.Pi))
	for attempt := 0; ; attempt++ {
		layout := src.Split(uint64(attempt))
		pos := make([]geom.Point, n)
		for i := range pos {
			pos[i] = geom.Point{X: layout.Float64() * Field, Y: layout.Float64() * Field}
		}
		lo, hi := r/4, r*4
		var topo *Topology
		for iter := 0; iter < 40; iter++ {
			mid := (lo + hi) / 2
			topo = naiveFromPositions(kind, pos, mid)
			d := topo.AvgDegree()
			switch {
			case d < target-0.25:
				lo = mid
			case d > target+0.25:
				hi = mid
			default:
				iter = 40
			}
		}
		if topo.Connected() {
			return topo
		}
	}
}

// TestGenerateMatchesNaiveGenerator holds the whole construction path —
// placement retries, edge-count probes, final materialization — equal to
// the retained naive generator across random classes, sizes and seeds.
func TestGenerateMatchesNaiveGenerator(t *testing.T) {
	for _, kind := range []Kind{SparseRandom, ModerateRandom, MediumRandom, DenseRandom} {
		for _, n := range gridSizes {
			for seed := uint64(1); seed <= 3; seed++ {
				got := Generate(kind, n, seed)
				want := naiveGenerate(kind, n, seed)
				sameAdjacency(t, kind.String(), got, want)
			}
		}
	}
}

// TestGeneratePinned hashes Generate's output over 93 deployments — every
// random class at small and mid sizes, the larger classes at thousands of
// nodes, and one 20 000-node Dense layout — so any change to placement,
// calibration or adjacency order shows up even where the naive reference is
// too slow to run. The hash is FNV-64a over little-endian uint64s: the
// radio-range bits, then per node its X bits, its Y bits and each neighbour
// ID in order.
func TestGeneratePinned(t *testing.T) {
	const want = 0x95db5b01c39330b4
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	add := func(topo *Topology) {
		put(math.Float64bits(topo.RadioRange()))
		for i := 0; i < topo.N(); i++ {
			p := topo.Pos(NodeID(i))
			put(math.Float64bits(p.X))
			put(math.Float64bits(p.Y))
			for _, nb := range topo.Neighbors(NodeID(i)) {
				put(uint64(nb))
			}
		}
	}
	count := 0
	for _, kind := range []Kind{SparseRandom, ModerateRandom, MediumRandom, DenseRandom} {
		for _, n := range []int{2, 3, 5, 10, 54, 100, 500} {
			for seed := uint64(1); seed <= 3; seed++ {
				add(Generate(kind, n, seed))
				count++
			}
		}
	}
	for _, kind := range []Kind{MediumRandom, DenseRandom} {
		for _, n := range []int{1000, 3000} {
			for seed := uint64(1); seed <= 2; seed++ {
				add(Generate(kind, n, seed))
				count++
			}
		}
	}
	add(Generate(DenseRandom, 20_000, 1))
	count++
	if count != 93 {
		t.Fatalf("hashed %d deployments, want 93", count)
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("Generate hash = %016x, want %016x", got, uint64(want))
	}
}

// TestHopsFromMatchesBFS: the reusable depth vector and the memoized
// parent cache must agree with the allocating BFS for every source.
func TestHopsFromMatchesBFS(t *testing.T) {
	topo := Generate(ModerateRandom, 100, 1)
	var buf []int
	cache := NewParentCache(topo)
	for s := 0; s < topo.N(); s++ {
		src := NodeID(s)
		want, wantParent := topo.BFS(src)
		buf = topo.HopsFrom(src, buf)
		parent := cache.Parents(src)
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("source %d node %d: HopsFrom %d BFS %d", s, i, buf[i], want[i])
			}
			if parent[i] != wantParent[i] {
				t.Fatalf("source %d node %d: cached parent %d BFS parent %d", s, i, parent[i], wantParent[i])
			}
		}
	}
}

// BenchmarkFromPositionsGrid2k / BenchmarkFromPositionsNaive2k expose the
// construction speedup (ISSUE 3 acceptance: grid >= 10x naive at 2000
// nodes). Run with: go test ./internal/topology -bench FromPositions
func benchmarkPositions(n int) []geom.Point {
	src := rng.New(2).Split(0)
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: src.Float64() * Field, Y: src.Float64() * Field}
	}
	return pos
}

func BenchmarkFromPositionsGrid2k(b *testing.B) {
	pos := benchmarkPositions(2000)
	for i := 0; i < b.N; i++ {
		fromPositions(ModerateRandom, pos, 8.65)
	}
}

func BenchmarkFromPositionsNaive2k(b *testing.B) {
	pos := benchmarkPositions(2000)
	for i := 0; i < b.N; i++ {
		naiveFromPositions(ModerateRandom, pos, 8.65)
	}
}

func BenchmarkGenerate2k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Generate(ModerateRandom, 2000, 1)
	}
}

func BenchmarkGenerateNaive2k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		naiveGenerate2k()
	}
}

// naiveGenerate2k is the benchmark body for the naive reference generator
// at 2000 nodes (kept out of the loop literal so both benchmarks read the
// same shape).
func naiveGenerate2k() *Topology { return naiveGenerate(ModerateRandom, 2000, 1) }

// BenchmarkGenerate100k is build-100k's deployment: Dense, 100 000 nodes,
// seed 1. Run with: go test ./internal/topology -run '^$' -bench Generate100k -benchmem
func BenchmarkGenerate100k(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		Generate(DenseRandom, 100_000, 1)
	}
}
