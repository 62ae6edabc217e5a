package routing

import (
	"maps"
	"slices"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/summary"
	"repro/internal/topology"
)

// heldMatcher finds the nodes whose value in one attribute is a key,
// pruning by that attribute's column, resolved once when it is made — the
// way a query's search matcher holds its columns.
type heldMatcher struct {
	col    int
	key    summary.Key
	value  func(topology.NodeID) int32
	target int32
}

func newHeldMatcher(s *Substrate, spec IndexSpec, target int32) *heldMatcher {
	return &heldMatcher{col: s.ColumnIndex(spec.Attr), key: summary.NewKey(target), value: spec.Value, target: target}
}

func (m *heldMatcher) MatchNode(id topology.NodeID) bool { return m.value(id) == m.target }
func (m *heldMatcher) MayMatchSubtree(e Entry) bool      { return e.MayContain(m.col, m.key) }

// mustPanic fails unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestReleaseFreesWithTheLastUser: a column counted in twice lives through
// one release and is freed by the second, its words with it; the other
// columns keep their numbers, rows and search answers; the attribute
// indexed again gets its old number back and pays its first dissemination
// again, on the new user's summary kind.
func TestReleaseFreesWithTheLastUser(t *testing.T) {
	topo := topology.Generate(topology.ModerateRandom, 120, 2)
	specs := extendSpecs(topo.N())
	alpha, beta := specs[:1], specs[1:]
	s := NewSubstrate(topo, Options{NumTrees: 3}, nil)
	bare := s.MemBytes()

	net := sim.NewNetwork(topo, 0, 1)
	s.ExtendIndexes(alpha, net)
	alphaCost := net.Metrics().TotalBytes
	s.ExtendIndexes(beta, nil)
	s.ExtendIndexes(alpha, net)
	if got := net.Metrics().TotalBytes; got != alphaCost {
		t.Fatalf("a second user of a live column paid %d bytes", got-alphaCost)
	}
	ca, cb := s.ColumnIndex("alpha"), s.ColumnIndex("beta")

	// Beta's matchers resolve their column before alpha goes, and search
	// on both sides of the release.
	var matchers []*heldMatcher
	var before []map[topology.NodeID]Path
	for v := int32(0); v < 29; v++ {
		m := newHeldMatcher(s, beta[0], v)
		matchers = append(matchers, m)
		before = append(before, s.FindTargets(topology.NodeID(v), m, nil))
	}

	s.ReleaseIndexes(alpha)
	if !s.HasIndex("alpha") || s.ColumnIndex("alpha") != ca {
		t.Fatal("alpha freed while a user still holds it")
	}
	s.ReleaseIndexes(alpha)
	if s.HasIndex("alpha") || s.ColumnIndex("alpha") != -1 {
		t.Fatal("alpha still indexed after its last user left")
	}
	if s.ColumnIndex("beta") != cb {
		t.Fatalf("beta moved from column %d to %d", cb, s.ColumnIndex("beta"))
	}
	requireColumnsMatchReference(t, s, "alpha freed")
	found := 0
	for i, m := range matchers {
		got := s.FindTargets(topology.NodeID(i), m, nil)
		if !maps.EqualFunc(before[i], got, func(a, b Path) bool { return slices.Equal(a, b) }) {
			t.Fatalf("matcher %d: freeing alpha changed beta's targets to %v, were %v", i, got, before[i])
		}
		found += len(got)
	}
	if found == 0 {
		t.Fatal("beta's matchers found nothing to compare")
	}

	s.ReleaseIndexes(beta)
	if got := s.MemBytes(); got != bare {
		t.Fatalf("MemBytes with every column freed = %d, want the bare substrate's %d", got, bare)
	}

	// Indexed again, on an interval: the same column, the same
	// dissemination as a first interval index, and the rows of one.
	again := []IndexSpec{{Attr: "alpha", Kind: IntervalSummary, Value: alpha[0].Value}}
	net2 := sim.NewNetwork(topo, 0, 1)
	s.ExtendIndexes(again, net2)
	if s.ColumnIndex("alpha") != ca {
		t.Fatalf("alpha indexed again in column %d, was %d", s.ColumnIndex("alpha"), ca)
	}
	fresh := NewSubstrate(topo, Options{NumTrees: 3}, nil)
	net3 := sim.NewNetwork(topo, 0, 1)
	fresh.ExtendIndexes(again, net3)
	if got, want := net2.Metrics().TotalBytes, net3.Metrics().TotalBytes; got != want {
		t.Fatalf("indexing alpha again charged %d bytes, a first interval index %d", got, want)
	}
	if s.Entry(0, topology.Base).ScalarSizeBytes() != 4 {
		t.Fatalf("a row ships %d bytes, want the interval's 4 alone", s.Entry(0, topology.Base).ScalarSizeBytes())
	}
	requireColumnsMatchReference(t, s, "alpha indexed again")
}

// TestConstructionIndexesSurviveRelease: the columns and regions a
// substrate is built with are never freed, however often their users
// come and go, and their repairs keep them current.
func TestConstructionIndexesSurviveRelease(t *testing.T) {
	topo := topology.Generate(topology.ModerateRandom, 90, 4)
	specs := extendSpecs(topo.N())
	s := NewSubstrate(topo, Options{NumTrees: 2, Indexes: specs[:1], IndexPositions: true}, nil)
	want := s.MemBytes()
	for range 3 {
		s.ExtendIndexes(specs, nil)
		s.ExtendPositionIndex(nil)
		s.ReleaseIndexes(specs)
		s.ReleasePositionIndex()
	}
	if !s.HasIndex("alpha") || s.HasIndex("beta") {
		t.Fatalf("after the releases: alpha indexed %v, beta %v; want true, false", s.HasIndex("alpha"), s.HasIndex("beta"))
	}
	if s.Entry(1, topology.Base).Region() == nil {
		t.Fatal("the construction regions were freed")
	}
	if got := s.MemBytes(); got != want {
		t.Fatalf("MemBytes after the releases = %d, at construction %d", got, want)
	}
	live := topology.NewLiveness(topo.N())
	victim := s.Trees[0].DeepFirst()[topo.N()/2]
	for len(s.Trees[0].ChildrenOf(victim)) == 0 {
		victim = s.Trees[0].Parent[victim]
	}
	live.Fail(victim)
	s.RepairTrees(nil, live, []topology.NodeID{victim})
	requireColumnsMatchReference(t, s, "repaired after the releases")
}

// TestReleaseUnheldPanics: a release with no matching extension is a
// caller's bookkeeping error, and panics — for an attribute never indexed,
// one whose last user left, a construction column no user holds, and the
// regions. Regions counted in twice live through one release.
func TestReleaseUnheldPanics(t *testing.T) {
	topo := topology.Generate(topology.ModerateRandom, 60, 1)
	specs := extendSpecs(topo.N())
	s := NewSubstrate(topo, Options{NumTrees: 1, Indexes: specs[1:]}, nil)
	mustPanic(t, "releasing a never-indexed attribute", func() { s.ReleaseIndexes(specs[:1]) })
	s.ExtendIndexes(specs[:1], nil)
	s.ReleaseIndexes(specs[:1])
	mustPanic(t, "releasing an attribute after its last user", func() { s.ReleaseIndexes(specs[:1]) })
	mustPanic(t, "releasing a construction column no user holds", func() { s.ReleaseIndexes(specs[1:]) })
	mustPanic(t, "releasing unindexed positions", s.ReleasePositionIndex)

	s.ExtendPositionIndex(nil)
	s.ExtendPositionIndex(nil)
	s.ReleasePositionIndex()
	if s.Entry(0, topology.Base).Region() == nil {
		t.Fatal("regions freed while a user still holds them")
	}
	s.ReleasePositionIndex()
	if s.Entry(0, topology.Base).Region() != nil {
		t.Fatal("regions kept after their last user left")
	}
	mustPanic(t, "releasing positions after their last user", s.ReleasePositionIndex)
}

// TestBorrowLendsDistinctZeroColumns: the substrate's one scratch column
// goes to one borrower at a time, and every borrower gets a zero column of
// the deployment's length, however many borrow at once.
func TestBorrowLendsDistinctZeroColumns(t *testing.T) {
	topo := topology.Generate(topology.ModerateRandom, 50, 1)
	s := NewSubstrate(topo, Options{NumTrees: 1}, nil)
	a, b := s.Borrow(), s.Borrow()
	if &a[0] == &b[0] {
		t.Fatal("two borrowers share one column")
	}
	s.Return(a)
	if c := s.Borrow(); &c[0] != &a[0] {
		t.Fatal("a returned column was not lent again")
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 50 {
				col := s.Borrow()
				if len(col) != topo.N() || slices.ContainsFunc(col, func(v int32) bool { return v != 0 }) {
					t.Errorf("borrower %d: a column of %d entries, not all zero", g, len(col))
				}
				col[k%len(col)] = int32(g + 1)
				col[k%len(col)] = 0
				s.Return(col)
			}
		}()
	}
	wg.Wait()
}
