package routing

import (
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/summary"
	"repro/internal/topology"
)

func moderate(t *testing.T) *topology.Topology {
	t.Helper()
	return topology.Generate(topology.ModerateRandom, 100, 1)
}

func TestPathHelpers(t *testing.T) {
	p := Path{1, 2, 3}
	if p.Hops() != 2 {
		t.Fatal("Hops")
	}
	if (Path{5}).Hops() != 0 || Path(nil).Hops() != 0 {
		t.Fatal("degenerate Hops")
	}
	r := p.Reverse()
	if r[0] != 3 || r[2] != 1 {
		t.Fatalf("Reverse = %v", r)
	}
	if !p.Contains(2) || p.Contains(9) {
		t.Fatal("Contains")
	}
	q := p.Clone()
	q[0] = 99
	if p[0] != 1 {
		t.Fatal("Clone aliases")
	}
	c := Path{1, 2}.Concat(Path{2, 3, 4})
	if len(c) != 4 || c[3] != 4 {
		t.Fatalf("Concat = %v", c)
	}
}

func TestConcatPanicsOnGap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Concat with gap did not panic")
		}
	}()
	Path{1, 2}.Concat(Path{3, 4})
}

func TestBuildTreeStructure(t *testing.T) {
	topo := moderate(t)
	tree := BuildTree(topo, topology.Base, nil)
	if tree.Parent[topology.Base] != -1 || tree.Depth[topology.Base] != 0 {
		t.Fatal("root malformed")
	}
	for i := 1; i < topo.N(); i++ {
		id := topology.NodeID(i)
		p := tree.Parent[id]
		if !topo.IsNeighbor(id, p) {
			t.Fatalf("parent of %d is not a neighbour", i)
		}
		if tree.Depth[id] != tree.Depth[p]+1 {
			t.Fatalf("depth inconsistency at %d", i)
		}
	}
}

func TestBuildTreeChargesBeacons(t *testing.T) {
	topo := moderate(t)
	net := sim.NewNetwork(topo, 0, 1)
	BuildTree(topo, topology.Base, net)
	if net.Metrics().TotalMessages != int64(topo.N()) {
		t.Fatalf("beacons = %d, want %d", net.Metrics().TotalMessages, topo.N())
	}
}

// refPathToRoot is the path oracle: id's parent chain, walked one node at a
// time into a fresh slice without reading Depth, failing on a chain longer
// than the tree (a cycle).
func refPathToRoot(t testing.TB, tree *Tree, id topology.NodeID) Path {
	t.Helper()
	var p Path
	for ; id >= 0; id = tree.Parent[id] {
		if len(p) > len(tree.Parent) {
			t.Fatalf("parent chain from %d cycles", p[0])
		}
		p = append(p, id)
	}
	return p
}

// treePath is the a -> b tree path of one tree.
func treePath(t *Tree, a, b topology.NodeID) Path {
	i, j, _ := t.lcaSplit(a, b)
	return t.appendSplit(nil, a, b, i, j)
}

// TestPathToRoot: AppendPathToRoot writes exactly the oracle's parent chain
// after dst's prefix, one hop per level of depth, on a fresh tree and on a
// repaired one whose detached nodes keep stale chains; into a grown buffer
// it allocates nothing.
func TestPathToRoot(t *testing.T) {
	topo := moderate(t)
	tree := BuildTree(topo, topology.Base, nil)
	check := func(ctx string) {
		t.Helper()
		dirty := Path{901, 902}
		for i := 0; i < topo.N(); i++ {
			id := topology.NodeID(i)
			got := tree.AppendPathToRoot(slices.Clone(dirty), id)
			want := refPathToRoot(t, tree, id)
			if !slices.Equal(got[:2], dirty) || !slices.Equal(got[2:], want) {
				t.Fatalf("%s: AppendPathToRoot(%d) = %v, want %v after %v", ctx, i, got, want, dirty)
			}
			if want.Hops() != int(max(tree.Depth[i], 0)) {
				t.Fatalf("%s: path of %d has %d hops, depth %d", ctx, i, want.Hops(), tree.Depth[i])
			}
			if !tree.Stale(id) && want[len(want)-1] != tree.Root {
				t.Fatalf("%s: path of attached %d ends at %d, not the root", ctx, i, want[len(want)-1])
			}
		}
	}
	check("built")
	live := topology.NewLiveness(topo.N())
	cut := benchVictim(tree)
	for _, nb := range topo.Neighbors(cut) {
		if nb != tree.Root {
			live.Fail(nb)
		}
	}
	PatchTreeLive(topo, tree, nil, live, nil)
	if !tree.Stale(cut) {
		t.Fatalf("node %d is still attached after its neighbourhood failed", cut)
	}
	check("patched")
	dst := make(Path, 0, 64)
	deep := tree.DeepFirst()[0]
	if allocs := testing.AllocsPerRun(50, func() { dst = tree.AppendPathToRoot(dst[:0], deep) }); allocs != 0 {
		t.Fatalf("AppendPathToRoot into a grown buffer allocates %.1f objects", allocs)
	}
}

func TestTreePathValid(t *testing.T) {
	topo := moderate(t)
	tree := BuildTree(topo, topology.Base, nil)
	f := func(aRaw, bRaw uint8) bool {
		a := topology.NodeID(int(aRaw) % topo.N())
		b := topology.NodeID(int(bRaw) % topo.N())
		p := treePath(tree, a, b)
		if p[0] != a || p[len(p)-1] != b {
			return false
		}
		for i := 0; i+1 < len(p); i++ {
			if !topo.IsNeighbor(p[i], p[i+1]) {
				return false
			}
		}
		// A tree path never exceeds up-to-root-and-down.
		return p.Hops() <= int(tree.Depth[a]+tree.Depth[b])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSubtreePartition(t *testing.T) {
	topo := moderate(t)
	tree := BuildTree(topo, topology.Base, nil)
	all := tree.Subtree(topology.Base)
	if len(all) != topo.N() {
		t.Fatalf("root subtree has %d nodes, want %d", len(all), topo.N())
	}
	seen := make(map[topology.NodeID]bool)
	for _, id := range all {
		if seen[id] {
			t.Fatalf("node %d appears twice in preorder", id)
		}
		seen[id] = true
	}
}

func TestMultiTreeRootsSpread(t *testing.T) {
	topo := moderate(t)
	s := NewSubstrate(topo, Options{NumTrees: 3}, nil)
	if len(s.Trees) != 3 {
		t.Fatalf("tree count = %d", len(s.Trees))
	}
	if s.Trees[0].Root != topology.Base {
		t.Fatal("tree 0 not rooted at base")
	}
	// Roots must be pairwise distinct and far apart.
	r1, r2 := s.Trees[1].Root, s.Trees[2].Root
	if r1 == topology.Base || r2 == topology.Base || r1 == r2 {
		t.Fatalf("roots not distinct: %v %v", r1, r2)
	}
	if topo.Hops(topology.Base, r1) < 3 {
		t.Fatalf("second root only %d hops from base", topo.Hops(topology.Base, r1))
	}
}

// TestSubstrateTreesMatchBuildTree: NewSubstrate assembles each tree from
// its root-selection traversal; every tree must equal BuildTree at the same
// root and own its Depth/Parent vectors, also when a tiny or disconnected
// topology makes the selection repeat a root.
func TestSubstrateTreesMatchBuildTree(t *testing.T) {
	pair := topology.FromPositions([]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}}, 2)
	split := topology.FromPositions([]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 50, Y: 0}}, 2)
	for _, c := range []struct {
		topo  *topology.Topology
		trees int
	}{{moderate(t), 3}, {pair, 3}, {split, 3}} {
		s := NewSubstrate(c.topo, Options{NumTrees: c.trees}, nil)
		if len(s.Trees) != c.trees {
			t.Fatalf("tree count = %d, want %d", len(s.Trees), c.trees)
		}
		for ti, tree := range s.Trees {
			want := BuildTree(c.topo, tree.Root, nil)
			if !slices.Equal(tree.Parent, want.Parent) || !slices.Equal(tree.Depth, want.Depth) ||
				!slices.Equal(tree.DeepFirst(), want.DeepFirst()) {
				t.Fatalf("n=%d tree %d (root %d) differs from BuildTree", c.topo.N(), ti, tree.Root)
			}
			for i := range topology.NodeID(c.topo.N()) {
				if !slices.Equal(tree.ChildrenOf(i), want.ChildrenOf(i)) || tree.Stale(i) != want.Stale(i) {
					t.Fatalf("n=%d tree %d node %d children or staleness differ", c.topo.N(), ti, i)
				}
			}
			for _, other := range s.Trees[:ti] {
				if &other.Parent[0] == &tree.Parent[0] || &other.Depth[0] == &tree.Depth[0] {
					t.Fatalf("n=%d trees share vectors", c.topo.N())
				}
			}
		}
	}
}

func TestMoreTreesShortenPaths(t *testing.T) {
	// The headline substrate property (Fig 16a): average best-tree path
	// length decreases as trees are added.
	topo := moderate(t)
	avg := func(k int) float64 {
		s := NewSubstrate(topo, Options{NumTrees: k}, nil)
		total, count := 0, 0
		for a := 0; a < topo.N(); a += 7 {
			for b := 0; b < topo.N(); b += 11 {
				if a == b {
					continue
				}
				total += s.BestTreePath(topology.NodeID(a), topology.NodeID(b)).Hops()
				count++
			}
		}
		return float64(total) / float64(count)
	}
	a1, a3 := avg(1), avg(3)
	if a3 >= a1 {
		t.Fatalf("3 trees (%v hops) not shorter than 1 tree (%v hops)", a3, a1)
	}
}

func TestSubstrateIndexedSearch(t *testing.T) {
	topo := moderate(t)
	vals := make([]int32, topo.N())
	for i := range vals {
		vals[i] = int32(i % 10)
	}
	s := NewSubstrate(topo, Options{
		NumTrees: 2,
		Indexes:  []IndexSpec{{Attr: "k", Kind: BloomSummary, Value: valuesOf(vals)}},
	}, nil)
	// Search for nodes with k == 4 from node 1.
	m := &keyMatcher{attr: "k", key: 4, vals: vals}
	found := s.FindTargets(1, m, nil)
	want := 0
	for i, v := range vals {
		if v == 4 && i != 1 {
			want++
		}
	}
	if len(found) != want {
		t.Fatalf("found %d targets, want %d", len(found), want)
	}
	for target, p := range found {
		if vals[target] != 4 {
			t.Fatalf("non-matching target %d", target)
		}
		if p[0] != 1 || p[len(p)-1] != target {
			t.Fatalf("path endpoints wrong: %v", p)
		}
		for i := 0; i+1 < len(p); i++ {
			if !topo.IsNeighbor(p[i], p[i+1]) {
				t.Fatalf("path not link-valid: %v", p)
			}
		}
	}
}

// keyMatcher matches nodes whose static attribute equals key, pruning with
// the attribute summary.
type keyMatcher struct {
	attr string
	key  int32
	vals []int32
}

func (m *keyMatcher) MatchNode(id topology.NodeID) bool { return m.vals[id] == m.key }
func (m *keyMatcher) MayMatchSubtree(e Entry) bool {
	return e.MayContain(e.s.ColumnIndex(m.attr), summary.NewKey(m.key))
}

func TestSearchFindsAllDespiteSummaryPruning(t *testing.T) {
	// No-false-negative end-to-end: pruned search must find exactly the
	// same target set as unpruned search.
	topo := moderate(t)
	vals := make([]int32, topo.N())
	for i := range vals {
		vals[i] = int32((i * 7) % 23)
	}
	s := NewSubstrate(topo, Options{
		NumTrees: 3,
		Indexes:  []IndexSpec{{Attr: "k", Kind: BloomSummary, Value: valuesOf(vals)}},
	}, nil)
	for key := int32(0); key < 23; key++ {
		pruned := s.FindTargets(5, &keyMatcher{attr: "k", key: key, vals: vals}, nil)
		targets := map[topology.NodeID]bool{}
		for i, v := range vals {
			if v == key {
				targets[topology.NodeID(i)] = true
			}
		}
		unpruned := s.FindTargets(5, MatchAll{Targets: targets}, nil)
		if len(pruned) != len(unpruned) {
			t.Fatalf("key %d: pruned found %d, unpruned %d", key, len(pruned), len(unpruned))
		}
	}
}

func TestSearchChargesTraffic(t *testing.T) {
	topo := moderate(t)
	vals := make([]int32, topo.N())
	for i := range vals {
		vals[i] = int32(i % 50)
	}
	s := NewSubstrate(topo, Options{
		NumTrees: 2,
		Indexes:  []IndexSpec{{Attr: "k", Kind: BloomSummary, Value: valuesOf(vals)}},
	}, nil)
	netPruned := sim.NewNetwork(topo, 0, 1)
	s.FindTargets(1, &keyMatcher{attr: "k", key: 3, vals: vals}, netPruned)
	netFlood := sim.NewNetwork(topo, 0, 1)
	targets := map[topology.NodeID]bool{}
	for i, v := range vals {
		if v == 3 {
			targets[topology.NodeID(i)] = true
		}
	}
	s.FindTargets(1, MatchAll{Targets: targets}, netFlood)
	if netPruned.Metrics().TotalBytes == 0 {
		t.Fatal("search charged no traffic")
	}
	if netPruned.Metrics().TotalBytes >= netFlood.Metrics().TotalBytes {
		t.Fatalf("pruned search (%d B) not cheaper than flooding (%d B)",
			netPruned.Metrics().TotalBytes, netFlood.Metrics().TotalBytes)
	}
}

func TestSubstrateConstructionCharged(t *testing.T) {
	topo := moderate(t)
	vals := make([]int32, topo.N())
	net := sim.NewNetwork(topo, 0, 1)
	NewSubstrate(topo, Options{
		NumTrees: 2,
		Indexes:  []IndexSpec{{Attr: "k", Kind: BloomSummary, Value: valuesOf(vals)}},
	}, net)
	m := net.Metrics()
	// 2 trees x (100 beacons + 99 summary ships).
	if m.TotalMessages != 2*int64(topo.N()+topo.N()-1) {
		t.Fatalf("construction messages = %d", m.TotalMessages)
	}
}

func TestEntrySummaryKinds(t *testing.T) {
	topo := topology.Generate(topology.Grid, 16, 1)
	vals := make([]int32, topo.N())
	for i := range vals {
		vals[i] = int32(i)
	}
	s := NewSubstrate(topo, Options{
		NumTrees: 1,
		Indexes: []IndexSpec{
			{Attr: "b", Kind: BloomSummary, Value: valuesOf(vals)},
			{Attr: "i", Kind: IntervalSummary, Value: valuesOf(vals)},
			{Attr: "h", Kind: HistogramSummary, Value: valuesOf(vals), Lo: 0, Hi: 15},
		},
		IndexPositions: true,
	}, nil)
	root := s.Entry(0, topology.Base)
	for _, c := range []struct {
		attr  string
		words int
	}{{"b", 4}, {"i", 1}, {"h", 1}} {
		if got := len(s.cols[0][s.ColumnIndex(c.attr)].Row(0)); got != c.words {
			t.Fatalf("%s: %d words a row, want %d", c.attr, got, c.words)
		}
	}
	// The root's interval is exactly [0, n-1]; the histogram holds every
	// bucket; Bloom and histogram rows cannot prune a range.
	i, n := s.ColumnIndex("i"), int32(topo.N())
	if !root.MayContain(i, summary.NewKey(0)) || !root.MayContain(i, summary.NewKey(n-1)) ||
		root.MayContain(i, summary.NewKey(-1)) || root.MayContain(i, summary.NewKey(n)) {
		t.Fatal("root interval is not [0, n-1]")
	}
	if !root.Overlaps(i, n-1, n+5) || root.Overlaps(i, n, n+5) {
		t.Fatal("root interval overlap wrong")
	}
	for v := int32(0); v < n; v++ {
		if !root.MayContain(s.ColumnIndex("h"), summary.NewKey(v)) || !root.MayContain(s.ColumnIndex("b"), summary.NewKey(v)) {
			t.Fatalf("root row misses value %d", v)
		}
	}
	if !root.Overlaps(s.ColumnIndex("b"), n, n+5) || !root.Overlaps(s.ColumnIndex("h"), n, n+5) {
		t.Fatal("a non-interval row pruned a range")
	}
	if root.Region() == nil {
		t.Fatal("positions not indexed")
	}
	if !root.Region().MayContainWithin(topo.Pos(5), 0.1) {
		t.Fatal("root region missing node position")
	}
}

func TestRepairPathDetours(t *testing.T) {
	topo := topology.Generate(topology.Grid, 100, 1)
	net := sim.NewNetwork(topo, 0, 1)
	tree := BuildTree(topo, topology.Base, nil)
	// A path through the grid interior.
	var victim topology.NodeID = -1
	var path Path
	for i := topo.N() - 1; i > 0; i-- {
		p := tree.AppendPathToRoot(nil, topology.NodeID(i))
		if p.Hops() >= 4 {
			path = p
			victim = p[2]
			break
		}
	}
	if victim < 0 {
		t.Fatal("no long path found")
	}
	net.Fail(victim)
	repaired, ok := NewRepairer(topo, net, DefaultRepairLimit).Repair(path)
	if !ok {
		t.Fatal("repair failed on a grid (detour always exists)")
	}
	if repaired.Contains(victim) {
		t.Fatal("repaired path still uses failed node")
	}
	if repaired[0] != path[0] || repaired[len(repaired)-1] != path[len(path)-1] {
		t.Fatal("repair changed endpoints")
	}
	for i := 0; i+1 < len(repaired); i++ {
		if !topo.IsNeighbor(repaired[i], repaired[i+1]) {
			t.Fatalf("repaired path not link-valid: %v", repaired)
		}
	}
	if net.Metrics().TotalBytes == 0 {
		t.Fatal("repair exploration was free")
	}
}

func TestRepairEndpointFailureUnrepairable(t *testing.T) {
	topo := topology.Generate(topology.Grid, 16, 1)
	net := sim.NewNetwork(topo, 0, 1)
	tree := BuildTree(topo, topology.Base, nil)
	path := tree.AppendPathToRoot(nil, topology.NodeID(topo.N()-1))
	net.Fail(path[len(path)-1])
	if _, ok := NewRepairer(topo, net, 2).Repair(path); ok {
		t.Fatal("repaired a path whose endpoint failed")
	}
}

func TestRepairNoopOnHealthyPath(t *testing.T) {
	topo := topology.Generate(topology.Grid, 16, 1)
	net := sim.NewNetwork(topo, 0, 1)
	tree := BuildTree(topo, topology.Base, nil)
	path := tree.AppendPathToRoot(nil, topology.NodeID(topo.N()-1))
	repaired, ok := NewRepairer(topo, net, 2).Repair(path)
	if !ok || repaired.Hops() != path.Hops() {
		t.Fatal("healthy path was altered")
	}
	if net.Metrics().TotalBytes != 0 {
		t.Fatal("healthy repair charged traffic")
	}
}

func TestDedupeLoops(t *testing.T) {
	p := dedupeLoops(Path{1, 2, 3, 2, 4})
	want := Path{1, 2, 4}
	if len(p) != len(want) {
		t.Fatalf("dedupeLoops = %v, want %v", p, want)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("dedupeLoops = %v, want %v", p, want)
		}
	}
}

// shortcutScratch is Shortcut's scratch for topo: one zero per node.
func shortcutScratch(topo *topology.Topology) []int32 {
	return make([]int32, topo.N())
}

// refShortcut is Shortcut as it was first written, the quadratic reference:
// from each kept node, scan the later path nodes backwards for the farthest
// radio neighbour.
func refShortcut(topo *topology.Topology, p Path) Path {
	if len(p) < 3 {
		return p.Clone()
	}
	out := Path{p[0]}
	i := 0
	for i < len(p)-1 {
		next := i + 1
		for j := len(p) - 1; j > i+1; j-- {
			if topo.IsNeighbor(p[i], p[j]) {
				next = j
				break
			}
		}
		out = append(out, p[next])
		i = next
	}
	return out
}

// TestShortcutMatchesQuadraticReference: Shortcut's one look at each kept
// node's neighbour list picks exactly the reference's backwards scan, on
// Moderate and Dense topologies over several seeds, for tree paths,
// repaired paths and random walks that revisit nodes, and leaves its
// scratch all zero.
func TestShortcutMatchesQuadraticReference(t *testing.T) {
	for _, kind := range []topology.Kind{topology.ModerateRandom, topology.DenseRandom} {
		for seed := uint64(1); seed <= 3; seed++ {
			topo := topology.Generate(kind, 150, seed)
			last := shortcutScratch(topo)
			src := rng.New(seed)
			tree := BuildTree(topo, topology.Base, nil)
			net := sim.NewNetwork(topo, 0, seed)
			for k := 0; k < 4; k++ {
				net.Fail(topology.NodeID(1 + src.Intn(topo.N()-1)))
			}
			var paths []Path
			for n := 0; n < 60; n++ {
				a, b := topology.NodeID(src.Intn(topo.N())), topology.NodeID(src.Intn(topo.N()))
				p := treePath(tree, a, b)
				paths = append(paths, p)
				if rep, ok := NewRepairer(topo, net, DefaultRepairLimit).Repair(p); ok {
					paths = append(paths, rep)
				}
				// A random walk revisits nodes, so a node's last index is
				// not its first.
				walk := Path{a}
				for len(walk) < 2+src.Intn(40) {
					nbs := topo.Neighbors(walk[len(walk)-1])
					walk = append(walk, nbs[src.Intn(len(nbs))])
				}
				paths = append(paths, walk)
			}
			repeats := 0
			for _, p := range paths {
				if got, want := Shortcut(topo, p, last), refShortcut(topo, p); !slices.Equal(got, want) {
					t.Fatalf("%v seed %d: Shortcut(%v) = %v, want %v", kind, seed, p, got, want)
				}
				if dedupeLoops(p.Clone()).Hops() < p.Hops() {
					repeats++
				}
			}
			if i := slices.IndexFunc(last, func(v int32) bool { return v != 0 }); i >= 0 {
				t.Fatalf("%v seed %d: Shortcut left last[%d] = %d", kind, seed, i, last[i])
			}
			if repeats == 0 {
				t.Fatalf("%v seed %d: no path revisits a node", kind, seed)
			}
		}
	}
}

func TestShortcutNeverLengthens(t *testing.T) {
	topo := topology.Generate(topology.ModerateRandom, 80, 3)
	tree := BuildTree(topo, topology.Base, nil)
	last := shortcutScratch(topo)
	for i := 1; i < topo.N(); i += 7 {
		for j := 2; j < topo.N(); j += 11 {
			p := treePath(tree, topology.NodeID(i), topology.NodeID(j))
			sc := Shortcut(topo, p, last)
			if sc.Hops() > p.Hops() {
				t.Fatalf("shortcut lengthened path: %d -> %d", p.Hops(), sc.Hops())
			}
			if sc[0] != p[0] || sc[len(sc)-1] != p[len(p)-1] {
				t.Fatal("shortcut changed endpoints")
			}
			for k := 1; k < len(sc); k++ {
				if !topo.IsNeighbor(sc[k-1], sc[k]) {
					t.Fatalf("shortcut not link-valid: %v", sc)
				}
			}
		}
	}
}

// refTreePath is the tree-path construction BestTreePath used to run once
// per tree, over the oracle's root paths: strip the common root-path
// suffix, splice up and down.
func refTreePath(tb testing.TB, t *Tree, a, b topology.NodeID) Path {
	up, down := refPathToRoot(tb, t, a), refPathToRoot(tb, t, b)
	i, j := len(up)-1, len(down)-1
	for i > 0 && j > 0 && up[i-1] == down[j-1] {
		i--
		j--
	}
	p := append(Path(nil), up[:i+1]...)
	for k := j - 1; k >= 0; k-- {
		p = append(p, down[k])
	}
	return p
}

// TestTreePathMatchesReference: each tree's LCA split writes the oracle's
// tree path for 3,000 sampled pairs, on a substrate whose tree 1 lost its
// root. The
// dead former root is a chain end of its own, so a pair with it has chains
// that never meet, and some such pair must be checked.
func TestTreePathMatchesReference(t *testing.T) {
	const n = 300
	topo := topology.Generate(topology.ModerateRandom, n, 5)
	s := NewSubstrate(topo, Options{NumTrees: 3}, nil)
	old := s.Trees[1].Root
	live := topology.NewLiveness(n)
	live.Fail(old)
	if s.RepairTrees(nil, live, []topology.NodeID{old}) == 0 || s.Trees[1].Root == old {
		t.Fatal("killing tree 1's root did not re-root it")
	}
	disjoint := 0
	rng := xorshift(7)
	for k := 0; k < 3000; k++ {
		a, b := topology.NodeID(rng.intn(n)), topology.NodeID(rng.intn(n))
		if k%3 == 0 {
			a = old
		}
		for _, tree := range s.Trees {
			want := refTreePath(t, tree, a, b)
			if got := treePath(tree, a, b); !slices.Equal(got, want) {
				t.Fatalf("tree rooted at %d: path %d -> %d = %v, want %v", tree.Root, a, b, got, want)
			}
			if refPathToRoot(t, tree, a)[tree.Hops(a)] != refPathToRoot(t, tree, b)[tree.Hops(b)] {
				disjoint++
			}
		}
	}
	if disjoint == 0 {
		t.Fatal("no pair had chains that never meet")
	}
}

// TestBestTreePathMatchesPerTreeLoop: picking the tree by LCA hop count
// and materializing only the winner returns exactly what "shortest of
// TreePath over Trees, first tree wins ties" returns — for identical
// endpoints, tree roots, and a node RepairTrees left detached on a stale
// parent chain.
func TestBestTreePathMatchesPerTreeLoop(t *testing.T) {
	const n = 400
	topo := topology.Generate(topology.ModerateRandom, n, 3)
	s := NewSubstrate(topo, Options{NumTrees: 3}, nil)
	check := func(a, b topology.NodeID) {
		t.Helper()
		var want Path
		for _, tree := range s.Trees {
			if p := refTreePath(t, tree, a, b); want == nil || p.Hops() < want.Hops() {
				want = p
			}
		}
		got := s.BestTreePath(a, b)
		if len(got) != len(want) {
			t.Fatalf("BestTreePath(%d,%d) = %v, per-tree loop %v", a, b, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("BestTreePath(%d,%d) = %v, per-tree loop %v", a, b, got, want)
			}
		}
	}
	sweep := func(special []topology.NodeID) {
		t.Helper()
		rng := xorshift(99)
		for i := 0; i < 200; i++ {
			a, b := topology.NodeID(rng.intn(n)), topology.NodeID(rng.intn(n))
			check(a, b)
			check(a, a)
			sp := special[i%len(special)]
			check(sp, b)
			check(a, sp)
		}
	}
	roots := []topology.NodeID{s.Trees[0].Root, s.Trees[1].Root, s.Trees[2].Root}
	sweep(roots)

	// Detach one alive node: fail every radio neighbour of an interior
	// node, so the live BFS cannot reach it and it keeps its stale parent.
	var island topology.NodeID = -1
	for id := n - 1; id > 0 && island < 0; id-- {
		cand := topology.NodeID(id)
		ok := len(topo.Neighbors(cand)) > 0
		for _, nb := range topo.Neighbors(cand) {
			for _, r := range roots {
				ok = ok && nb != r && cand != r
			}
		}
		if ok {
			island = cand
		}
	}
	if island < 0 {
		t.Fatal("no node whose neighbourhood avoids every root")
	}
	live := topology.NewLiveness(n)
	failed := append([]topology.NodeID(nil), topo.Neighbors(island)...)
	for _, id := range failed {
		live.Fail(id)
	}
	if s.RepairTrees(nil, live, failed) == 0 {
		t.Fatal("failing a whole neighbourhood repaired no tree")
	}
	if !s.Trees[0].Stale(island) {
		t.Fatalf("node %d is still attached after its neighbourhood failed", island)
	}
	sweep(append(roots, island, failed[0]))
}

// dedupeLoopsMap is the map-based dedupeLoops the in-place one replaced,
// kept as its oracle: record every node's last index, then walk the path,
// jumping from each node's first occurrence to its last.
func dedupeLoopsMap(p Path) Path {
	last := make(map[topology.NodeID]int, len(p))
	for i, id := range p {
		last[id] = i
	}
	out := make(Path, 0, len(p))
	for i := 0; i < len(p); i++ {
		out = append(out, p[i])
		if j := last[p[i]]; j > i {
			i = j
		}
	}
	return out
}

func TestDedupeLoopsMatchesMapReference(t *testing.T) {
	cases := []Path{
		nil,
		{7},
		{1, 2, 3, 4},
		{1, 2, 3, 2, 4},          // one loop
		{1, 2, 3, 4, 3, 2, 5},    // nested loops: 3..3 inside 2..2
		{1, 2, 3, 2, 4, 3, 5},    // overlapping: 2..2 and 3..3 cross
		{1, 2, 1, 2, 1, 3},       // a node repeated three times
		{5, 1, 2, 5, 3, 4, 5},    // the source revisited
		{1, 2, 3, 4, 2, 5, 6, 6}, // a loop and a self-repeat at the end
	}
	r := rng.New(37)
	for i := 0; i < 2000; i++ {
		// A small alphabet over long paths forces repeats, nested and
		// overlapping loops among them.
		p := make(Path, r.Intn(40))
		alphabet := 2 + r.Intn(20)
		for k := range p {
			p[k] = topology.NodeID(r.Intn(alphabet))
		}
		cases = append(cases, p)
	}
	shortened := 0
	for _, p := range cases {
		want := dedupeLoopsMap(p)
		in := slices.Clone(p)
		got := dedupeLoops(in)
		if !slices.Equal(got, want) {
			t.Fatalf("dedupeLoops(%v) = %v, map reference %v", p, got, want)
		}
		if len(got) > 0 && &got[0] != &in[0] {
			t.Fatalf("dedupeLoops(%v) did not work in place", p)
		}
		if len(got) < len(p) {
			shortened++
		}
	}
	if shortened < 1000 {
		t.Fatalf("only %d of %d paths had a loop to cut", shortened, len(cases))
	}
}

// TestAppendBestTreePathMatchesBestTreePath: appending to a dirty,
// non-empty buffer leaves its prefix alone and writes exactly the path
// BestTreePath returns (TestBestTreePathMatchesPerTreeLoop pins that one
// against a per-tree reference).
func TestAppendBestTreePathMatchesBestTreePath(t *testing.T) {
	topo := topology.Generate(topology.ModerateRandom, 300, 4)
	s := NewSubstrate(topo, Options{NumTrees: 3}, nil)
	r := rng.New(11)
	dirty := Path{901, 902, 903}
	dst := append(make(Path, 0, 64), dirty...)
	for i := 0; i < 3000; i++ {
		a, b := topology.NodeID(r.Intn(topo.N())), topology.NodeID(r.Intn(topo.N()))
		// Leave garbage past len(dst) so a short write would show.
		for k := len(dst); k < cap(dst); k++ {
			dst[:cap(dst)][k] = -7
		}
		got := s.AppendBestTreePath(dst, a, b)
		if !slices.Equal(got[:len(dirty)], dirty) {
			t.Fatalf("AppendBestTreePath(%d, %d) overwrote dst's prefix: %v", a, b, got[:len(dirty)])
		}
		if want := s.BestTreePath(a, b); !slices.Equal(got[len(dirty):], want) {
			t.Fatalf("AppendBestTreePath(%d, %d) = %v, want %v", a, b, got[len(dirty):], want)
		}
		dst = got[:len(dirty)]
	}
	if allocs := testing.AllocsPerRun(50, func() { dst = s.AppendBestTreePath(dst[:0], 3, 250) }); allocs != 0 {
		t.Fatalf("AppendBestTreePath into a grown buffer allocates %.1f objects", allocs)
	}
}

// TestTreeMemBytesMatchesHeap: Tree.MemBytes, which feeds routing.mem_mb,
// is the heap a build keeps, within 10%: it reads the columns' real element
// sizes, so a change of layout cannot leave the gauge behind.
func TestTreeMemBytesMatchesHeap(t *testing.T) {
	topo := topology.Generate(topology.DenseRandom, 10000, 1)
	var before, after runtime.MemStats
	runtime.GC() // twice: the first may leave earlier tests' garbage unswept
	runtime.GC()
	runtime.ReadMemStats(&before)
	tree := BuildTree(topo, topology.Base, nil)
	runtime.GC()
	runtime.ReadMemStats(&after)
	kept := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	got := tree.MemBytes()
	runtime.KeepAlive(tree)
	runtime.KeepAlive(topo)
	if diff := got - kept; diff > kept/10 || -diff > kept/10 {
		t.Fatalf("Tree.MemBytes = %d B, the build keeps %d B of heap: off by more than 10%%", got, kept)
	}
}
