package mpo

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

func TestBuildMulticastSharesPrefix(t *testing.T) {
	// Paths 0-1-2-3 and 0-1-4: shared prefix 0-1 transmitted once, so the
	// tree costs 4 edges where separate unicast would cost 3+2=5.
	tree := BuildMulticast(0, []routing.Path{{0, 1, 2, 3}, {0, 1, 4}})
	if tree.Edges() != 4 {
		t.Fatalf("Edges = %d, want 4 (5 nodes)", tree.Edges())
	}
	// Breadth-first, siblings ascending: 2 before 4 under 1, then 3.
	want := [][2]topology.NodeID{{0, 1}, {1, 2}, {1, 4}, {2, 3}}
	if got := tree.EdgeList(); !slices.Equal(got, want) {
		t.Fatalf("EdgeList = %v, want %v", got, want)
	}
}

func TestBuildMulticastDivergentRemeet(t *testing.T) {
	// Two paths that remeet at node 5 must still form a tree: node 5 keeps
	// its first parent (1), so 8 is reached via 1-5 and the 2-5 link is
	// not an edge.
	tree := BuildMulticast(0, []routing.Path{{0, 1, 5, 7}, {0, 2, 5, 8}})
	want := [][2]topology.NodeID{{0, 1}, {0, 2}, {1, 5}, {5, 7}, {5, 8}}
	if got := tree.EdgeList(); !slices.Equal(got, want) {
		t.Fatalf("EdgeList = %v, want %v", got, want)
	}
}

func TestBuildMulticastPanicsOnForeignPath(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for path not rooted at producer")
		}
	}()
	BuildMulticast(0, []routing.Path{{1, 2}})
}

func TestEdgeListMatchesEdges(t *testing.T) {
	tree := BuildMulticast(0, []routing.Path{{0, 1, 2}, {0, 1, 3}, {0, 4}})
	el := tree.EdgeList()
	if len(el) != tree.Edges() {
		t.Fatalf("EdgeList has %d entries, Edges() = %d", len(el), tree.Edges())
	}
	for _, e := range el {
		if e[0] == e[1] {
			t.Fatalf("self edge %v", e)
		}
	}
}

func TestInteriorStateBytes(t *testing.T) {
	// Node 1 has two children (2 and 3): it caches state for its subtree
	// {1,2,3} = 3 entries. Root fan-out is excluded (the producer itself
	// holds the tree).
	tree := BuildMulticast(0, []routing.Path{{0, 1, 2}, {0, 1, 3}})
	if got := tree.InteriorStateBytes(1); got != 3 {
		t.Fatalf("InteriorStateBytes = %d, want 3", got)
	}
	// A pure chain has no branching interior nodes.
	chain := BuildMulticast(0, []routing.Path{{0, 1, 2, 3}})
	if got := chain.InteriorStateBytes(1); got != 0 {
		t.Fatalf("chain InteriorStateBytes = %d, want 0", got)
	}
}

// ladder builds two parallel 5-hop chains from node 0 with rungs between
// them:
//
//	0 - 1 - 2 - 3 - 4   (to join node 4)
//	 \  5 - 6 - 7 - 8   (to join node 8)
//
// with links 1-5, 2-6, 3-7 making collapses possible.
func ladder() *topology.Topology {
	pos := []geom.Point{
		{X: 0, Y: 0.5},
		{X: 1, Y: 0}, {X: 2, Y: 0}, {X: 3, Y: 0}, {X: 4, Y: 0},
		{X: 1, Y: 1}, {X: 2, Y: 1}, {X: 3, Y: 1}, {X: 4, Y: 1},
	}
	return topology.FromPositions(pos, 1.2)
}

func TestFindCollapses(t *testing.T) {
	topo := ladder()
	paths := []routing.Path{{0, 1, 2, 3, 4}, {0, 5, 6, 7, 8}}
	opps := FindCollapses(topo, paths)
	if len(opps) == 0 {
		t.Fatal("no collapse opportunities found on the ladder")
	}
	for _, o := range opps {
		if !topo.IsNeighbor(o.N1, o.N2) {
			t.Fatalf("opportunity nodes %d,%d not adjacent", o.N1, o.N2)
		}
	}
	// With range 1.2 only the rungs 1-5, 2-6, 3-7 are links.
	want := []CollapseOpportunity{
		{N1: 1, N2: 5, Dest1: 4, Dest2: 8},
		{N1: 2, N2: 6, Dest1: 4, Dest2: 8},
		{N1: 3, N2: 7, Dest1: 4, Dest2: 8},
	}
	if !slices.Equal(opps, want) {
		t.Fatalf("FindCollapses = %v, want %v", opps, want)
	}
	// The same ladder with the top chain numbered 3-2-1: opportunities come
	// out by hop along the first path, not sorted by (N1, N2). The caller
	// charges one notification per opportunity in this order, so the
	// checksums pin it.
	pos := []geom.Point{
		{X: 0, Y: 0.5},
		{X: 3, Y: 0}, {X: 2, Y: 0}, {X: 1, Y: 0}, {X: 4, Y: 0},
		{X: 1, Y: 1}, {X: 2, Y: 1}, {X: 3, Y: 1}, {X: 4, Y: 1},
	}
	opps = FindCollapses(topology.FromPositions(pos, 1.2), []routing.Path{{0, 3, 2, 1, 4}, {0, 5, 6, 7, 8}})
	want = []CollapseOpportunity{
		{N1: 3, N2: 5, Dest1: 4, Dest2: 8},
		{N1: 2, N2: 6, Dest1: 4, Dest2: 8},
		{N1: 1, N2: 7, Dest1: 4, Dest2: 8},
	}
	if !slices.Equal(opps, want) {
		t.Fatalf("FindCollapses (descending chain) = %v, want %v", opps, want)
	}
}

func TestFindCollapsesRequiresDisjointPaths(t *testing.T) {
	topo := ladder()
	// Paths sharing node 1 are not node-disjoint: no opportunities.
	paths := []routing.Path{{0, 1, 2, 3}, {0, 1, 5, 6}}
	if opps := FindCollapses(topo, paths); len(opps) != 0 {
		t.Fatalf("found %d opportunities on overlapping paths", len(opps))
	}
}

func TestApplyCollapsesReducesTreeCost(t *testing.T) {
	topo := ladder()
	paths := []routing.Path{{0, 1, 2, 3, 4}, {0, 5, 6, 7, 8}}
	before := BuildMulticast(0, paths).Edges()
	opps := FindCollapses(topo, paths)
	newPaths, send, applied := ApplyCollapses(topo, 0, paths, opps)
	if applied == 0 {
		t.Fatal("no collapse applied on the ladder")
	}
	after := BuildMulticast(0, newPaths).Edges()
	if after >= before {
		t.Fatalf("collapse did not reduce cost: %d -> %d", before, after)
	}
	if send.Edges() > before {
		t.Fatal("send tree worse than original")
	}
	// Rerouted paths must stay link-valid and still reach both join nodes.
	dests := map[topology.NodeID]bool{}
	for _, p := range newPaths {
		for i := 1; i < len(p); i++ {
			if !topo.IsNeighbor(p[i-1], p[i]) {
				t.Fatalf("collapsed path not link-valid: %v", p)
			}
		}
		dests[p[len(p)-1]] = true
	}
	if !dests[4] || !dests[8] {
		t.Fatalf("collapse lost a join node: %v", newPaths)
	}
}

func TestApplyCollapsesNoOpportunities(t *testing.T) {
	topo := ladder()
	paths := []routing.Path{{0, 1, 2, 3, 4}}
	out, send, applied := ApplyCollapses(topo, 0, paths, nil)
	if applied != 0 || send.Edges() != 4 || len(out) != 1 {
		t.Fatal("no-op collapse changed state")
	}
}

func TestGroupOptDecision(t *testing.T) {
	topo := topology.Generate(topology.Grid, 25, 1)
	sub := routing.NewSubstrate(topo, routing.Options{NumTrees: 1}, nil)
	// Strongly in-network-favouring: join nodes adjacent to producers and
	// to the root, producers far from the root.
	inNet := []ProducerCost{
		{Producer: 10, SigmaP: 1, DPR: 8, JoinNodes: []costmodel.GroupJoinNode{{DPJ: 1, NPJ: 1, DJR: 1}}},
		{Producer: 11, SigmaP: 1, DPR: 8, JoinNodes: []costmodel.GroupJoinNode{{DPJ: 1, NPJ: 1, DJR: 1}}},
	}
	if d := GroupOpt(sub, nil, nil, inNet, 0.05, 1); d != DecideInNet {
		t.Fatalf("decision = %v, want in-network", d)
	}
	// Base-favouring: producers next to the root, join nodes far away.
	atBase := []ProducerCost{
		{Producer: 10, SigmaP: 1, DPR: 1, JoinNodes: []costmodel.GroupJoinNode{{DPJ: 6, NPJ: 3, DJR: 7}}},
	}
	if d := GroupOpt(sub, nil, nil, atBase, 0.2, 3); d != DecideBase {
		t.Fatalf("decision = %v, want base", d)
	}
	if GroupOpt(sub, nil, nil, nil, 0.2, 3) != DecideInNet {
		t.Fatal("empty group should default to in-network")
	}
}

func TestGroupOptChargesCoordination(t *testing.T) {
	sub, net, producers := groupOptFixture()
	var routes Routes
	GroupOpt(sub, net, &routes, producers, 0.1, 3)
	m := net.Metrics()
	if m.TotalBytes == 0 {
		t.Fatal("GROUPOPT coordination was free")
	}
	// Coordinator is node 3: it neither sends deltas nor receives its own
	// decision; members 7 and 12 each send one delta and receive one
	// decision = 4 transfers.
	if m.TotalMessages < 4 {
		t.Fatalf("TotalMessages = %d, want >= 4", m.TotalMessages)
	}
}

// groupOptFixture is three producers on a 5x5 grid with a network to
// charge their coordination to.
func groupOptFixture() (*routing.Substrate, *sim.Network, []ProducerCost) {
	topo := topology.Generate(topology.Grid, 25, 1)
	sub := routing.NewSubstrate(topo, routing.Options{NumTrees: 1}, nil)
	net := sim.NewNetwork(topo, 0, 1)
	producers := []ProducerCost{
		{Producer: 3, SigmaP: 1, DPR: 2, JoinNodes: []costmodel.GroupJoinNode{{DPJ: 1, NPJ: 1, DJR: 2}}},
		{Producer: 7, SigmaP: 1, DPR: 3, JoinNodes: []costmodel.GroupJoinNode{{DPJ: 1, NPJ: 1, DJR: 2}}},
		{Producer: 12, SigmaP: 1, DPR: 4, JoinNodes: []costmodel.GroupJoinNode{{DPJ: 2, NPJ: 1, DJR: 3}}},
	}
	return sub, net, producers
}

// TestGroupOptAllocs: with the caller's route scratch grown, a charged
// GROUPOPT round allocates nothing, with or without a fault plan.
func TestGroupOptAllocs(t *testing.T) {
	for _, faulted := range []bool{false, true} {
		sub, net, producers := groupOptFixture()
		if faulted {
			net.SetFaults(faults.NewPlan(sub.Topo, faults.Config{Seed: 1, LinkLoss: 0.1}))
		}
		var routes Routes
		GroupOpt(sub, net, &routes, producers, 0.1, 3) // grow the scratch
		if allocs := testing.AllocsPerRun(20, func() { GroupOpt(sub, net, &routes, producers, 0.1, 3) }); allocs != 0 {
			t.Fatalf("faults %v: GroupOpt allocates %.1f objects per call after warm-up", faulted, allocs)
		}
		if net.Metrics().TotalMessages == 0 {
			t.Fatal("GroupOpt charged no coordination traffic")
		}
	}
}

// refGroupOpt is GroupOpt's coordination traffic as first written, the
// reference its replies are checked against: every reply route is looked
// up again from the coordinator, and every hop's link is found by its
// endpoints.
func refGroupOpt(sub *routing.Substrate, net *sim.Network, producers []ProducerCost) {
	gc := producers[0].Producer
	for _, p := range producers[1:] {
		gc = min(gc, p.Producer)
	}
	const deltaBytes = 2 * sim.ValueBytes
	for _, p := range producers {
		if p.Producer != gc {
			net.Transfer(sub.BestTreePath(p.Producer, gc), deltaBytes, sim.Control, sim.Flow{})
		}
	}
	for _, p := range producers {
		if p.Producer != gc {
			net.Transfer(sub.BestTreePath(gc, p.Producer), deltaBytes, sim.Control, sim.Flow{})
		}
	}
}

// TestGroupOptRepliesMatchReference: a reply runs back over its request's
// route and link ids, except where the route's tree chains never met, and
// that charges exactly what looking every reply up again does. The trees
// are patched around failures that cut nodes off, and both are re-rooted,
// so the cut-off nodes' stale chains end at dead old roots and their routes
// are not reversible; the trees keep a fault plan's up-link ids.
func TestGroupOptRepliesMatchReference(t *testing.T) {
	topo := topology.Generate(topology.ModerateRandom, 120, 2)
	live := topology.NewLiveness(topo.N())
	plan := faults.NewPlan(topo, faults.Config{Seed: 4, LinkLoss: 0.3, DupProb: 0.1, DelayMax: 2})
	built := sim.NewSharedNetwork(topo, 0, 1, live)
	built.SetFaults(plan)
	sub := routing.NewSubstrate(topo, routing.Options{NumTrees: 2}, built)
	// Cut off a few nodes by failing every neighbour, and fail both roots.
	failed := []topology.NodeID{sub.Trees[0].Root, sub.Trees[1].Root}
	cut := []topology.NodeID{17, 55, 90}
	for _, v := range cut {
		for _, nb := range topo.Neighbors(v) {
			if live.Alive(nb) {
				failed = append(failed, nb)
			}
		}
	}
	for _, v := range failed {
		live.Fail(v)
	}
	sub.RepairTrees(nil, live, failed)
	var alive []topology.NodeID
	for i := 0; i < topo.N(); i++ {
		if id := topology.NodeID(i); live.Alive(id) {
			alive = append(alive, id)
		}
	}
	src := rng.New(11)
	netA, netB := sim.NewSharedNetwork(topo, 0.1, 5, live), sim.NewSharedNetwork(topo, 0.1, 5, live)
	netA.SetFaults(plan)
	netB.SetFaults(plan)
	var routes Routes
	reversible, not := 0, 0
	for g := 0; g < 300; g++ {
		// Each group holds a cut-off node.
		producers := []ProducerCost{{Producer: cut[g%len(cut)], SigmaP: 1, DPR: 2}}
		for k := src.Intn(4); k >= 0; k-- {
			producers = append(producers, ProducerCost{Producer: alive[src.Intn(len(alive))], SigmaP: 1, DPR: 2})
		}
		GroupOpt(sub, netA, &routes, producers, 0.1, 3)
		refGroupOpt(sub, netB, producers)
		for _, r := range routes.sent {
			if r.reversible {
				reversible++
			} else {
				not++
			}
		}
	}
	if a, b := netA.Metrics(), netB.Metrics(); !reflect.DeepEqual(a, b) {
		t.Fatalf("GROUPOPT charged %d bytes, %d drops; the reference %d, %d", a.TotalBytes, a.Drops, b.TotalBytes, b.Drops)
	}
	if reversible == 0 || not == 0 {
		t.Fatalf("%d reversible and %d other routes, want some of each", reversible, not)
	}
}

func BenchmarkGroupOpt(b *testing.B) {
	sub, net, producers := groupOptFixture()
	var routes Routes
	b.ReportAllocs()
	for b.Loop() {
		GroupOpt(sub, net, &routes, producers, 0.1, 3)
	}
}

func TestGroupDecisionString(t *testing.T) {
	if DecideBase.String() != "base" || DecideInNet.String() != "in-network" {
		t.Fatal("GroupDecision labels wrong")
	}
}

func TestApplyCollapsesPropertyRandomTopologies(t *testing.T) {
	// Property: on arbitrary topologies and path sets, collapsing never
	// loses a destination, never produces a link-invalid path, and never
	// increases the multicast tree cost.
	for seed := uint64(1); seed <= 8; seed++ {
		topo := topology.Generate(topology.ModerateRandom, 60, seed)
		sub := routing.NewSubstrate(topo, routing.Options{NumTrees: 2}, nil)
		root := topology.NodeID(1)
		var paths []routing.Path
		for _, dst := range []topology.NodeID{11, 23, 37, 51} {
			paths = append(paths, sub.BestTreePath(root, dst))
		}
		before := BuildMulticast(root, paths).Edges()
		opps := FindCollapses(topo, paths)
		newPaths, send, _ := ApplyCollapses(topo, root, paths, opps)
		after := BuildMulticast(root, newPaths).Edges()
		if after > before {
			t.Fatalf("seed %d: collapse increased cost %d -> %d", seed, before, after)
		}
		if send.Edges() > before {
			t.Fatalf("seed %d: send tree worse than original", seed)
		}
		wantDst := map[topology.NodeID]bool{11: true, 23: true, 37: true, 51: true}
		for _, p := range newPaths {
			if !wantDst[p[len(p)-1]] {
				t.Fatalf("seed %d: destination changed: %v", seed, p)
			}
			if p[0] != root {
				t.Fatalf("seed %d: root changed: %v", seed, p)
			}
			for i := 1; i < len(p); i++ {
				if !topo.IsNeighbor(p[i-1], p[i]) {
					t.Fatalf("seed %d: invalid link in %v", seed, p)
				}
			}
		}
	}
}

func TestMulticastTreeReachesAllLeavesProperty(t *testing.T) {
	// Property: every path endpoint is reachable from the root through
	// tree edges, regardless of how paths overlap.
	for seed := uint64(1); seed <= 10; seed++ {
		topo := topology.Generate(topology.MediumRandom, 50, seed)
		sub := routing.NewSubstrate(topo, routing.Options{NumTrees: 3}, nil)
		root := topology.NodeID(2)
		dsts := []topology.NodeID{7, 19, 31, 43, 49}
		var paths []routing.Path
		for _, d := range dsts {
			paths = append(paths, sub.BestTreePath(root, d))
		}
		tree := BuildMulticast(root, paths)
		reached := map[topology.NodeID]bool{root: true}
		for _, e := range tree.EdgeList() {
			if !reached[e[0]] {
				t.Fatalf("seed %d: edge list not topological at %v", seed, e)
			}
			reached[e[1]] = true
		}
		for _, d := range dsts {
			if !reached[d] {
				t.Fatalf("seed %d: leaf %d unreachable", seed, d)
			}
		}
	}
}

// oracleTree is the map-based multicast tree this package used before the
// dense Builder, kept as the reference the differential test compares
// against: same union rule, same edge order, same interior-state charge.
type oracleTree struct {
	root   topology.NodeID
	parent map[topology.NodeID]topology.NodeID
}

func buildOracle(root topology.NodeID, paths []routing.Path) *oracleTree {
	t := &oracleTree{root: root, parent: map[topology.NodeID]topology.NodeID{root: -1}}
	for _, p := range paths {
		for i := 1; i < len(p); i++ {
			if _, on := t.parent[p[i]]; !on {
				t.parent[p[i]] = p[i-1]
			}
		}
	}
	return t
}

func (t *oracleTree) edgeList() [][2]topology.NodeID {
	kids := map[topology.NodeID][]topology.NodeID{}
	for n, p := range t.parent {
		if p != -1 {
			kids[p] = append(kids[p], n)
		}
	}
	for _, cs := range kids {
		sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
	}
	out := [][2]topology.NodeID{}
	queue := []topology.NodeID{t.root}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, c := range kids[p] {
			out = append(out, [2]topology.NodeID{p, c})
			queue = append(queue, c)
		}
	}
	return out
}

func (t *oracleTree) interiorStateBytes(perNodeBytes int) int {
	kids := map[topology.NodeID]int{}
	for _, p := range t.parent {
		if p != -1 {
			kids[p]++
		}
	}
	total := 0
	for n, k := range kids {
		if k > 1 && n != t.root {
			total += perNodeBytes * t.subtreeSize(n)
		}
	}
	return total
}

// subtreeSize counts root itself and every descendant.
func (t *oracleTree) subtreeSize(root topology.NodeID) int {
	n := 0
	for node := range t.parent {
		for at := node; at != -1; at = t.parent[at] {
			if at == root {
				n++
				break
			}
		}
	}
	return n
}

// checkAgainstOracle fails unless tree and the oracle built from the same
// input agree on edge count, edge order and interior-state charge.
func checkAgainstOracle(t *testing.T, label string, tree *MulticastTree, root topology.NodeID, paths []routing.Path) {
	t.Helper()
	want := buildOracle(root, paths)
	if tree.Root != root {
		t.Fatalf("%s: Root = %d, want %d", label, tree.Root, root)
	}
	if got := tree.Edges(); got != len(want.parent)-1 {
		t.Fatalf("%s: Edges = %d, oracle %d (paths %v)", label, got, len(want.parent)-1, paths)
	}
	if got, w := tree.EdgeList(), want.edgeList(); !slices.Equal(got, w) {
		t.Fatalf("%s: EdgeList = %v, oracle %v (paths %v)", label, got, w, paths)
	}
	if got, w := tree.InteriorStateBytes(sim.PathEntryBytes), want.interiorStateBytes(sim.PathEntryBytes); got != w {
		t.Fatalf("%s: InteriorStateBytes = %d, oracle %d (paths %v)", label, got, w, paths)
	}
	// The numbering: the root is 0 and edge k's child k+1, and the
	// parents' numbers never fall along the list, which a walk that moves
	// forward to each edge's parent relies on.
	prev := int32(0)
	for k, e := range tree.EdgeList() {
		if got := number(tree, e[1]); got != int32(k)+1 {
			t.Fatalf("%s: number(%d) = %d, want %d", label, e[1], got, k+1)
		}
		if from := number(tree, e[0]); from < prev || from > int32(k) {
			t.Fatalf("%s: edge %d %v: its parent's number %d after %d", label, k, e, from, prev)
		}
		prev = number(tree, e[0])
	}
	if got := number(tree, root); got != 0 {
		t.Fatalf("%s: number(root) = %d, want 0", label, got)
	}
	if number(tree, -2) != -1 {
		t.Fatalf("%s: number of a node off the tree = %d, want -1", label, number(tree, -2))
	}
}

// number returns n's number in tree (see EdgeList), or -1 when n is not
// on the tree, by a scan of the tree.
func number(tree *MulticastTree, n topology.NodeID) int32 {
	if n == tree.Root {
		return 0
	}
	for k, e := range tree.EdgeList() {
		if e[1] == n {
			return int32(k) + 1
		}
	}
	return -1
}

// checkEnds fails unless ends names, for each path, the number of its last
// node in tree, the root's for an empty path.
func checkEnds(t *testing.T, label string, tree *MulticastTree, paths []routing.Path, ends []int32) {
	t.Helper()
	if len(ends) != len(paths) {
		t.Fatalf("%s: %d ends for %d paths", label, len(ends), len(paths))
	}
	for i, p := range paths {
		want := int32(0)
		if len(p) > 0 {
			want = number(tree, p[len(p)-1])
		}
		if ends[i] != want {
			t.Fatalf("%s: path %d %v ends at number %d, want %d", label, i, p, ends[i], want)
		}
	}
}

// randomPathSet draws root-originated paths over topo that overlap the way
// a producer's segments do: substrate tree paths (shared prefixes), random
// simple walks (diverge and remeet), repeats of earlier paths, and the
// degenerate empty and root-only paths.
func randomPathSet(topo *topology.Topology, sub *routing.Substrate, r *rng.Source) (topology.NodeID, []routing.Path) {
	root := topology.NodeID(r.Intn(topo.N()))
	paths := make([]routing.Path, 0, 12)
	for k := 2 + r.Intn(10); k > 0; k-- {
		switch c := r.Intn(10); {
		case c < 4:
			paths = append(paths, sub.BestTreePath(root, topology.NodeID(r.Intn(topo.N()))))
		case c < 7:
			walk := routing.Path{root}
			for steps := 1 + r.Intn(12); steps > 0; steps-- {
				nbrs := topo.Neighbors(walk[len(walk)-1])
				next := nbrs[r.Intn(len(nbrs))]
				if walk.Contains(next) {
					break
				}
				walk = append(walk, next)
			}
			paths = append(paths, walk)
		case c < 8 && len(paths) > 0:
			paths = append(paths, paths[r.Intn(len(paths))])
		case c < 9:
			paths = append(paths, routing.Path{})
		default:
			paths = append(paths, routing.Path{root})
		}
	}
	return root, paths
}

func TestBuildMulticastMatchesMapOracle(t *testing.T) {
	topo := topology.Generate(topology.MediumRandom, 120, 5)
	sub := routing.NewSubstrate(topo, routing.Options{NumTrees: 3}, nil)
	r := rng.New(42)
	var b Builder
	var inPlace *MulticastTree
	index := make([]int32, topo.N())
	branching := 0
	for i := 0; i < 300; i++ {
		root, paths := randomPathSet(topo, sub, r)
		checkAgainstOracle(t, "one-shot", BuildMulticast(root, paths), root, paths)
		// The same Builder across all 300 sets: stale scratch would show.
		tree := b.Build(root, paths)
		checkAgainstOracle(t, "reused Builder", tree, root, paths)
		checkEnds(t, "reused Builder", tree, paths, b.Ends())
		// One tree rebuilt in place across all 300 sets, on one node
		// index the caller lends: stale edges, interior counts or index
		// entries would show.
		inPlace = b.Rebuild(inPlace, root, paths, index)
		checkAgainstOracle(t, "rebuilt in place", inPlace, root, paths)
		checkEnds(t, "rebuilt in place", inPlace, paths, b.Ends())
		if k := slices.IndexFunc(index, func(v int32) bool { return v != 0 }); k >= 0 {
			t.Fatalf("set %d: Rebuild left index[%d] = %d", i, k, index[k])
		}
		if tree.InteriorStateBytes(1) > 0 {
			branching++
		}
	}
	if branching < 100 {
		t.Fatalf("only %d of 300 path sets had a charged interior node: the generator lost its overlap", branching)
	}
}

func TestBuilderReuse(t *testing.T) {
	a := []routing.Path{{3, 1, 2}, {3, 1, 4}, {3, 5}}
	// B's IDs all exceed A's: the NodeID-indexed scratch has to grow, and
	// B is larger than A, so the per-node scratch does too.
	bb := []routing.Path{{900, 950, 901, 990}, {900, 950, 902}, {900, 950, 901, 903}, {900, 7}}
	var b Builder
	checkAgainstOracle(t, "A", b.Build(3, a), 3, a)
	checkAgainstOracle(t, "B after A", b.Build(900, bb), 900, bb)
	checkAgainstOracle(t, "A after B", b.Build(3, a), 3, a)

	// A foreign path panics before the scratch is touched, so the Builder
	// stays usable and carries nothing over from the rejected input.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic for path not rooted at producer")
			}
		}()
		b.Build(3, []routing.Path{{3, 1, 2}, {4, 5}})
	}()
	checkAgainstOracle(t, "B after panic", b.Build(900, bb), 900, bb)
	checkAgainstOracle(t, "A after panic", b.Build(3, a), 3, a)

	// Trees are independent of the Builder that made them: a later build
	// must not disturb an earlier tree's edges.
	first := b.Build(3, a)
	kept := slices.Clone(first.EdgeList())
	b.Build(900, bb)
	if !slices.Equal(first.EdgeList(), kept) {
		t.Fatalf("earlier tree changed under a later build: %v, was %v", first.EdgeList(), kept)
	}

	// Rebuilding with no paths empties the tree in place.
	if emptied := b.Rebuild(first, 3, nil, nil); emptied != first || emptied.Edges() != 0 || emptied.InteriorStateBytes(1) != 0 {
		t.Fatalf("Rebuild with no paths: same tree %v, %d edges, %d interior bytes; want the same, empty tree",
			emptied == first, emptied.Edges(), emptied.InteriorStateBytes(1))
	}
}
