package routing

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// xorshift is the deterministic rng the differential tests use for failure
// patterns (seeded per case, independent of the global rng discipline).
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := *x
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return uint64(v)
}

func (x *xorshift) intn(n int) int { return int(x.next() % uint64(n)) }

func cloneTree(t *Tree) *Tree {
	n := len(t.Parent)
	c := &Tree{
		Root:      t.Root,
		Parent:    append([]topology.NodeID(nil), t.Parent...),
		Depth:     append([]int(nil), t.Depth...),
		Children:  make([][]topology.NodeID, n),
		rootPaths: make([]Path, n),
		deepFirst: append([]topology.NodeID(nil), t.deepFirst...),
		staleSet:  append([]bool(nil), t.staleSet...),
	}
	for i := range t.Children {
		c.Children[i] = append([]topology.NodeID(nil), t.Children[i]...)
	}
	for i := range t.rootPaths {
		c.rootPaths[i] = t.rootPaths[i].Clone()
	}
	return c
}

// requireTreesEqual asserts byte-identical derived structure: parents,
// depths, children, root paths, deepest-first order and stale sets.
func requireTreesEqual(t *testing.T, got, want *Tree, ctx string) {
	t.Helper()
	if got.Root != want.Root {
		t.Fatalf("%s: root %d != %d", ctx, got.Root, want.Root)
	}
	for i := range want.Parent {
		if got.Parent[i] != want.Parent[i] {
			t.Fatalf("%s: parent[%d] = %d, want %d", ctx, i, got.Parent[i], want.Parent[i])
		}
		if got.Depth[i] != want.Depth[i] {
			t.Fatalf("%s: depth[%d] = %d, want %d", ctx, i, got.Depth[i], want.Depth[i])
		}
		if got.staleSet[i] != want.staleSet[i] {
			t.Fatalf("%s: stale[%d] = %v, want %v", ctx, i, got.staleSet[i], want.staleSet[i])
		}
		if !reflect.DeepEqual(pathOrEmpty(got.Children[i]), pathOrEmpty(want.Children[i])) {
			t.Fatalf("%s: children[%d] = %v, want %v", ctx, i, got.Children[i], want.Children[i])
		}
		if !reflect.DeepEqual(pathOrEmpty(got.rootPaths[i]), pathOrEmpty(want.rootPaths[i])) {
			t.Fatalf("%s: rootPath[%d] = %v, want %v", ctx, i, got.rootPaths[i], want.rootPaths[i])
		}
	}
	if !reflect.DeepEqual(got.deepFirst, want.deepFirst) {
		t.Fatalf("%s: deepFirst order differs\n got %v\nwant %v", ctx, got.deepFirst, want.deepFirst)
	}
}

func pathOrEmpty(p []topology.NodeID) []topology.NodeID {
	if len(p) == 0 {
		return nil
	}
	return p
}

// TestPatchMatchesRebuildRandom is the differential oracle for the
// incremental repair: across 120 seeded multi-failure churn histories on
// mixed topologies, every accepted PatchTreeLive must leave the tree
// byte-identical to what a full RebuildTreeLive produces from the same
// state — parents, depths, children, root paths, deepest-first order and
// stale-chain semantics. Failed leaves are left unrepaired (exactly the
// RepairTrees policy) so patches must also absorb seeds accumulated from
// earlier epochs that never triggered a repair.
func TestPatchMatchesRebuildRandom(t *testing.T) {
	kinds := []topology.Kind{topology.DenseRandom, topology.Grid, topology.SparseRandom}
	patched, bailed := 0, 0
	for seed := uint64(1); seed <= 120; seed++ {
		n := 80 + int(seed%5)*40
		topo := topology.Generate(kinds[int(seed)%len(kinds)], n, seed)
		live := topology.NewLiveness(n)
		ref := BuildTree(topo, topology.Base, nil)
		cur := cloneTree(ref)
		scratch := NewPatchScratch()
		rng := xorshift(seed*2654435761 + 1)
		for epoch := 0; epoch < 6; epoch++ {
			// Kill 1-3 alive non-root nodes.
			interior := false
			for k := 0; k < 1+rng.intn(3); k++ {
				id := topology.NodeID(1 + rng.intn(n-1))
				if !live.Alive(id) {
					continue
				}
				live.Fail(id)
				if len(cur.Children[id]) > 0 {
					interior = true
				}
			}
			if !interior {
				continue // RepairTrees would skip: failed leaves only
			}
			want := RebuildTreeLive(topo, ref, ref.Root, nil, live)
			res, ok := PatchTreeLive(topo, cur, nil, live, scratch)
			if ok {
				patched++
				requireTreesEqual(t, cur, want, fmt.Sprintf("seed %d epoch %d (region %d changed %d)", seed, epoch, res.Region, res.Changed))
			} else {
				bailed++
				cur = cloneTree(want)
			}
			ref = want
		}
	}
	if patched < 100 {
		t.Fatalf("only %d patches engaged across the battery (want >= 100; %d bailed)", patched, bailed)
	}
	if bailed == 0 {
		t.Fatalf("no patch ever fell back to a full rebuild; budget path untested")
	}
}

// TestPatchDeclinesDeadRootAndRevival pins the two hard bail conditions:
// a dead root (re-rooting moves every path) and a revived stale node
// (reachability is no longer monotone) must both refuse the patch and
// leave the tree untouched.
func TestPatchDeclinesDeadRootAndRevival(t *testing.T) {
	topo := topology.Generate(topology.DenseRandom, 120, 3)
	live := topology.NewLiveness(120)
	tree := BuildTree(topo, topology.Base, nil)

	// Dead root.
	live.Fail(topology.Base)
	before := cloneTree(tree)
	if _, ok := PatchTreeLive(topo, tree, nil, live, nil); ok {
		t.Fatalf("patch accepted a dead root")
	}
	requireTreesEqual(t, tree, before, "dead-root decline mutated the tree")
	live.Revive(topology.Base)

	// Revived stale node: fail an interior node, repair, revive it.
	var victim topology.NodeID = -1
	for _, id := range tree.DeepFirst() {
		if id != tree.Root && len(tree.Children[id]) > 0 {
			victim = id
		}
	}
	if victim < 0 {
		t.Fatalf("no interior victim")
	}
	live.Fail(victim)
	if _, ok := PatchTreeLive(topo, tree, nil, live, nil); !ok {
		t.Fatalf("interior-failure patch unexpectedly bailed")
	}
	if !tree.Stale(victim) {
		t.Fatalf("victim not recorded stale after patch")
	}
	live.Revive(victim)
	before = cloneTree(tree)
	if _, ok := PatchTreeLive(topo, tree, nil, live, nil); ok {
		t.Fatalf("patch accepted a revived stale node")
	}
	requireTreesEqual(t, tree, before, "revival decline mutated the tree")
}

// fullRepairReference replicates the pre-incremental RepairTrees: always a
// full RebuildTreeLive plus whole-column rebuilds, with the O(n) reference
// root scan. The charging-equality test runs it against a twin substrate.
func fullRepairReference(s *Substrate, net *sim.Network, live *topology.Liveness, failed []topology.NodeID) int {
	rebuilt := 0
	for ti, tree := range s.Trees {
		needs := !live.Alive(tree.Root)
		for _, id := range failed {
			if needs || len(tree.Children[id]) > 0 {
				needs = true
				break
			}
		}
		if !needs {
			continue
		}
		root := tree.Root
		if !live.Alive(root) {
			root = s.farthestAliveRoot(live)
			if root < 0 {
				continue
			}
		}
		nt := RebuildTreeLive(s.Topo, tree, root, net, live)
		s.Trees[ti] = nt
		for ci, spec := range s.specs {
			s.cols[ti][ci] = s.buildColumn(nt, spec)
		}
		if s.indexPos {
			s.regions[ti] = s.buildRegions(nt)
		}
		if net != nil {
			s.chargeTableShip(ti, nt, net)
		}
		rebuilt++
	}
	return rebuilt
}

// TestRepairChargesMatchFullRebuild drives twin substrates — one through
// the incremental RepairTrees, one through the full-rebuild reference —
// over identical seeded churn and same-seed networks, asserting the trees,
// every summary column, and the complete network metrics (bytes, messages,
// per-node loads, drops) stay identical. The traffic a repair charges is
// part of the paper's figures, so the patch may only save CPU, never
// change a single charged byte.
func TestRepairChargesMatchFullRebuild(t *testing.T) {
	n := 200
	topo := topology.Generate(topology.DenseRandom, n, 11)
	live := topology.NewLiveness(n)
	vals := make([]int32, n)
	for i := range vals {
		vals[i] = int32(i % 37)
	}
	specs := []IndexSpec{
		{Attr: "id", Kind: BloomSummary, Values: vals},
		{Attr: "band", Kind: HistogramSummary, Values: vals, Lo: 0, Hi: 37},
	}
	netA := sim.NewSharedNetwork(topo, 0.05, 99, live)
	netB := sim.NewSharedNetwork(topo, 0.05, 99, live)
	subA := NewSubstrate(topo, Options{NumTrees: 2, Indexes: specs, IndexPositions: true}, netA)
	subB := NewSubstrate(topo, Options{NumTrees: 2, Indexes: specs, IndexPositions: true}, netB)

	rng := xorshift(77)
	for epoch := 0; epoch < 8; epoch++ {
		var failed []topology.NodeID
		for k := 0; k < 1+rng.intn(2); k++ {
			id := topology.NodeID(1 + rng.intn(n-1))
			if live.Alive(id) {
				live.Fail(id)
				failed = append(failed, id)
			}
		}
		ra := subA.RepairTrees(netA, live, failed)
		rb := fullRepairReference(subB, netB, live, failed)
		if ra != rb {
			t.Fatalf("epoch %d: repaired %d trees, reference %d", epoch, ra, rb)
		}
		for ti := range subA.Trees {
			requireTreesEqual(t, subA.Trees[ti], subB.Trees[ti], fmt.Sprintf("epoch %d tree %d", epoch, ti))
		}
		if !reflect.DeepEqual(subA.cols, subB.cols) {
			t.Fatalf("epoch %d: summary columns diverged", epoch)
		}
		if !reflect.DeepEqual(subA.regions, subB.regions) {
			t.Fatalf("epoch %d: region columns diverged", epoch)
		}
		if !reflect.DeepEqual(netA.Metrics(), netB.Metrics()) {
			t.Fatalf("epoch %d: network metrics diverged:\n%+v\n%+v", epoch, *netA.Metrics(), *netB.Metrics())
		}
	}
	if subA.Stats().Patched == 0 {
		t.Fatalf("incremental path never engaged: %+v", subA.Stats())
	}
}

// restoreTree copies pristine's structure back into work between benchmark
// iterations. Sharing path backing with pristine is safe: a patch never
// overwrites old path bytes, it carves replacements from fresh slabs.
func restoreTree(work, pristine *Tree) {
	copy(work.Parent, pristine.Parent)
	copy(work.Depth, pristine.Depth)
	copy(work.staleSet, pristine.staleSet)
	copy(work.deepFirst, pristine.deepFirst)
	copy(work.rootPaths, pristine.rootPaths)
	for i := range pristine.Children {
		work.Children[i] = append(work.Children[i][:0], pristine.Children[i]...)
	}
}

// benchVictim picks the parent of the deepest node: an interior node whose
// death orphans a small subtree — the single-node failure shape of the
// churn-10k acceptance claim.
func benchVictim(t *Tree) topology.NodeID {
	return t.Parent[t.DeepFirst()[0]]
}

func benchmarkPatchRepair(b *testing.B, n int) {
	topo := topology.Generate(topology.DenseRandom, n, 1)
	live := topology.NewLiveness(n)
	pristine := BuildTree(topo, topology.Base, nil)
	work := cloneTree(pristine)
	live.Fail(benchVictim(pristine))
	scratch := NewPatchScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		restoreTree(work, pristine)
		b.StartTimer()
		if _, ok := PatchTreeLive(topo, work, nil, live, scratch); !ok {
			b.Fatal("patch bailed")
		}
	}
}

func benchmarkFullRebuild(b *testing.B, n int) {
	topo := topology.Generate(topology.DenseRandom, n, 1)
	live := topology.NewLiveness(n)
	pristine := BuildTree(topo, topology.Base, nil)
	live.Fail(benchVictim(pristine))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = RebuildTreeLive(topo, pristine, pristine.Root, nil, live)
	}
}

func BenchmarkPatchRepair1k(b *testing.B)   { benchmarkPatchRepair(b, 1000) }
func BenchmarkFullRebuild1k(b *testing.B)   { benchmarkFullRebuild(b, 1000) }
func BenchmarkPatchRepair10k(b *testing.B)  { benchmarkPatchRepair(b, 10000) }
func BenchmarkFullRebuild10k(b *testing.B)  { benchmarkFullRebuild(b, 10000) }
func BenchmarkPatchRepair100k(b *testing.B) { benchmarkPatchRepair(b, 100000) }
func BenchmarkFullRebuild100k(b *testing.B) { benchmarkFullRebuild(b, 100000) }
