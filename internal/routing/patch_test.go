package routing

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/summary"
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
		Depth:     append([]int32(nil), t.Depth...),
		childOff:  make([]int32, n+1),
		deepFirst: append([]topology.NodeID(nil), t.deepFirst...),
		staleSet:  append([]bool(nil), t.staleSet...),
	}
	copyChildren(c, t)
	return c
}

// copyChildren copies src's children slab and offsets into dst's.
func copyChildren(dst, src *Tree) {
	dst.childSlab = append(dst.childSlab[:0], src.childSlab...)
	copy(dst.childOff, src.childOff)
}

// requireTreesEqual asserts byte-identical derived structure: parents,
// depths, children, every node's walked root path, deepest-first order and
// stale sets.
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
		id := topology.NodeID(i)
		if !reflect.DeepEqual(pathOrEmpty(got.ChildrenOf(id)), pathOrEmpty(want.ChildrenOf(id))) {
			t.Fatalf("%s: children[%d] = %v, want %v", ctx, i, got.ChildrenOf(id), want.ChildrenOf(id))
		}
		if gp, wp := got.AppendPathToRoot(nil, id), want.AppendPathToRoot(nil, id); !reflect.DeepEqual(gp, wp) {
			t.Fatalf("%s: root path of %d = %v, want %v", ctx, i, gp, wp)
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

// churnStep applies one seeded churn step to live: it revives up to two of
// the dead nodes, then fails up to three alive ones with IDs from lo up
// (lo = 1 spares the base station). It returns the updated dead list, how
// many nodes it revived, and whether a failed node is interior in cur
// (RepairTrees repairs only then).
func churnStep(rng *xorshift, live *topology.Liveness, cur *Tree, dead []topology.NodeID, lo int) ([]topology.NodeID, int, bool) {
	n := len(cur.Parent)
	revived := 0
	for k := rng.intn(3); k > 0 && len(dead) > 0; k-- {
		i := rng.intn(len(dead))
		live.Revive(dead[i])
		dead[i] = dead[len(dead)-1]
		dead = dead[:len(dead)-1]
		revived++
	}
	interior := false
	for k := rng.intn(4); k > 0; k-- {
		id := topology.NodeID(lo + rng.intn(n-lo))
		if !live.Alive(id) {
			continue
		}
		live.Fail(id)
		dead = append(dead, id)
		if len(cur.ChildrenOf(id)) > 0 {
			interior = true
		}
	}
	return dead, revived, interior
}

// referenceRebuild is the full rebuild a repair must equal, except that a
// dead root moves to the lowest alive node rather than the one deepest in the
// base tree (any alive root exercises re-rooting).
func referenceRebuild(topo *topology.Topology, ref *Tree, live *topology.Liveness) *Tree {
	root := ref.Root
	for id := 0; !live.Alive(root) && id < topo.N(); id++ {
		root = topology.NodeID(id)
	}
	return RebuildTreeLive(topo, ref, root, nil, live)
}

// patchCounts reports, before a patch, how many nodes it must patch back in
// (stale nodes alive again) and how many fresh failures it must route around
// (dead nodes the tree still counts reachable).
func patchCounts(cur *Tree, live *topology.Liveness) (revived, seeds int) {
	for i := range cur.Parent {
		id := topology.NodeID(i)
		if cur.Stale(id) && live.Alive(id) {
			revived++
		} else if !cur.Stale(id) && !live.Alive(id) {
			seeds++
		}
	}
	return revived, seeds
}

// TestPatchMatchesRebuildRandom is the differential oracle for the in-place
// repair: across 120 seeded churn histories on mixed topologies, with
// failures and revivals interleaved, every PatchTreeLive must leave the tree
// byte-identical to what a full RebuildTreeLive produces from the same state
// — parents, depths, children, root paths, deepest-first order and
// stale-chain semantics. Failed leaves are left unrepaired (exactly the
// RepairTrees policy) so patches must also absorb failures accumulated from
// earlier epochs that never triggered a repair; an epoch that only revives
// nodes repairs too. At least 100 patches must have revived nodes to patch
// back in, and some must see fresh failures in the same call. Every fourth
// history also kills the root, by churn and on purpose every third epoch;
// the patch then floods from the reference's new root, as RepairTrees does,
// and must still equal the rebuild. At least 20 patches must re-root, and a
// dead former root (a stale chain end) must come back in some later patch.
func TestPatchMatchesRebuildRandom(t *testing.T) {
	kinds := []topology.Kind{topology.DenseRandom, topology.Grid, topology.SparseRandom}
	patched, revivals, mixed, rerooted, rootRevivals := 0, 0, 0, 0, 0
	for seed := uint64(1); seed <= 120; seed++ {
		n := 80 + int(seed%5)*40
		topo := topology.Generate(kinds[int(seed)%len(kinds)], n, seed)
		live := topology.NewLiveness(n)
		ref := BuildTree(topo, topology.Base, nil)
		cur := cloneTree(ref)
		scratch := NewPatchScratch()
		rng := xorshift(seed*2654435761 + 1)
		var dead, former []topology.NodeID
		for epoch := 0; epoch < 10; epoch++ {
			var revived int
			var interior bool
			dead, revived, interior = churnStep(&rng, live, cur, dead, min(1, int(seed%4)))
			if seed%4 == 0 && epoch%3 == 1 && live.Alive(cur.Root) {
				live.Fail(cur.Root)
				dead = append(dead, cur.Root)
				interior = true
			}
			if !interior && revived == 0 {
				continue // RepairTrees would skip: failed leaves only
			}
			want := referenceRebuild(topo, ref, live)
			ref = want
			for _, r := range former {
				if r != want.Root && cur.Stale(r) && live.Alive(r) {
					rootRevivals++
				}
			}
			if want.Root != cur.Root {
				rerooted++
				former = append(former, cur.Root)
				cur.Root = want.Root
			}
			back, seeds := patchCounts(cur, live)
			PatchTreeLive(topo, cur, nil, live, scratch)
			patched++
			if back > 0 {
				revivals++
				if seeds > 0 {
					mixed++
				}
			}
			requireTreesEqual(t, cur, want, fmt.Sprintf("seed %d epoch %d (revived %d, failed %d)", seed, epoch, back, seeds))
		}
	}
	t.Logf("%d patched (%d with revivals, %d with failures too), %d re-rooted, %d former roots revived", patched, revivals, mixed, rerooted, rootRevivals)
	if revivals < 100 {
		t.Fatalf("only %d patches had revived nodes (want >= 100; %d patched)", revivals, patched)
	}
	if mixed < 20 {
		t.Fatalf("only %d patches saw failures and revivals together (want >= 20)", mixed)
	}
	if rerooted < 20 {
		t.Fatalf("only %d patches re-rooted the tree (want >= 20)", rerooted)
	}
	if rootRevivals == 0 {
		t.Fatalf("no dead former root came back in a later patch")
	}
}

// TestPatchDeadRootAndRevival pins the two ends of a tree's life a patch
// can see: with the root dead the flood reaches nothing, so every other node
// keeps its stale edge — exactly a rebuild at the same root; reviving the
// root, or a stale interior node, patches it back in, byte-identical to a
// full rebuild.
func TestPatchDeadRootAndRevival(t *testing.T) {
	topo := topology.Generate(topology.DenseRandom, 120, 3)
	live := topology.NewLiveness(120)
	tree := BuildTree(topo, topology.Base, nil)
	step := func(ctx string) {
		t.Helper()
		want := RebuildTreeLive(topo, tree, tree.Root, nil, live)
		PatchTreeLive(topo, tree, nil, live, nil)
		requireTreesEqual(t, tree, want, ctx)
	}

	live.Fail(topology.Base)
	step("dead root")
	for i := 1; i < 120; i++ {
		if !tree.Stale(topology.NodeID(i)) {
			t.Fatalf("node %d not stale under a dead root", i)
		}
	}
	live.Revive(topology.Base)
	step("revived root")

	// Revived stale node: fail an interior node, repair, revive it.
	var victim topology.NodeID = -1
	for _, id := range tree.DeepFirst() {
		if id != tree.Root && len(tree.ChildrenOf(id)) > 0 {
			victim = id
		}
	}
	if victim < 0 {
		t.Fatalf("no interior victim")
	}
	live.Fail(victim)
	step("interior failure")
	if !tree.Stale(victim) {
		t.Fatalf("victim not recorded stale after patch")
	}
	live.Revive(victim)
	if back, seeds := patchCounts(tree, live); back != 1 || seeds != 0 {
		t.Fatalf("revival patch sees %d revived, %d failed; want 1, 0", back, seeds)
	}
	step("revival patch")
	if tree.Stale(victim) {
		t.Fatalf("revived victim still stale")
	}
}

// TestPatchTreeLiveAllocs: on a warm scratch, patching an interior failure
// in a 1k-node tree allocates nothing (the children CSR is carved again
// into its slab) and re-parents the failed node's children.
func TestPatchTreeLiveAllocs(t *testing.T) {
	n := 1000
	topo := topology.Generate(topology.DenseRandom, n, 1)
	live := topology.NewLiveness(n)
	pristine := BuildTree(topo, topology.Base, nil)
	work := cloneTree(pristine)
	live.Fail(benchVictim(pristine))
	scratch := NewPatchScratch()
	var dirty []topology.NodeID
	allocs := testing.AllocsPerRun(20, func() {
		restoreTree(work, pristine)
		dirty = PatchTreeLive(topo, work, nil, live, scratch)
	})
	if len(dirty) == 0 || slices.Equal(work.Parent, pristine.Parent) {
		t.Fatalf("the interior failure moved nothing: %d dirty, or no parent moved", len(dirty))
	}
	if allocs != 0 {
		t.Fatalf("PatchTreeLive allocates %.1f objects per call, want 0", allocs)
	}
}

// FuzzPatchMatchesRebuild drives PatchTreeLive through a fuzzed churn
// history: a topology (kind, size, seed) and a schedule whose every byte
// toggles one node's liveness, with a repair after each byte whose top bit
// is set and after the last one. Every patch must equal RebuildTreeLive
// from the same state; a tree whose root died is patched toward the
// reference's new root, as RepairTrees re-roots it.
func FuzzPatchMatchesRebuild(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(60), []byte{0x83, 0x05, 0x85, 0x83})
	f.Add(uint64(7), uint8(1), uint8(40), []byte{0x11, 0x12, 0x93, 0x11, 0x92, 0x13})
	f.Add(uint64(3), uint8(2), uint8(87), []byte{0x01, 0x02, 0x03, 0x84, 0x01, 0x82, 0x03, 0x04, 0x85})
	// Kill the root twice, revive the first one, then kill the second's
	// successor so the root moves back to the revived former root.
	f.Add(uint64(5), uint8(0), uint8(50), []byte{0x80, 0x01, 0x82, 0x80, 0x03, 0x81})
	kinds := []topology.Kind{topology.DenseRandom, topology.Grid, topology.SparseRandom}
	f.Fuzz(func(t *testing.T, seed uint64, kind, size uint8, schedule []byte) {
		if len(schedule) > 64 {
			schedule = schedule[:64]
		}
		n := 40 + int(size)%88 // every node addressable by 7 bits
		topo := topology.Generate(kinds[int(kind)%len(kinds)], n, seed)
		live := topology.NewLiveness(n)
		ref := BuildTree(topo, topology.Base, nil)
		cur := cloneTree(ref)
		scratch := NewPatchScratch()
		for i, b := range schedule {
			id := topology.NodeID(int(b&0x7F) % n)
			if live.Alive(id) {
				live.Fail(id)
			} else {
				live.Revive(id)
			}
			if b&0x80 == 0 && i < len(schedule)-1 {
				continue
			}
			want := referenceRebuild(topo, ref, live)
			cur.Root = want.Root
			PatchTreeLive(topo, cur, nil, live, scratch)
			requireTreesEqual(t, cur, want, fmt.Sprintf("step %d", i))
			ref = want
		}
	})
}

// fullRepairReference replicates the pre-incremental RepairTrees: always a
// full RebuildTreeLive plus its own whole-column rebuilds into fresh rows
// and table ship, with the O(n) reference root scan, so the production fold
// and ship are checked rather than shared. The charging-equality test runs
// it against a twin substrate.
func fullRepairReference(s *Substrate, net *sim.Network, live *topology.Liveness, failed []topology.NodeID) int {
	rebuilt := 0
	for ti, tree := range s.Trees {
		needs := !live.Alive(tree.Root)
		for _, id := range failed {
			if needs || len(tree.ChildrenOf(id)) > 0 {
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
		n := s.Topo.N()
		for ci, spec := range s.specs {
			col := newColumn(spec, n)
			for _, id := range nt.DeepFirst() {
				col.Add(int(id), spec.Value(id))
				for _, c := range nt.ChildrenOf(id) {
					col.Merge(int(id), int(c))
				}
			}
			s.cols[ti][ci] = col
		}
		if s.regions != nil {
			reg := make([]*summary.Region, n)
			for _, id := range nt.DeepFirst() {
				reg[id] = summary.NewRegion()
				reg[id].AddPoint(s.Topo.Pos(id))
				for _, c := range nt.ChildrenOf(id) {
					reg[id].Merge(reg[c])
				}
			}
			s.regions[ti] = reg
		}
		for i, p := range nt.Parent {
			if id := topology.NodeID(i); p >= 0 && net != nil {
				size := 0
				for _, col := range s.cols[ti] {
					size += col.SizeBytes()
				}
				if s.regions != nil {
					size += s.regions[ti][id].SizeBytes()
				}
				net.Transfer(Path{id, p}, size, sim.Control, sim.Flow{})
			}
		}
		rebuilt++
	}
	return rebuilt
}

// TestRepairChargesMatchFullRebuild drives twin substrates — one through
// the incremental RepairTrees, one through the full-rebuild reference —
// over identical seeded churn and same-seed networks, asserting the trees,
// every summary column, and the complete network metrics (bytes, messages,
// per-node loads, drops) stay identical. Tree 1's root is killed on purpose,
// so a re-rooting patch is part of the identity. The traffic a repair
// charges is part of the paper's figures, so the patch may only save CPU,
// never change a single charged byte.
func TestRepairChargesMatchFullRebuild(t *testing.T) {
	testRepairChargesMatchFullRebuild(t, false)
}

// TestRepairChargesMatchFullRebuildWithRevivals is the fail+revive twin:
// dead nodes come back between repairs, so the patches plan both halves.
func TestRepairChargesMatchFullRebuildWithRevivals(t *testing.T) {
	testRepairChargesMatchFullRebuild(t, true)
}

func testRepairChargesMatchFullRebuild(t *testing.T, revive bool) {
	n := 200
	topo := topology.Generate(topology.DenseRandom, n, 11)
	live := topology.NewLiveness(n)
	vals := make([]int32, n)
	for i := range vals {
		vals[i] = int32(i % 37)
	}
	specs := []IndexSpec{
		{Attr: "id", Kind: BloomSummary, Value: valuesOf(vals)},
		{Attr: "band", Kind: HistogramSummary, Value: valuesOf(vals), Lo: 0, Hi: 37},
	}
	netA := sim.NewSharedNetwork(topo, 0.05, 99, live)
	netB := sim.NewSharedNetwork(topo, 0.05, 99, live)
	subA := NewSubstrate(topo, Options{NumTrees: 2, Indexes: specs, IndexPositions: true}, netA)
	subB := NewSubstrate(topo, Options{NumTrees: 2, Indexes: specs, IndexPositions: true}, netB)

	rng := xorshift(77)
	epochs := 8
	if revive {
		epochs = 24
	}
	var dead []topology.NodeID
	revivedPatches := 0
	for epoch := 0; epoch < epochs; epoch++ {
		revived := 0
		if revive {
			for k := rng.intn(3); k > 0 && len(dead) > 0; k-- {
				i := rng.intn(len(dead))
				live.Revive(dead[i])
				dead[i] = dead[len(dead)-1]
				dead = dead[:len(dead)-1]
				revived++
			}
		}
		var failed []topology.NodeID
		if r := subA.Trees[1].Root; epoch%6 == 2 && live.Alive(r) {
			live.Fail(r)
			failed = append(failed, r)
			dead = append(dead, r)
		}
		for k := 0; k < 1+rng.intn(2); k++ {
			id := topology.NodeID(1 + rng.intn(n-1))
			if live.Alive(id) {
				live.Fail(id)
				failed = append(failed, id)
				dead = append(dead, id)
			}
		}
		before := subA.Stats().Patched
		ra := subA.RepairTrees(netA, live, failed)
		rb := fullRepairReference(subB, netB, live, failed)
		if ra != rb {
			t.Fatalf("epoch %d: repaired %d trees, reference %d", epoch, ra, rb)
		}
		if revived > 0 && subA.Stats().Patched > before {
			revivedPatches++
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
	if subA.Stats().Patched == 0 || subA.Stats().Rebuilt == 0 {
		t.Fatalf("a repair kind never engaged: %+v", subA.Stats())
	}
	if revive && revivedPatches == 0 {
		t.Fatalf("no patched repair followed a revival: %+v", subA.Stats())
	}
}

// restoreTree copies pristine's structure back into work between benchmark
// iterations.
func restoreTree(work, pristine *Tree) {
	work.Root = pristine.Root
	copy(work.Parent, pristine.Parent)
	copy(work.Depth, pristine.Depth)
	copy(work.staleSet, pristine.staleSet)
	copy(work.deepFirst, pristine.deepFirst)
	copyChildren(work, pristine)
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
		PatchTreeLive(topo, work, nil, live, scratch)
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

// benchmarkReroot kills the base tree's root and repairs the tree at the
// node RepairTrees would pick, the deepest one: by the patch, as RepairTrees
// does, and by a full rebuild at the same new root.
func benchmarkReroot(b *testing.B, n int) {
	topo := topology.Generate(topology.DenseRandom, n, 1)
	live := topology.NewLiveness(n)
	pristine := BuildTree(topo, topology.Base, nil)
	live.Fail(pristine.Root)
	root := pristine.DeepFirst()[0]
	b.Run("patch", func(b *testing.B) {
		work := cloneTree(pristine)
		scratch := NewPatchScratch()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			restoreTree(work, pristine)
			work.Root = root
			b.StartTimer()
			PatchTreeLive(topo, work, nil, live, scratch)
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = RebuildTreeLive(topo, pristine, root, nil, live)
		}
	})
}

func BenchmarkReroot1k(b *testing.B)  { benchmarkReroot(b, 1000) }
func BenchmarkReroot10k(b *testing.B) { benchmarkReroot(b, 10000) }

// hopFinder is a fault plan whose link ids are ignored: every hop's state
// is found by its endpoints, the reference for sending by id.
type hopFinder struct{ *faults.Plan }

func (f hopFinder) LinkAt(from, to topology.NodeID, _ int32) sim.LinkState { return f.Link(from, to) }

// TestTreeUpLinksFollowPatches: a tree built over a network with a fault
// plan keeps its nodes' up-link ids through twenty repairs that patch,
// revive and re-root: UpLink[n] is HopLink(n, Parent[n]) for every node with
// a parent and -1 for the others, though the repairs charge no network.
// Table shipping sends by these ids, and charges exactly what finding each
// hop charges. Without a plan the column is nil.
func TestTreeUpLinksFollowPatches(t *testing.T) {
	n := 200
	topo := topology.Generate(topology.ModerateRandom, n, 3)
	if s := NewSubstrate(topo, Options{NumTrees: 2}, sim.NewNetwork(topo, 0, 1)); s.Trees[0].UpLink != nil || s.Trees[1].UpLink != nil {
		t.Fatal("trees built without a fault plan keep up-link ids")
	}
	plan := faults.NewPlan(topo, faults.Config{Seed: 2, LinkLoss: 0.3, DupProb: 0.1})
	live := topology.NewLiveness(n)
	netA, netB := sim.NewSharedNetwork(topo, 0.05, 9, live), sim.NewSharedNetwork(topo, 0.05, 9, live)
	netA.SetFaults(plan)
	netB.SetFaults(hopFinder{plan})
	subA := NewSubstrate(topo, Options{NumTrees: 3}, netA)
	subB := NewSubstrate(topo, Options{NumTrees: 3}, netB)
	check := func(ctx string) {
		t.Helper()
		for ti, tree := range subA.Trees {
			for v, p := range tree.Parent {
				want := int32(-1)
				if p >= 0 {
					want = plan.HopLink(topology.NodeID(v), p)
				}
				if tree.UpLink[v] != want {
					t.Fatalf("%s: tree %d UpLink[%d] = %d, want %d (parent %d)", ctx, ti, v, tree.UpLink[v], want, p)
				}
			}
		}
		if !reflect.DeepEqual(netA.Metrics(), netB.Metrics()) {
			t.Fatalf("%s: sending by up-link id charged %d bytes, finding each hop %d", ctx, netA.Metrics().TotalBytes, netB.Metrics().TotalBytes)
		}
	}
	check("built")
	rng := xorshift(5)
	var dead []topology.NodeID
	for round := 0; round < 20; round++ {
		for k := rng.intn(3); k > 0 && len(dead) > 0; k-- {
			i := rng.intn(len(dead))
			live.Revive(dead[i])
			dead[i] = dead[len(dead)-1]
			dead = dead[:len(dead)-1]
		}
		var failed []topology.NodeID
		if r := subA.Trees[1].Root; round == 10 {
			failed = append(failed, r)
		}
		for k := 0; k < 1+rng.intn(3); k++ {
			failed = append(failed, topology.NodeID(1+rng.intn(n-1)))
		}
		kept := failed[:0]
		for _, id := range failed {
			if live.Alive(id) {
				live.Fail(id)
				kept = append(kept, id)
				dead = append(dead, id)
			}
		}
		subA.RepairTrees(nil, live, kept)
		check(fmt.Sprintf("repair %d", round))
		subA.ship(0, subA.Trees[0], 0, false, netA)
		subB.RepairTrees(nil, live, kept)
		subB.ship(0, subB.Trees[0], 0, false, netB)
		check(fmt.Sprintf("shipping after repair %d", round))
	}
	if st := subA.Stats(); st.Patched == 0 || st.Rebuilt == 0 {
		t.Fatalf("a repair kind never engaged: %+v", st)
	}
}
