package routing

import (
	"repro/internal/sim"
	"repro/internal/topology"
)

// In-place tree repair (the deployment-scale complement to section 7's path
// repair). The paper repairs a routing tree by flooding the construction
// beacons again (section 2.2, Appendix C). PatchTreeLive runs that flood —
// one BFSLive from the root over the alive nodes — into reusable buffers,
// gives every node the flood missed its stale parent and merged depth
// exactly as RebuildTreeLive does, and diffs the result against the tree's
// parents. Only what moved is written back: the re-parented nodes' parent
// edges, the children carved again into their slab, and the summary chains
// above them. The flood, the diff and the carve are O(n + edges) per repair
// and allocate nothing on a warm scratch; what a patch saves over a rebuild
// is re-creating the derived structure — the tree's columns and every
// summary column.

// PatchScratch holds PatchTreeLive's reusable buffers, so a repair allocates
// nothing. One scratch serves any number of trees
// of one deployment; Substrate owns one and reuses it across every repair
// epoch.
type PatchScratch struct {
	dist    []int             // new depth per node
	par     []topology.NodeID // new parent per node
	queue   []topology.NodeID // the flood's BFS queue
	mOld    []bool            // summary-dirty via an old ancestor chain
	mNew    []bool            // summary-dirty via a new ancestor chain
	buckets []int             // deepest-first counting-sort offsets
	stack   []topology.NodeID // mergedDepths' climb
	changed []topology.NodeID // nodes whose parent edge moved
	dirty   []topology.NodeID // the returned summary-dirty nodes
}

// NewPatchScratch returns an empty scratch; it sizes itself to the first
// tree it patches.
func NewPatchScratch() *PatchScratch { return &PatchScratch{} }

func (s *PatchScratch) ensure(n int) {
	if len(s.dist) == n {
		return
	}
	s.dist = make([]int, n)
	s.par = make([]topology.NodeID, n)
	s.queue = make([]topology.NodeID, 0, n)
	s.mOld = make([]bool, n)
	s.mNew = make([]bool, n)
}

// PatchTreeLive repairs t in place around the currently dead and revived
// nodes, leaving exactly the tree RebuildTreeLive(topo, t, t.Root, net, live)
// would build — same parents, depths, children, deepest-first order, stale
// set and charged beacons. A re-parented node's UpLink entry, when the tree
// keeps the column, is looked up again with the injector it was built
// under. t.Root may have moved since the last repair: the flood then runs
// from the new root, which drops its old parent edge, and the old root
// becomes a stale chain end, as in a rebuild at the new root (RepairTrees
// re-roots a tree whose root died this way). A dead root reaches nothing,
// so every other node keeps its stale edge. It returns the nodes whose
// subtree summaries must be recomputed, in (new depth descending, id
// ascending) order — the bottom-up order a column rebuild needs. The slice
// aliases the scratch and is valid until the next call with the same
// scratch.
func PatchTreeLive(topo *topology.Topology, t *Tree, net *sim.Network, live *topology.Liveness, s *PatchScratch) []topology.NodeID {
	n := topo.N()
	if s == nil {
		s = NewPatchScratch()
	}
	s.ensure(n)
	s.flood(topo, t, live)
	s.diff(t)
	s.planDirty(t)

	// Apply. The depth column, stale set and deepest-first order were
	// rewritten whole by the flood; the moved parent edges remain, with
	// their up-link ids, and the children are carved afresh from the new
	// parents into their slab and offsets.
	for _, v := range s.changed {
		t.Parent[v] = s.par[v]
		if t.UpLink != nil {
			t.UpLink[v] = t.upLink(v)
		}
	}
	t.carveChildren()
	if net != nil {
		beacon := 2 * sim.ValueBytes // root id + depth, as assembleTree charges
		for i := 0; i < n; i++ {
			net.Broadcast(topology.NodeID(i), beacon, sim.Control)
		}
	}
	s.dirty = s.dirty[:0]
	for _, v := range t.deepFirst {
		if s.mOld[v] || s.mNew[v] {
			s.dirty = append(s.dirty, v)
			s.mOld[v], s.mNew[v] = false, false
		}
	}
	return s.dirty
}

// flood computes the rebuilt tree's parent and depth vectors into the
// scratch, as RebuildTreeLive does: BFS over the alive nodes from the root,
// then every unreached node keeps its stale parent and takes its merged
// depth. It rewrites t's stale set, depth column and deepest-first order,
// which the diff does not read.
//
//aspen:allocfree
func (s *PatchScratch) flood(topo *topology.Topology, t *Tree, live *topology.Liveness) {
	s.queue = topo.BFSLiveInto(t.Root, live, s.dist, s.par, s.queue)
	for i, d := range s.dist {
		t.staleSet[i] = d < 0 && topology.NodeID(i) != t.Root
		if d < 0 {
			s.par[i] = t.Parent[i]
		}
	}
	s.stack = mergedDepths(s.dist, s.par, s.stack)
	for i, d := range s.dist {
		t.Depth[i] = int32(d)
	}
	s.buckets = sortDeepFirst(t.deepFirst, s.dist, s.buckets)
}

// diff collects the nodes whose parent edge moved, in node order.
//
//aspen:allocfree
func (s *PatchScratch) diff(t *Tree) {
	s.changed = s.changed[:0]
	for v, p := range s.par {
		if p != t.Parent[v] {
			s.changed = append(s.changed, topology.NodeID(v))
		}
	}
}

// planDirty marks every node whose subtree summary can change: the old and
// new ancestor chains of each reparented node. Chains stop at an
// already-marked node of the same kind, so total work is linear in the
// marked set. Runs before any parent edge moves: old chains walk t.Parent,
// new chains the scratch's parents.
func (s *PatchScratch) planDirty(t *Tree) {
	for _, v := range s.changed {
		for u := t.Parent[v]; u >= 0 && !s.mOld[u]; u = t.Parent[u] {
			s.mOld[u] = true
		}
		for u := s.par[v]; u >= 0 && !s.mNew[u]; u = s.par[u] {
			s.mNew[u] = true
		}
	}
}
