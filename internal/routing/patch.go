package routing

import (
	"cmp"
	"slices"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Incremental tree maintenance (the deployment-scale complement to section
// 7's path repair). BFSLive dequeues each depth level in lexicographic
// root-path order, so a node's parent is its lexicographically-least alive
// neighbour one level up: every node carries a key, (depth, root downpath),
// and the tree is the argmin of those keys. Deleting nodes can only raise
// keys, and adding nodes can only lower them (the two halves of incremental
// shortest paths, Ramalingam & Reps, J. Algorithms 1996). Both halves confine
// a repair to the nodes whose key actually moves:
//
//   - deletion: only the orphaned region — the union of the dead nodes' old
//     subtrees — can change. Every candidate's key only worsens, so no
//     parent outside the region switches;
//   - insertion: a node's key drops only if its new parent's key dropped, so
//     the change spreads level by level outward from the revived nodes, and
//     a node whose best parent keeps its key stops the spread.
//
// PatchTreeLive plans both: first the deletion half with every revived stale
// node treated as still dead, then the insertion half on top of that plan.
// It applies the combined plan in place — child CSR splices, one path slab,
// a deepest-first re-merge and the dirty summary chains — and falls back to a
// full RebuildTreeLive only when the root is dead or a plan outgrows its
// budget. On the churn-1k benchmark workload (seed 3, 300 steady epochs),
// 191 of 193 tree repairs patch in place; the two rebuilds are budget
// declines, one in each half. Deletion-only patching rebuilds 159 of the
// same 193, 152 of them because a stale node was alive again.

// Per-node planning states during a patch.
const (
	psOut     uint8 = iota // outside the orphaned region
	psWait                 // alive region node, not yet settled
	psSettled              // alive region node with final new parent + depth
	psDead                 // dead region node, depth not yet finalized
	psCut                  // region node left unreachable; depth finalized along its stale chain
)

// Per-node insertion-pass marks.
const (
	imNone    uint8 = iota // not examined by the insertion pass
	imSame                 // examined: its key survives the revivals
	imRekeyed              // its key dropped; parent, depth and path re-planned
)

// Decline names why PatchTreeLive refused a repair; the caller rebuilds.
type Decline uint8

const (
	// DeclineDeadRoot: the root died, and re-rooting moves every path.
	DeclineDeadRoot Decline = iota
	// DeclineRevival: patching revived nodes back in outgrew the region or
	// path budget.
	DeclineRevival
	// DeclineRegion: the orphaned region outgrew the region budget.
	DeclineRegion
	// DeclineSettle: re-deriving the orphaned region outgrew the path budget.
	DeclineSettle
	// NumDeclines is the number of decline reasons.
	NumDeclines
)

var declineNames = [NumDeclines]string{"dead_root", "revival", "region", "settle"}

// String returns the reason's metric-name label.
func (d Decline) String() string { return declineNames[d] }

// PatchScratch holds the reusable planning state for PatchTreeLive so
// repeated repairs allocate nothing beyond each tree's replacement path
// slab. One scratch serves any number of trees of the same deployment;
// Substrate owns one and reuses it across every repair epoch.
type PatchScratch struct {
	n      int
	state  []uint8
	mark   []uint8           // insertion-pass mark per node
	queued []int32           // insertion-pass queue level + 1 per node (0 = not queued)
	keep   []bool            // region node whose root path bytes survive the patch
	dist   []int             // new depth per region node (-1 until known)
	par    []topology.NodeID // working parent per region node
	mOld   []bool            // summary-dirty via an old ancestor chain
	mNew   []bool            // summary-dirty via a new ancestor chain

	// maxRegion and maxPath are the current patch's budgets: re-planned
	// nodes, and root-path entries the settled nodes will carve (carved
	// counts those so far).
	maxRegion, maxPath, carved int

	buckets   [][]topology.NodeID // level-indexed settle frontier
	region    []topology.NodeID
	seeds     []topology.NodeID
	revived   []topology.NodeID // stale nodes alive again
	examined  []topology.NodeID // nodes the insertion pass queued
	rekeyed   []topology.NodeID // nodes whose key the insertion pass lowered
	stack     []topology.NodeID
	changed   []topology.NodeID
	ins       []topology.NodeID // region nodes in (new depth desc, id asc) order
	win       []topology.NodeID // deepest-first window being re-merged
	dirtyList []topology.NodeID
	byDepth   []topology.NodeID // region nodes in new-depth-ascending order
}

// NewPatchScratch returns an empty scratch; it sizes itself to the first
// tree it patches.
func NewPatchScratch() *PatchScratch { return &PatchScratch{} }

func (s *PatchScratch) ensure(n int) {
	if s.n >= n {
		return
	}
	s.n = n
	s.state = make([]uint8, n)
	s.mark = make([]uint8, n)
	s.queued = make([]int32, n)
	s.keep = make([]bool, n)
	s.dist = make([]int, n)
	s.par = make([]topology.NodeID, n)
	s.mOld = make([]bool, n)
	s.mNew = make([]bool, n)
}

// cleanup restores the scratch to all-zero using the touched-node lists, so
// the next patch starts clean without O(n) clearing.
func (s *PatchScratch) cleanup() {
	for _, v := range s.region {
		s.state[v] = psOut
		s.dist[v] = 0
		s.par[v] = 0
		s.keep[v] = false
	}
	for _, v := range s.examined {
		s.mark[v] = imNone
		s.queued[v] = 0
	}
	for _, v := range s.dirtyList {
		s.mOld[v] = false
		s.mNew[v] = false
	}
	for i := range s.buckets {
		s.buckets[i] = s.buckets[i][:0]
	}
	s.carved = 0
	s.region = s.region[:0]
	s.seeds = s.seeds[:0]
	s.revived = s.revived[:0]
	s.examined = s.examined[:0]
	s.rekeyed = s.rekeyed[:0]
	s.stack = s.stack[:0]
	s.changed = s.changed[:0]
	s.ins = s.ins[:0]
	s.win = s.win[:0]
	s.byDepth = s.byDepth[:0]
	// dirtyList is the caller-visible result; leave its contents readable
	// until the next call truncates it.
	s.dirtyList = s.dirtyList[:0]
}

func (s *PatchScratch) push(level int, v topology.NodeID) {
	for len(s.buckets) <= level {
		s.buckets = append(s.buckets, nil)
	}
	s.buckets[level] = append(s.buckets[level], v)
}

// PatchResult reports what an in-place repair touched.
type PatchResult struct {
	Seeds   int // dead anchors the orphaned region grew from
	Revived int // stale nodes alive again
	Region  int // nodes whose parent, depth or root path was re-planned
	Changed int // nodes whose parent edge moved
	// Dirty lists the nodes whose subtree summaries must be recomputed, in
	// (new depth descending, id ascending) order — the bottom-up order a
	// column rebuild needs. The slice aliases the scratch and is valid
	// until the next PatchTreeLive call with the same scratch.
	Dirty []topology.NodeID
	// Declined says why the patch was refused; meaningful only when
	// PatchTreeLive reports false.
	Declined Decline
}

// PatchTreeLive repairs t in place around the currently-dead and revived
// nodes, producing exactly the tree RebuildTreeLive(topo, t, t.Root, net,
// live) would build — same parents, depths, root paths, deepest-first
// order, stale-chain semantics and charged beacons — while touching only
// the nodes whose key moves. It returns ok=false (and leaves t untouched,
// nothing charged) when the root is dead (re-rooting changes every path) or
// a plan exceeds the patch budget; res.Declined says which. Callers fall
// back to RebuildTreeLive.
func PatchTreeLive(topo *topology.Topology, t *Tree, net *sim.Network, live *topology.Liveness, s *PatchScratch) (PatchResult, bool) {
	n := topo.N()
	if s == nil {
		s = NewPatchScratch()
	}
	s.ensure(n)
	if !live.Alive(t.Root) {
		return PatchResult{Declined: DeclineDeadRoot}, false
	}
	// Seeds are every currently-dead node the tree still believes reachable
	// (leaf failures leave no other trace); revived nodes are every stale
	// node alive again, including alive nodes a cut left stranded.
	for i := 0; i < n; i++ {
		id := topology.NodeID(i)
		if t.staleSet[i] {
			if live.Alive(id) {
				s.revived = append(s.revived, id)
			}
		} else if !live.Alive(id) {
			s.seeds = append(s.seeds, id)
		}
	}
	// A patch is worth it while it re-plans at most half the tree and
	// settles no more root-path entries than a rebuild carves.
	s.maxRegion = max(64, n/2)
	s.maxPath = t.pathLen
	if why, ok := s.plan(topo, t, live); !ok {
		s.cleanup()
		return PatchResult{Declined: why}, false
	}
	for _, v := range s.region {
		if s.par[v] != t.Parent[v] {
			s.changed = append(s.changed, v)
		}
	}
	s.planDirty(t)
	s.planKeep(t)

	// Plan complete — apply. From here on nothing can fail, so the tree is
	// never left half-patched.
	s.patchDeepFirst(t)
	for _, v := range s.changed {
		// A revived chain end (such as a dead former root) has no parent.
		if old := t.Parent[v]; old >= 0 {
			t.Children[old] = removeChild(t.Children[old], v)
		}
	}
	for _, v := range s.changed {
		np := s.par[v]
		t.Children[np] = insertChild(t.Children[np], v)
		t.Parent[v] = np
	}
	for _, v := range s.region {
		t.Depth[v] = s.dist[v]
	}
	s.patchPaths(t)
	for _, v := range s.region {
		t.staleSet[v] = s.state[v] != psSettled
	}
	if net != nil {
		beacon := 2 * sim.ValueBytes // root id + depth, as assembleTree charges
		for i := 0; i < n; i++ {
			net.Broadcast(topology.NodeID(i), beacon, sim.Control)
		}
	}
	res := PatchResult{
		Seeds:   len(s.seeds),
		Revived: len(s.revived),
		Region:  len(s.region),
		Changed: len(s.changed),
		Dirty:   s.dirtyList,
	}
	// Sort the dirty set bottom-up over the NEW depths (applied above).
	slices.SortFunc(res.Dirty, func(a, b topology.NodeID) int {
		if c := cmp.Compare(t.Depth[b], t.Depth[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	s.partialCleanup()
	return res, true
}

// plan re-derives every node whose key moves without touching t: the
// deletion half (orphaned region, settle, cut depths) with revived nodes
// still counted dead, then the insertion half over that plan.
func (s *PatchScratch) plan(topo *topology.Topology, t *Tree, live *topology.Liveness) (Decline, bool) {
	// Orphaned region R: the old subtrees (stale children included) of
	// every seed. Only R can change — see the package comment.
	for _, sd := range s.seeds {
		if s.state[sd] != psOut {
			continue // nested under an earlier seed
		}
		s.stack = append(s.stack[:0], sd)
		for len(s.stack) > 0 {
			v := s.stack[len(s.stack)-1]
			s.stack = s.stack[:len(s.stack)-1]
			if s.state[v] != psOut {
				continue
			}
			if live.Alive(v) && !t.staleSet[v] {
				s.state[v] = psWait
			} else {
				s.state[v] = psDead // dead, or revived: dead until the insertion half
			}
			s.dist[v] = -1
			s.par[v] = t.Parent[v]
			s.region = append(s.region, v)
			if len(s.region) > s.maxRegion {
				return DeclineRegion, false
			}
			s.stack = append(s.stack, t.Children[v]...)
		}
	}
	if !s.settle(topo, t, live) {
		return DeclineSettle, false
	}
	s.cutDepths(t)
	if len(s.revived) > 0 && !s.insert(topo, t, live) {
		return DeclineRevival, false
	}
	return 0, true
}

// partialCleanup is cleanup minus truncating dirtyList contents readably —
// identical effect, kept separate so a successful return documents that
// res.Dirty stays valid until the next call.
func (s *PatchScratch) partialCleanup() {
	dirty := s.dirtyList
	s.cleanup()
	s.dirtyList = dirty[:0]
}

// settle runs the level-synchronous frontier over the alive region nodes,
// assigning each its BFS depth and lexicographically-correct parent. It
// reports false when the path budget is exhausted.
func (s *PatchScratch) settle(topo *topology.Topology, t *Tree, live *topology.Liveness) bool {
	lo := -1
	for _, v := range s.region {
		if s.state[v] != psWait {
			continue
		}
		for _, u := range topo.Neighbors(v) {
			if s.state[u] != psOut || !live.Alive(u) || t.staleSet[u] {
				continue
			}
			d := t.Depth[u] + 1
			if s.dist[v] < 0 || d < s.dist[v] {
				s.dist[v] = d
				s.push(d, v)
				if lo < 0 || d < lo {
					lo = d
				}
			}
		}
	}
	if lo < 0 {
		return true // nothing settles; every alive region node is cut off
	}
	for lvl := lo; lvl < len(s.buckets); lvl++ {
		for qi := 0; qi < len(s.buckets[lvl]); qi++ {
			v := s.buckets[lvl][qi]
			if s.state[v] != psWait || s.dist[v] != lvl {
				continue
			}
			best := s.bestParent(topo, t, live, v, lvl)
			if best < 0 {
				continue // defensive; a queued node always has a candidate
			}
			if !s.settleAt(v, lvl, best) {
				return false // path-work budget exhausted
			}
			for _, w := range topo.Neighbors(v) {
				if s.state[w] == psWait && (s.dist[w] < 0 || s.dist[w] > lvl+1) {
					s.dist[w] = lvl + 1
					s.push(lvl+1, w)
				}
			}
		}
		s.buckets[lvl] = s.buckets[lvl][:0]
	}
	return true
}

// bestParent returns v's parent at depth lvl: its alive neighbour one level
// up with the lexicographically least root downpath, read from the plan for
// settled region nodes and from t for everything outside the region. Stale
// and unsettled neighbours are never candidates. It returns -1 when no
// neighbour sits one level up.
func (s *PatchScratch) bestParent(topo *topology.Topology, t *Tree, live *topology.Liveness, v topology.NodeID, lvl int) topology.NodeID {
	best := topology.NodeID(-1)
	for _, u := range topo.Neighbors(v) {
		if !live.Alive(u) {
			continue
		}
		if s.state[u] == psOut {
			if t.staleSet[u] || t.Depth[u] != lvl-1 {
				continue
			}
		} else if s.state[u] != psSettled || s.dist[u] != lvl-1 {
			continue
		}
		if best < 0 || s.downpathLess(t, u, best) {
			best = u
		}
	}
	return best
}

// downpathLess reports whether a's root downpath precedes b's in the plan,
// for two distinct nodes at the same depth whose ancestors are all final.
// The downpaths agree above the lowest common ancestor, so the first
// difference is between the two ancestors just below it.
//
//aspen:allocfree
func (s *PatchScratch) downpathLess(t *Tree, a, b topology.NodeID) bool {
	for {
		pa, pb := s.parent(t, a), s.parent(t, b)
		if pa == pb {
			return a < b
		}
		a, b = pa, pb
	}
}

// settleAt plans v reachable at depth lvl under parent best. It reports
// false when the path budget is exhausted.
func (s *PatchScratch) settleAt(v topology.NodeID, lvl int, best topology.NodeID) bool {
	if s.carved+lvl+1 > s.maxPath {
		return false
	}
	s.carved += lvl + 1
	s.dist[v] = lvl
	s.par[v] = best
	s.state[v] = psSettled
	return true
}

// insert is the insertion half of the plan. On entry the scratch holds the
// deletion plan, with every revived node still dead: call that tree T1.
// Adding the revived nodes back can only lower keys, so the pass seeds each
// revived node next to a reachable T1 node and settles levels in ascending
// order. A node is re-planned only when its best parent one level up is
// itself re-planned or it was unreachable in T1; otherwise its T1 key stands
// and the spread stops there. Levels are final once passed: a node whose key
// drops is always queued at its new depth by its new parent, which dropped
// first. Stale chains hanging off a re-planned node are re-measured last. It
// reports false when the region or path budget is exhausted.
func (s *PatchScratch) insert(topo *topology.Topology, t *Tree, live *topology.Liveness) bool {
	lo := -1
	for _, v := range s.revived {
		d := -1
		for _, u := range topo.Neighbors(v) {
			if live.Alive(u) && s.reachable(t, u) {
				if du := s.depth(t, u) + 1; d < 0 || du < d {
					d = du
				}
			}
		}
		if d >= 0 {
			s.enqueue(v, d)
			if lo < 0 || d < lo {
				lo = d
			}
		}
	}
	if lo < 0 {
		return true // no revived node touches the reachable tree
	}
	for lvl := lo; lvl < len(s.buckets); lvl++ {
		for qi := 0; qi < len(s.buckets[lvl]); qi++ {
			v := s.buckets[lvl][qi]
			if s.mark[v] != imNone {
				continue
			}
			best := s.bestParent(topo, t, live, v, lvl)
			if best < 0 {
				continue // defensive; a queued node always has a candidate
			}
			inRegion := s.state[v] != psOut
			if s.reachable(t, v) && s.depth(t, v) == lvl && s.mark[best] != imRekeyed && best == s.parent(t, v) {
				s.mark[v] = imSame
				continue
			}
			if !inRegion {
				if len(s.region) >= s.maxRegion {
					return false
				}
				s.region = append(s.region, v)
			}
			if !s.settleAt(v, lvl, best) {
				return false
			}
			s.mark[v] = imRekeyed
			s.rekeyed = append(s.rekeyed, v)
			for _, w := range topo.Neighbors(v) {
				if s.mark[w] == imNone && live.Alive(w) && (!s.reachable(t, w) || s.depth(t, w) > lvl) {
					s.enqueue(w, lvl+1)
				}
			}
		}
		s.buckets[lvl] = s.buckets[lvl][:0]
	}
	// Nodes still unreachable keep their stale parent edge; the ones hanging
	// off a re-planned node take their depth from it, chain by chain.
	for _, u := range s.rekeyed {
		s.stack = append(s.stack[:0], u)
		for len(s.stack) > 0 {
			p := s.stack[len(s.stack)-1]
			s.stack = s.stack[:len(s.stack)-1]
			for _, c := range t.Children[p] {
				if s.reachable(t, c) {
					continue
				}
				if s.state[c] == psOut {
					if len(s.region) >= s.maxRegion {
						return false
					}
					s.region = append(s.region, c)
					s.par[c] = t.Parent[c]
				}
				s.state[c] = psCut
				s.dist[c] = s.dist[p] + 1
				s.stack = append(s.stack, c)
			}
		}
	}
	return true
}

// enqueue queues v at level lvl for the insertion pass, unless it is
// already queued at or below lvl (a revived node seeded too deep is queued
// again when a neighbour settles above it).
func (s *PatchScratch) enqueue(v topology.NodeID, lvl int) {
	q := s.queued[v]
	if q != 0 && int(q) <= lvl+1 {
		return
	}
	if q == 0 {
		s.examined = append(s.examined, v)
	}
	s.queued[v] = int32(lvl + 1)
	s.push(lvl, v)
}

// reachable reports whether u is reachable in the current plan: settled if
// the plan covers it, not stale otherwise (a dead non-stale node is always a
// seed, so outside the plan not stale means alive).
func (s *PatchScratch) reachable(t *Tree, u topology.NodeID) bool {
	if s.state[u] != psOut {
		return s.state[u] == psSettled
	}
	return !t.staleSet[u]
}

// depth returns u's depth in the current plan.
func (s *PatchScratch) depth(t *Tree, u topology.NodeID) int {
	if s.state[u] != psOut {
		return s.dist[u]
	}
	return t.Depth[u]
}

// parent returns u's parent in the current plan.
func (s *PatchScratch) parent(t *Tree, u topology.NodeID) topology.NodeID {
	if s.state[u] != psOut {
		return s.par[u]
	}
	return t.Parent[u]
}

// cutDepths finalizes the depths of region nodes left unreachable (dead
// seeds and cut-off alive nodes): they keep their current parent edge, and
// their depth is the chain length to the nearest depth-final anchor —
// exactly the merged-depth semantics of RebuildTreeLive, iteratively.
func (s *PatchScratch) cutDepths(t *Tree) {
	for _, v := range s.region {
		st := s.state[v]
		if st == psSettled || st == psCut {
			continue
		}
		s.stack = s.stack[:0]
		id := v
		for {
			st := s.state[id]
			if st != psWait && st != psDead {
				break // depth-final: outside the region, settled, or already cut
			}
			s.stack = append(s.stack, id)
			if s.par[id] < 0 {
				id = -1
				break
			}
			id = s.par[id]
		}
		d := -1
		if id >= 0 {
			if s.state[id] == psOut {
				d = t.Depth[id]
			} else {
				d = s.dist[id]
			}
		}
		for j := len(s.stack) - 1; j >= 0; j-- {
			d++
			w := s.stack[j]
			s.dist[w] = d
			s.state[w] = psCut
		}
	}
}

// planDirty marks every node whose subtree summary can change: the old and
// new ancestor chains of each reparented node. Chains stop at an
// already-marked node of the same kind, so total work is linear in the
// marked set. Runs before any mutation: old chains walk t.Parent, new
// chains walk the planned parent function.
func (s *PatchScratch) planDirty(t *Tree) {
	for _, v := range s.changed {
		for u := t.Parent[v]; u >= 0 && !s.mOld[u]; u = t.Parent[u] {
			if !s.mNew[u] {
				s.dirtyList = append(s.dirtyList, u)
			}
			s.mOld[u] = true
		}
		for u := s.par[v]; u >= 0 && !s.mNew[u]; {
			if !s.mOld[u] {
				s.dirtyList = append(s.dirtyList, u)
			}
			s.mNew[u] = true
			if s.state[u] != psOut {
				u = s.par[u]
			} else {
				u = t.Parent[u]
			}
		}
	}
}

// patchDeepFirst re-merges the region nodes into the deepest-first order in
// place. Only the window between the earliest and latest affected key can
// change; it is copied out once and merged back with the region's new keys.
// Runs before depths are applied, so t.Depth still carries the old keys the
// window search needs.
func (s *PatchScratch) patchDeepFirst(t *Tree) {
	if len(s.region) == 0 {
		return
	}
	// Earliest (kd,ki) and latest key over every old and new position.
	kdF, kiF := t.Depth[s.region[0]], s.region[0]
	kdL, kiL := kdF, kiF
	consider := func(d int, id topology.NodeID) {
		if d > kdF || (d == kdF && id < kiF) {
			kdF, kiF = d, id
		}
		if d < kdL || (d == kdL && id > kiL) {
			kdL, kiL = d, id
		}
	}
	for _, v := range s.region {
		consider(t.Depth[v], v)
		consider(s.dist[v], v)
	}
	lo := searchDeepFirst(t, kdF, kiF, false)
	hi := searchDeepFirst(t, kdL, kiL, true)
	s.win = append(s.win[:0], t.deepFirst[lo:hi]...)
	s.ins = append(s.ins[:0], s.region...)
	slices.SortFunc(s.ins, func(a, b topology.NodeID) int {
		if c := cmp.Compare(s.dist[b], s.dist[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	mergeDeepFirst(t.deepFirst[lo:hi], s.win, s.ins, t.Depth, s.dist, s.state)
}

// searchDeepFirst binary-searches the (depth desc, id asc) deepest-first
// order: with after=false it returns the first index at or past key (kd,ki);
// with after=true the first index strictly past it.
//
//aspen:allocfree
func searchDeepFirst(t *Tree, kd int, ki topology.NodeID, after bool) int {
	lo, hi := 0, len(t.deepFirst)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		id := t.deepFirst[mid]
		d := t.Depth[id]
		before := d > kd || (d == kd && (id < ki || (after && id == ki)))
		if before {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// mergeDeepFirst writes the window back: surviving entries (win minus
// region nodes, keyed by their unchanged old depths) merged with the region
// nodes at their new keys.
//
//aspen:allocfree
func mergeDeepFirst(dst, win, ins []topology.NodeID, oldDepth, newDepth []int, state []uint8) {
	w := 0
	i, j := 0, 0
	for i < len(win) || j < len(ins) {
		if i < len(win) && state[win[i]] != psOut {
			i++ // a region node's old slot: it re-enters from ins
			continue
		}
		takeWin := false
		if j >= len(ins) {
			takeWin = true
		} else if i < len(win) {
			a, b := win[i], ins[j]
			da, db := oldDepth[a], newDepth[b]
			takeWin = da > db || (da == db && a < b)
		}
		if takeWin {
			dst[w] = win[i]
			i++
		} else {
			dst[w] = ins[j]
			j++
		}
		w++
	}
}

// planKeep orders the region new-depth ascending and marks the nodes whose
// root path survives byte for byte: the parent edge is unchanged and the
// parent's path survives too (a node outside the region always keeps its
// path). Runs before any mutation.
func (s *PatchScratch) planKeep(t *Tree) {
	s.byDepth = append(s.byDepth[:0], s.region...)
	slices.SortFunc(s.byDepth, func(a, b topology.NodeID) int {
		if c := cmp.Compare(s.dist[a], s.dist[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for _, v := range s.byDepth {
		p := s.par[v]
		s.keep[v] = p == t.Parent[v] && (p < 0 || s.state[p] == psOut || s.keep[p])
	}
}

// patchPaths carves replacement root paths for every region node whose path
// moved, from one fresh slab, new-depth ascending so each node's parent path
// is already final (a parent is always exactly one level up, settled or
// kept). Old path bytes are never overwritten: readers holding a pre-repair
// Path keep a consistent snapshot, exactly as a full rebuild leaves the old
// tree's backing intact. The tree then re-carves all its paths if its slabs
// hold too many superseded bytes.
func (s *PatchScratch) patchPaths(t *Tree) {
	slabLen, freed := 0, 0
	for _, v := range s.byDepth {
		if !s.keep[v] {
			slabLen += s.dist[v] + 1
			freed += len(t.rootPaths[v])
		}
	}
	if slabLen == 0 {
		return
	}
	slab := make([]topology.NodeID, 0, slabLen)
	for _, v := range s.byDepth {
		if s.keep[v] {
			continue
		}
		start := len(slab)
		slab = append(slab, v)
		if p := t.Parent[v]; p >= 0 {
			slab = append(slab, t.rootPaths[p]...)
		}
		t.rootPaths[v] = Path(slab[start:len(slab):len(slab)])
	}
	t.pathSlabs = append(t.pathSlabs, slab)
	t.pathLen += slabLen - freed
	t.slabLen += slabLen
	if (t.slabLen-t.pathLen)*recarveRatio > t.pathLen {
		t.recarvePaths()
	}
}

// removeChild deletes c from the sorted child list in place.
//
//aspen:allocfree
func removeChild(cs []topology.NodeID, c topology.NodeID) []topology.NodeID {
	i := childPos(cs, c)
	copy(cs[i:], cs[i+1:])
	return cs[:len(cs)-1]
}

// insertChild adds c to the sorted child list, spilling that one list onto
// the heap only when its CSR carve is full.
func insertChild(cs []topology.NodeID, c topology.NodeID) []topology.NodeID {
	i := childPos(cs, c)
	cs = append(cs, 0)
	copy(cs[i+1:], cs[i:])
	cs[i] = c
	return cs
}

//aspen:allocfree
func childPos(cs []topology.NodeID, c topology.NodeID) int {
	lo, hi := 0, len(cs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cs[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
