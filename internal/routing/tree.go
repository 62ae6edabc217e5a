// Package routing implements the paper's communication substrate
// (section 2.2, Appendix C): standard routing-tree construction [10],
// the multi-tree extension of [11] (successive roots chosen farthest from
// existing roots), semantic routing tables holding attribute summaries per
// subtree, the down-then-up pruned path search used by In-Net join
// initiation, parent routing to the base station, and the
// limited-exploration path repair of section 7.
package routing

import (
	"slices"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Path is a hop-by-hop node sequence; consecutive entries are radio
// neighbours. Path[0] is the source and Path[len-1] the destination.
type Path []topology.NodeID

// Clone returns an independent copy.
func (p Path) Clone() Path {
	q := make(Path, len(p))
	copy(q, p)
	return q
}

// Reverse returns the path traversed backwards (links are symmetric,
// section 3: "We assume symmetric communication links").
func (p Path) Reverse() Path {
	q := make(Path, len(p))
	for i, n := range p {
		q[len(p)-1-i] = n
	}
	return q
}

// ReverseOf fills the receiver's storage with src reversed and returns
// the result, growing only when capacity is short — the allocation-free
// variant of Reverse for hot loops that reuse one scratch path across
// cycles. The returned path aliases the receiver's array, never src's.
func (p Path) ReverseOf(src Path) Path {
	q := append(p[:0], src...)
	for i, j := 0, len(q)-1; i < j; i, j = i+1, j-1 {
		q[i], q[j] = q[j], q[i]
	}
	return q
}

// Hops returns the hop count (len-1, or 0 for degenerate paths).
func (p Path) Hops() int {
	if len(p) < 2 {
		return 0
	}
	return len(p) - 1
}

// Index returns the position of id's first appearance on the path, or -1.
func (p Path) Index(id topology.NodeID) int {
	for i, n := range p {
		if n == id {
			return i
		}
	}
	return -1
}

// Contains reports whether id appears on the path.
func (p Path) Contains(id topology.NodeID) bool { return p.Index(id) >= 0 }

// ContainsAny reports whether any of ids appears on the path — the
// affected-path test failure recovery runs against the epoch's failed-node
// list.
func (p Path) ContainsAny(ids []topology.NodeID) bool {
	for _, id := range ids {
		if p.Contains(id) {
			return true
		}
	}
	return false
}

// Concat joins p with q where p ends at q's first node.
func (p Path) Concat(q Path) Path {
	if len(p) == 0 {
		return q.Clone()
	}
	if len(q) == 0 {
		return p.Clone()
	}
	if p[len(p)-1] != q[0] {
		panic("routing: Concat endpoints do not meet")
	}
	out := make(Path, 0, len(p)+len(q)-1)
	out = append(out, p...)
	out = append(out, q[1:]...)
	return out
}

// Tree is one rooted routing tree: the standard TinyDB-style construction
// (BFS from the root over radio links, each node's parent the first
// shallower neighbour the traversal dequeued, so construction is
// deterministic).
//
// Like a mote, a tree node knows its parent and its depth, not its route:
// a path to the root is read off Parent on demand (AppendPathToRoot), so a
// tree costs O(n) however deep it is.
//
// A Tree is only mutated at the epoch barrier (by RepairTrees, which moves a
// dead Root and has PatchTreeLive write a fresh flood's diff in place), so all
// reads — Parent/Depth/ChildrenOf, path walks, DeepFirst — are safe from
// concurrent goroutines during query stepping; the engine's parallel query
// stepping relies on this. PatchTreeLive is the only code that rewrites
// Parent, so a sender that walks the chain as it sends (sim's TransferUp)
// is always on the tree as it stands.
type Tree struct {
	Root   topology.NodeID
	Parent []topology.NodeID // -1 at the root
	Depth  []int32
	// UpLink[n] is the radio link id (sim.FaultInjector.HopLink) of n's
	// hop to Parent[n], -1 where n has no parent, when the tree was built
	// over a network with a fault injector; nil otherwise. Every tree edge
	// is some node's up-link, in either direction, so a path along tree
	// edges reads its hops' ids here instead of finding each link. The ids
	// are that injector's; a faults.Plan's depend on the topology alone.
	// Written at build time and by PatchTreeLive, never during stepping.
	UpLink []int32
	// links is the injector UpLink's ids come from.
	links sim.FaultInjector

	// childSlab holds every node's children back to back, each run
	// ascending; node id's run is childSlab[childOff[id]:childOff[id+1]].
	// Every patch carves both again from Parent (carveChildren).
	childSlab []topology.NodeID
	childOff  []int32
	// deepFirst is the cached deepest-first node order (depth descending,
	// node ID ascending within a depth): the order every bottom-up summary
	// pass over the tree walks. Computed once per tree by counting sort
	// instead of re-sorting on every routing-table (re)build.
	deepFirst []topology.NodeID
	// staleSet[id] reports whether id's parent edge is a stale leftover: id
	// was unreachable by the live BFS that (re)built or patched this tree,
	// so it kept transmitting toward its previous parent.
	staleSet []bool
}

// BuildTree constructs a routing tree rooted at root. When net is non-nil,
// construction traffic is charged: each node broadcasts one beacon while
// the tree forms (the flooding construction of [10]).
func BuildTree(topo *topology.Topology, root topology.NodeID, net *sim.Network) *Tree {
	depth, parent := topo.BFS(root)
	return treeFromBFS(topo, root, net, depth, parent)
}

// treeFromBFS assembles root's tree from the vectors of topo.BFS(root),
// which the tree keeps: nodes the traversal missed are stale.
func treeFromBFS(topo *topology.Topology, root topology.NodeID, net *sim.Network, depth []int, parent []topology.NodeID) *Tree {
	stale := make([]bool, topo.N())
	for i, d := range depth {
		if d < 0 && topology.NodeID(i) != root {
			stale[i] = true
		}
	}
	return assembleTree(topo, root, net, depth, parent, stale)
}

// RebuildTreeLive rebuilds old around failed nodes from scratch (section 7
// applied to shared infrastructure). It is the reference PatchTreeLive is
// tested against: production repair patches in place, re-rooted or not. The
// parent structure is re-derived by a BFS over the surviving subgraph from
// root; nodes that BFS cannot reach (the failed nodes themselves and alive
// nodes cut off behind them) keep their STALE parent edge from old: they
// keep transmitting toward their previous parent, and sim.Transfer charges
// the hop into the dead region without delivering it. Stale chains are
// never rewired into phantom connectivity — a cut node's traffic is paid
// and lost, exactly as on a real deployment. Depths are recomputed from
// the merged parent vector so bottom-up summary passes still see children
// strictly deeper than parents. Construction beacons are re-charged when
// net is non-nil (failed nodes broadcast nothing).
func RebuildTreeLive(topo *topology.Topology, old *Tree, root topology.NodeID, net *sim.Network, live *topology.Liveness) *Tree {
	n := topo.N()
	depth, parent := topo.BFSLive(root, live)
	stale := make([]bool, n)
	for i := 0; i < n; i++ {
		if depth[i] < 0 && topology.NodeID(i) != root {
			parent[i] = old.Parent[i]
			stale[i] = true
		}
	}
	// Merged depths: reachable nodes keep their BFS depth; stale chains are
	// measured along the merged parent vector (a chain ending at a dead
	// former root counts from that local root). The merge is acyclic —
	// stale edges follow the old tree until they meet a reachable node,
	// whose new chain stays within reachable nodes.
	mergedDepths(depth, parent, nil)
	return assembleTree(topo, root, net, depth, parent, stale)
}

// mergedDepths fills every -1 entry of depth with the node's chain length
// along the merged parent vector; entries already measured (the BFS depths
// of reachable nodes) are kept. Iterative on purpose: a long stale parent
// chain at 100k nodes would overflow the goroutine stack if walked
// recursively, so each node first climbs to the nearest already-measured
// ancestor (or a chain end) and then unwinds the visited prefix. The climb
// path is kept in stack's storage, which it returns; total work is O(n)
// since every node is measured exactly once.
//
//aspen:allocfree
func mergedDepths(depth []int, parent, stack []topology.NodeID) []topology.NodeID {
	for i := range depth {
		if depth[i] >= 0 {
			continue
		}
		stack = stack[:0]
		id := topology.NodeID(i)
		for depth[id] < 0 && parent[id] >= 0 {
			stack = append(stack, id)
			id = parent[id]
		}
		d := 0
		if depth[id] >= 0 {
			d = depth[id]
		} else {
			depth[id] = 0 // chain end: a root (local or global)
		}
		for j := len(stack) - 1; j >= 0; j-- {
			d++
			depth[stack[j]] = d
		}
	}
	return stack
}

// assembleTree builds the derived tree structure (children, beacons,
// deepest-first order) from a parent/depth vector. The per-parent child
// lists are carved out of one flat slab, so the 100k-node deployment does
// not pay 100k tiny allocations per tree.
func assembleTree(topo *topology.Topology, root topology.NodeID, net *sim.Network, depth []int, parent []topology.NodeID, stale []bool) *Tree {
	n := topo.N()
	t := &Tree{
		Root:     root,
		Parent:   parent,
		Depth:    make([]int32, n),
		childOff: make([]int32, n+1),
		staleSet: stale,
	}
	for i, d := range depth {
		t.Depth[i] = int32(d)
	}
	t.carveChildren()
	if net != nil && net.Faulted() {
		t.links = net.Faults()
		t.UpLink = make([]int32, n)
		for i := range t.UpLink {
			t.UpLink[i] = t.upLink(topology.NodeID(i))
		}
	}
	if net != nil {
		beacon := 2 * sim.ValueBytes // root id + depth
		for i := 0; i < n; i++ {
			net.Broadcast(topology.NodeID(i), beacon, sim.Control)
		}
	}
	t.deepFirst = make([]topology.NodeID, n)
	sortDeepFirst(t.deepFirst, depth, nil)
	return t
}

// carveChildren lays the children out from Parent into childOff and
// childSlab: count each parent's children, turn the counts into run ends,
// then walk the nodes by descending ID, placing each at the back of its
// parent's run and moving the run's end down — which leaves every run
// ascending and every offset at its run's start, with no scratch and no
// sort. The slab is reused, and grows only when the edges outgrew it.
//
//aspen:allocfree
func (t *Tree) carveChildren() {
	off := t.childOff
	clear(off)
	for _, p := range t.Parent {
		if p >= 0 {
			off[p]++
		}
	}
	total := int32(0)
	for i, c := range off {
		total += c
		off[i] = total
	}
	if cap(t.childSlab) < int(total) {
		t.childSlab = make([]topology.NodeID, total) //aspen:alloc a revived tree has more edges than its first carve
	}
	t.childSlab = t.childSlab[:total]
	for i := len(t.Parent) - 1; i >= 0; i-- {
		if p := t.Parent[i]; p >= 0 {
			off[p]--
			t.childSlab[off[p]] = topology.NodeID(i)
		}
	}
}

// ChildrenOf returns id's children, ascending. The slice is owned by the
// tree, valid until its next patch; its capacity ends with the run, so an
// append copies instead of overwriting the next node's children.
func (t *Tree) ChildrenOf(id topology.NodeID) []topology.NodeID {
	lo, hi := t.childOff[id], t.childOff[id+1]
	return t.childSlab[lo:hi:hi]
}

// upLink looks up the link id of n's hop to its parent: -1 without one.
func (t *Tree) upLink(n topology.NodeID) int32 {
	if p := t.Parent[n]; p >= 0 {
		return t.links.HopLink(n, p)
	}
	return -1
}

// sortDeepFirst writes every node into dst deepest-first (depth descending,
// node ID ascending within a depth) by counting sort, keeping its per-depth
// offsets in buckets' storage, which it returns. Placing node IDs in
// ascending order keeps each depth bucket ascending, so the result is exactly
// the order a comparison sort produces. Bucket d+1 holds depth d; the
// unreachable nodes of a from-scratch build (depth -1) land in bucket 0,
// emitted last.
//
//aspen:allocfree
func sortDeepFirst(dst []topology.NodeID, depth []int, buckets []int) []int {
	maxDepth := 0
	for _, d := range depth {
		maxDepth = max(maxDepth, d)
	}
	if cap(buckets) < maxDepth+2 {
		buckets = make([]int, maxDepth+2) //aspen:alloc the first tree this deep
	}
	buckets = buckets[:maxDepth+2]
	clear(buckets)
	for _, d := range depth {
		buckets[d+1]++
	}
	// Prefix offsets in emission order (deepest bucket first, bucket 0 last).
	pos := 0
	for b := maxDepth + 1; b >= 0; b-- {
		c := buckets[b]
		buckets[b] = pos
		pos += c
	}
	for i, d := range depth {
		dst[buckets[d+1]] = topology.NodeID(i)
		buckets[d+1]++
	}
	return buckets
}

// Stale reports whether id's parent edge is a stale leftover from before the
// last (re)build: the node was unreachable over live links, so it keeps
// transmitting toward its previous parent (section 7 semantics — the hop is
// charged and lost).
func (t *Tree) Stale(id topology.NodeID) bool { return t.staleSet[id] }

// MemBytes reports the tree's resident derived-structure footprint: the
// parent/depth columns, the children's slab and offsets, the deepest-first
// order, the stale set and the up-link ids, each at its element's size.
func (t *Tree) MemBytes() int64 {
	return sliceBytes(t.Parent) + sliceBytes(t.Depth) + sliceBytes(t.childSlab) +
		sliceBytes(t.childOff) + sliceBytes(t.deepFirst) + sliceBytes(t.staleSet) +
		sliceBytes(t.UpLink)
}

// sliceBytes is the size of s's backing array.
func sliceBytes[E any](s []E) int64 {
	var e E
	return int64(cap(s)) * int64(unsafe.Sizeof(e))
}

// DeepFirst returns the tree's nodes deepest-first (ties broken to the
// lowest node ID), the order bottom-up summary passes use so children are
// processed before parents. The slice is owned by the tree; treat it as
// read-only.
func (t *Tree) DeepFirst() []topology.NodeID { return t.deepFirst }

// Hops is the hop count of id's path to the root, the length of its parent
// chain: its depth, or 0 for a node a from-scratch build never reached
// (depth -1, no parent). Merged depths (RebuildTreeLive, PatchTreeLive) are
// chain lengths by construction.
func (t *Tree) Hops(id topology.NodeID) int { return int(max(t.Depth[id], 0)) }

// AppendPathToRoot appends the parent-chain path from id to the root (or
// to the end of id's stale chain) to dst and returns the extended path,
// growing dst at most once.
//
//aspen:allocfree
func (t *Tree) AppendPathToRoot(dst Path, id topology.NodeID) Path {
	dst = slices.Grow(dst, t.Hops(id)+1) //aspen:alloc the caller's buffer is short
	for ; id >= 0; id = t.Parent[id] {
		dst = append(dst, id)
	}
	return dst
}

// appendSplit appends the lcaSplit (i, j) tree path a -> b to dst: a's
// chain up i hops, then b's first j chain nodes in reverse, written in one
// growth at most.
//
//aspen:allocfree
func (t *Tree) appendSplit(dst Path, a, b topology.NodeID, i, j int) Path {
	n := len(dst)
	dst = slices.Grow(dst, i+j+1)[:n+i+j+1] //aspen:alloc the caller's buffer is short
	for k := 0; k <= i; k, a = k+1, t.Parent[a] {
		dst[n+k] = a
	}
	for k := n + i + j; k > n+i; k, b = k-1, t.Parent[b] {
		dst[k] = b
	}
	return dst
}

// lcaSplit locates the lowest common ancestor of a and b: the tree path
// a -> b climbs i hops from a and descends the last j hops of b's chain,
// i+j hops in all, and met reports that the chains met. It lifts the
// deeper node to the other's depth, then climbs both in step. Chains that
// never meet (a node on a stale chain whose end is not the root) climb to
// their ends: i and j are then each node's whole chain.
//
// A depth is a chain's length, so once lifted both chains end together,
// and lcaSplit(b, a) is (j, i, met): when the chains met, the path b -> a
// is a -> b backwards. When they did not, each direction keeps its own
// sender's chain end, and the two paths differ.
//
//aspen:allocfree
func (t *Tree) lcaSplit(a, b topology.NodeID) (i, j int, met bool) {
	da, db := t.Hops(a), t.Hops(b)
	for ; da-i > db-j; i++ {
		a = t.Parent[a]
	}
	for ; db-j > da-i; j++ {
		b = t.Parent[b]
	}
	for a != b && t.Parent[a] >= 0 {
		a, b = t.Parent[a], t.Parent[b]
		i++
		j++
	}
	return i, j, a == b
}

// Subtree returns all nodes in the subtree rooted at id, in deterministic
// preorder.
func (t *Tree) Subtree(id topology.NodeID) []topology.NodeID {
	out := []topology.NodeID{id}
	for _, c := range t.ChildrenOf(id) {
		out = append(out, t.Subtree(c)...)
	}
	return out
}
