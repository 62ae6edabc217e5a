// Package mpo implements the paper's multi-pair optimization machinery
// (section 5 and Appendix E): producer-rooted multicast trees with cached
// interior state, the opportunistic path-collapsing optimization
// (Algorithms 2 and 3), and the decentralized group optimization GROUPOPT
// (Algorithm 1) that chooses, per join group, between pairwise in-network
// joins and a grouped join at the base station.
package mpo

import (
	"slices"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// MulticastTree is a tree rooted at a producer, spanning the producer's
// join nodes, built from the union of its established point-to-point
// paths. Interior nodes cache the subtree state, so data messages carry no
// path vectors (the transmission-compression feature of section 5.1).
// Reconfiguration rebuilds a producer's tree in place (Builder.Rebuild), in
// the tree's own edge storage: a tree is stable between rebuilds, and a
// rebuild must not run while its EdgeList is being walked.
type MulticastTree struct {
	Root topology.NodeID
	// edges holds every (parent, child) pair in EdgeList order.
	edges [][2]topology.NodeID
	// interior is the number of cached-state entries InteriorStateBytes
	// charges for.
	interior int
	// links holds the edges' radio link ids once a walk on a network with
	// a fault injector has asked for them (EdgeLinks); nil before.
	links *edgeLinks
}

// edgeLinks is a tree's link ids: ids[k] is edges[k]'s while current is
// set. Every Rebuild clears current, so ids are found once per build.
type edgeLinks struct {
	ids     []int32
	current bool
}

// Builder holds the scratch a tree build needs, so a caller that rebuilds
// its trees in place again and again allocates nothing once the scratch
// and the trees' edge storage have grown to size. The zero value is ready
// to use. A Builder is not safe for concurrent use: keep one per stepper,
// never one shared across a worker pool.
type Builder struct {
	// at is the build's node index when Rebuild is given none: at[n] is
	// 1 + n's index into nodes while a build runs, 0 for a node not on the
	// tree. It grows to the largest NodeID seen and is reset through
	// nodes, so it is all zero between builds.
	at []int32
	// nodes lists the tree's nodes in insertion order, root first, and
	// par[i] indexes node i's parent in it. A build only ever attaches a
	// new hop to the hop before it, so a parent always precedes its
	// children.
	nodes []topology.NodeID
	par   []int32
	// ints backs the per-node child counts, subtree sizes and child runs.
	ints []int32
	// ends[i] is the number of paths[i]'s last node in the tree last built
	// (see Ends).
	ends []int32
}

// BuildMulticast is the one-shot form of Builder.Build.
func BuildMulticast(root topology.NodeID, paths []routing.Path) *MulticastTree {
	return new(Builder).Build(root, paths)
}

// Build unions the given root-originated paths into a new tree: Rebuild
// with no tree to reuse, on the Builder's own node index.
func (b *Builder) Build(root topology.NodeID, paths []routing.Path) *MulticastTree {
	return b.Rebuild(nil, root, paths, nil)
}

// Rebuild unions the given root-originated paths into t, reusing t's edge
// storage, and returns t; a nil t allocates a new tree. Each path must
// start at root. Later paths reuse earlier paths' prefixes: a node already
// on the tree keeps its existing parent, so the result is a tree even when
// paths diverge and remeet (the first-established route wins, as in the
// implementation's soft-state flow tables). No paths leave t empty: no
// edges and no interior state.
//
// index is the build's node index: one entry per deployment node, all
// zero, which the build leaves all zero (a routing.Substrate lends one,
// Borrow). A nil index makes the Builder use its own, grown to the
// largest NodeID seen.
//
//aspen:allocfree
func (b *Builder) Rebuild(t *MulticastTree, root topology.NodeID, paths []routing.Path, index []int32) *MulticastTree {
	// Check every path before touching the scratch, so the panic leaves
	// the Builder clean for its next build.
	top := root
	for _, p := range paths {
		if len(p) > 0 && p[0] != root {
			panic("mpo: multicast path does not start at the root producer") //aspen:alloc invalid input
		}
		for _, n := range p {
			top = max(top, n)
		}
	}
	if index == nil {
		if int(top) >= len(b.at) {
			b.at = slices.Grow(b.at, int(top)+1-len(b.at))[:top+1] //aspen:alloc scratch growth to the largest NodeID seen
		}
		index = b.at
	}
	nodes, par, ends := append(b.nodes[:0], root), append(b.par[:0], -1), b.ends[:0]
	index[root] = 1
	for _, p := range paths {
		prev := int32(0)
		for i := 1; i < len(p); i++ {
			at := index[p[i]]
			if at == 0 {
				// The previous hop is always on the tree (p[0] is the
				// root and earlier hops were just added), so attaching to
				// it keeps the structure a connected tree.
				nodes, par = append(nodes, p[i]), append(par, prev)
				at = int32(len(nodes))
				index[p[i]] = at
			}
			prev = at - 1
		}
		ends = append(ends, prev) //aspen:alloc scratch growth to the most paths seen
	}
	for _, n := range nodes {
		index[n] = 0
	}
	b.nodes, b.par, b.ends = nodes, par, ends

	n := len(nodes)
	b.ints = slices.Grow(b.ints[:0], 3*n) //aspen:alloc scratch growth to the largest tree seen
	cnt, size, kids := b.ints[:n], b.ints[n:2*n], b.ints[2*n:3*n]
	for i := range cnt {
		cnt[i], size[i] = 0, 1
	}
	if t == nil {
		t = new(MulticastTree) //aspen:alloc Build's fresh tree
	}
	t.Root, t.interior = root, 0
	if t.links != nil {
		t.links.current = false
	}
	// One reverse pass: children come after their parent, so node i's
	// child count and subtree size are final when the pass reaches i.
	for i := n - 1; i > 0; i-- {
		if cnt[i] > 1 {
			t.interior += int(size[i])
		}
		size[par[i]] += size[i]
		cnt[par[i]]++
	}
	// Child runs: cnt[p] becomes the start of p's run in kids, and after
	// the fill its end (the start of the next node's run).
	sum := int32(0)
	for i, c := range cnt {
		cnt[i] = sum
		sum += c
	}
	for i := 1; i < n; i++ {
		kids[cnt[par[i]]] = int32(i)
		cnt[par[i]]++
	}
	// Breadth-first from the root, each run in ascending child ID. The
	// subtree sizes are spent, so their storage is the queue.
	t.edges = slices.Grow(t.edges[:0], n-1) //aspen:alloc edge storage growth to the tree's largest size
	queue := size
	queue[0] = 0
	for head, tail := 0, 1; head < tail; head++ {
		p := queue[head]
		lo := int32(0)
		if p > 0 {
			lo = cnt[p-1]
		}
		run := kids[lo:cnt[p]]
		for i := 1; i < len(run); i++ {
			for j := i; j > 0 && nodes[run[j]] < nodes[run[j-1]]; j-- {
				run[j], run[j-1] = run[j-1], run[j]
			}
		}
		for _, c := range run {
			t.edges = append(t.edges, [2]topology.NodeID{nodes[p], nodes[c]})
			queue[tail] = c
			tail++
		}
	}
	// queue[k] is the node numbered k; the child runs are spent, so their
	// storage maps each node back to its number, for the paths' ends.
	for k, i := range queue {
		kids[i] = int32(k)
	}
	for i, at := range ends {
		ends[i] = kids[at]
	}
	return t
}

// Ends returns, for each path of the last build, the number of its last
// node in the tree built (see EdgeList); an empty path's is the root's, 0.
// The slice is the Builder's and is valid until its next build.
//
//aspen:allocfree
func (b *Builder) Ends() []int32 { return b.ends }

// Edges returns the number of tree edges — the per-tuple transmission cost
// of one multicast dissemination.
//
//aspen:allocfree
func (t *MulticastTree) Edges() int { return len(t.edges) }

// EdgeList returns (parent, child) pairs in root-to-leaf (topological)
// order: an edge never appears before the edge delivering to its parent,
// so walking the list transmission by transmission models one multicast
// dissemination correctly even when an edge fails and prunes its subtree.
// The order is breadth-first with siblings in ascending child ID; it
// decides the order lossy links draw from the run's RNG, so it is part of
// the byte-identical output. It also numbers the tree's nodes (Number):
// the root is 0 and EdgeList()[k] delivers to k+1, and a parent's edges
// are adjacent, in the order of the parents' numbers, so a walk finds the
// number of each edge's parent by moving forward only. The returned slice
// belongs to the tree and is shared across calls, valid until the tree's
// next Rebuild; treat it as read-only.
func (t *MulticastTree) EdgeList() [][2]topology.NodeID { return t.edges }

// Number returns n's number in the tree (see EdgeList), or -1 when n is
// not on the tree. It scans the tree.
//
//aspen:allocfree
func (t *MulticastTree) Number(n topology.NodeID) int32 {
	if n == t.Root {
		return 0
	}
	for k, e := range t.edges {
		if e[1] == n {
			return int32(k) + 1
		}
	}
	return -1
}

// EdgeLinks returns the radio link id of every EdgeList entry on net's
// fault injector (sim.Network.HopLink), for one-hop TransferLinks calls.
// The ids are resolved on the first call after each Rebuild and kept until
// the next, so a tree walked cycle after cycle finds its links once. Call
// it only on a network with an injector, and walk the tree on that
// network alone; like EdgeList, the slice is the tree's and is valid until
// its next Rebuild.
//
//aspen:allocfree
func (t *MulticastTree) EdgeLinks(net *sim.Network) []int32 {
	if t.links == nil {
		t.links = new(edgeLinks) //aspen:alloc once per tree
	}
	if l := t.links; !l.current {
		l.ids = slices.Grow(l.ids[:0], len(t.edges)) //aspen:alloc id storage growth to the tree's largest size
		for _, e := range t.edges {
			l.ids = append(l.ids, net.HopLink(e[0], e[1]))
		}
		l.current = true
	}
	return t.links.ids
}

// InteriorStateBytes is the one-time cost of pushing cached subtree state
// to interior nodes with more than one child (section 5.1: the producer
// "needs to address only a few i nodes" afterwards). It is charged when
// the tree is installed or updated. The state at such a node n encodes
// the subtree rooted at n: one entry for n and one per descendant. The
// root is never charged, whatever its fan-out: the producer itself holds
// the tree.
//
//aspen:allocfree
func (t *MulticastTree) InteriorStateBytes(perNodeBytes int) int {
	return perNodeBytes * t.interior
}
