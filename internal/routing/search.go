package routing

import (
	"repro/internal/sim"
	"repro/internal/topology"
)

// Matcher guides the content-addressed path search. MatchNode decides
// whether a visited node is a sought target; MayMatchSubtree consults a
// routing-table entry view to decide whether the subtree below it could
// contain targets (pruning). MayMatchSubtree must never return false for a
// subtree containing a matching node — summaries guarantee no false
// negatives. Matchers should resolve attribute columns
// (Substrate.ColumnIndex) and hash probed values (summary.NewKey) once at
// construction, so the per-edge pruning test is a few bit tests on one
// row, not a name lookup and a hash.
type Matcher interface {
	MatchNode(id topology.NodeID) bool
	MayMatchSubtree(e Entry) bool
}

// MatchAll is a Matcher that matches a fixed target set with no pruning:
// the unpruned reference search the summary-pruned searches are checked
// against.
type MatchAll struct{ Targets map[topology.NodeID]bool }

// MatchNode implements Matcher.
func (m MatchAll) MatchNode(id topology.NodeID) bool { return m.Targets[id] }

// MayMatchSubtree implements Matcher.
func (m MatchAll) MayMatchSubtree(Entry) bool { return true }

// probeKeyBytes is the fixed part of an exploration probe: query id plus
// the join-key value being sought.
const probeKeyBytes = 2 * sim.ValueBytes

// FindTargets runs the paper's exploration from src: in every tree, search
// downward through src's subtree, then ascend hop by hop toward the root,
// searching downward through each ancestor's other subtrees ("it emphasizes
// exploring from a node down its subtrees, but for completeness also
// searches up each subtree. A search ascending a subtree can then search
// downwards from each node, but never go upwards again").
//
// It returns, per discovered target, the fewest-hop path found across all
// trees. When net is non-nil every probe hop and every response (reversed
// path vector back to src) is charged as control traffic, and failed nodes
// are not traversed.
func (s *Substrate) FindTargets(src topology.NodeID, m Matcher, net *sim.Network) map[topology.NodeID]Path {
	found := make(map[topology.NodeID]Path)
	record := func(target topology.NodeID, p Path) {
		if target == src {
			return
		}
		if prev, ok := found[target]; !ok || p.Hops() < prev.Hops() {
			found[target] = p.Clone()
		}
	}
	w := &search{s: s, m: m, net: net, record: record}
	for ti, tree := range s.Trees {
		w.searchTree(ti, tree, src)
	}
	// Charge one response per found target: the reversed path vector sent
	// back to src so it can route directly afterwards. Iterate in sorted
	// order so the loss process consumes draws deterministically. The
	// traversal is over, so its path buffer holds each reversed path: every
	// found path once lay in it, so it never grows. A found path runs along
	// tree edges, so its hops' link ids are read off the trees, into a
	// buffer on the stack unless the path is long.
	if net != nil {
		var links [64]int32
		targets := make([]topology.NodeID, 0, len(found))
		//aspen:orderinvariant keys collected then sorted before use
		for target := range found {
			targets = append(targets, target)
		}
		SortNodeIDs(targets)
		for _, target := range targets {
			p := found[target]
			w.buf = w.buf.ReverseOf(p)
			ids := s.AppendTreeLinks(links[:0], w.buf, net)
			net.TransferLinks(w.buf, ids, probeKeyBytes+p.Hops()*sim.PathEntryBytes, sim.Control)
		}
	}
	return found
}

// search is the per-FindTargets scratch state, reused across the trees: one
// growable path buffer shared by the whole traversal (record clones before
// retaining, so pushing and popping hops on the shared buffer is safe), and
// one 2-element hop buffer and its link id for probe charges. They exist so
// a search allocates O(found) instead of O(visited).
type search struct {
	s      *Substrate
	ti     int
	tree   *Tree
	m      Matcher
	net    *sim.Network
	record func(topology.NodeID, Path)
	buf    Path
	hop    [2]topology.NodeID
	link   [1]int32
}

func (w *search) alive(id topology.NodeID) bool { return w.net == nil || w.net.Alive(id) }

// charge accounts one probe hop from -> to carrying the current path vector.
// The hop is the tree edge above child (from or to), so its link id is
// child's up-link.
func (w *search) charge(from, to, child topology.NodeID) {
	if w.net != nil {
		w.hop[0], w.hop[1] = from, to
		var link []int32
		if w.tree.UpLink != nil {
			w.link[0] = w.tree.UpLink[child]
			link = w.link[:]
		}
		w.net.TransferLinks(w.hop[:], link, probeKeyBytes+w.buf.Hops()*sim.PathEntryBytes, sim.Control)
	}
}

// searchTree runs the exploration from src in tree ti.
func (w *search) searchTree(ti int, tree *Tree, src topology.NodeID) {
	w.ti, w.tree, w.buf = ti, tree, append(w.buf[:0], src)
	s, m, record := w.s, w.m, w.record
	if !w.alive(src) {
		return
	}
	// Phase 1: descend through src's own subtree.
	w.descend(src)
	// Phase 2: ascend toward the root, descending into each ancestor's
	// other subtrees.
	cur := src
	for tree.Parent[cur] >= 0 {
		parent := tree.Parent[cur]
		if !w.alive(parent) {
			break
		}
		w.charge(cur, parent, cur)
		w.buf = append(w.buf, parent)
		if m.MatchNode(parent) {
			record(parent, w.buf)
		}
		for _, sib := range tree.ChildrenOf(parent) {
			if sib == cur {
				continue
			}
			if !m.MayMatchSubtree(s.Entry(ti, sib)) {
				continue
			}
			if !w.alive(sib) {
				continue
			}
			w.charge(parent, sib, sib)
			w.buf = append(w.buf, sib)
			if m.MatchNode(sib) {
				record(sib, w.buf)
			}
			w.descend(sib)
			w.buf = w.buf[:len(w.buf)-1]
		}
		cur = parent
	}
}

// descend explores the subtree below node (the last element of w.buf) along
// tree edges, pruning with routing-table summaries.
func (w *search) descend(node topology.NodeID) {
	for _, c := range w.tree.ChildrenOf(node) {
		if !w.m.MayMatchSubtree(w.s.Entry(w.ti, c)) {
			continue
		}
		if !w.alive(c) {
			continue
		}
		w.charge(node, c, c)
		w.buf = append(w.buf, c)
		if w.m.MatchNode(c) {
			w.record(c, w.buf)
		}
		w.descend(c)
		w.buf = w.buf[:len(w.buf)-1]
	}
}

// SortNodeIDs sorts ascending in place without the per-call allocations
// of sort.Slice — shared by the hot loops that order small node lists
// every cycle (exploration responses here, join-node fan-out in
// internal/join).
func SortNodeIDs(xs []topology.NodeID) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// BestTreePath returns the fewest-hop tree path between a and b across the
// substrate's trees (the first tree wins ties) — the path-quality primitive
// behind Figures 16-18 — in a new slice the caller keeps.
func (s *Substrate) BestTreePath(a, b topology.NodeID) Path {
	return s.AppendBestTreePath(nil, a, b)
}

// AppendBestTreePath appends BestTreePath(a, b) to dst and returns the
// extended path. Trees are compared by LCA hop count and only the winner is
// written, so a caller that reuses one buffer for routes it sends once
// allocates nothing once the buffer has grown.
//
//aspen:allocfree
func (s *Substrate) AppendBestTreePath(dst Path, a, b topology.NodeID) Path {
	dst, _ = s.AppendBestTreeRoute(dst, a, b)
	return dst
}

// AppendBestTreeRoute is AppendBestTreePath that also reports whether the
// route is reversible: whether BestTreePath(b, a) is the same path
// backwards. It is, unless the winning tree's chains from a and b never
// met (see lcaSplit): the trees are compared by a hop count that is the
// same both ways, ties to the first tree.
//
//aspen:allocfree
func (s *Substrate) AppendBestTreeRoute(dst Path, a, b topology.NodeID) (route Path, reversible bool) {
	var best *Tree
	var bi, bj int
	for _, tree := range s.Trees {
		i, j, met := tree.lcaSplit(a, b)
		if best == nil || i+j < bi+bj {
			best, bi, bj, reversible = tree, i, j, met
		}
	}
	if best == nil {
		return dst, false
	}
	return best.appendSplit(dst, a, b, bi, bj), reversible
}

// AppendTreeLinks appends to dst the radio link id of each hop of path and
// returns it, for net.TransferLinks. A hop along a tree edge, in either
// direction, reads its id off the trees' up-link columns; any other hop,
// and every hop when the trees keep no ids, is looked up (net.HopLink).
// Without an injector on net it returns dst as it is.
//
//aspen:allocfree
func (s *Substrate) AppendTreeLinks(dst []int32, path Path, net *sim.Network) []int32 {
	if !net.Faulted() {
		return dst
	}
	if s.Trees[0].UpLink == nil {
		return net.AppendLinks(dst, path)
	}
	for i := 0; i+1 < len(path); i++ {
		dst = append(dst, s.treeLink(path[i], path[i+1], net)) //aspen:alloc the caller's buffer is short
	}
	return dst
}

// treeLink is the link id of hop a -> b: the up-link of its child end in
// the first tree that has it as an edge, or else a lookup.
//
//aspen:allocfree
func (s *Substrate) treeLink(a, b topology.NodeID, net *sim.Network) int32 {
	for _, t := range s.Trees {
		switch {
		case t.Parent[a] == b:
			return t.UpLink[a]
		case t.Parent[b] == a:
			return t.UpLink[b]
		}
	}
	return net.HopLink(a, b)
}

// PathToBase returns the parent chain in tree 0 (the base-rooted tree) —
// how every algorithm routes to the base station — in a new slice the
// caller keeps.
func (s *Substrate) PathToBase(id topology.NodeID) Path {
	return s.AppendPathToBase(nil, id)
}

// AppendPathToBase appends PathToBase(id) to dst and returns the extended
// path, for callers that reuse one buffer.
func (s *Substrate) AppendPathToBase(dst Path, id topology.NodeID) Path {
	return s.Trees[0].AppendPathToRoot(dst, id)
}

// DepthToBase returns the hop distance to the base station in tree 0 — the
// quantity every node is assumed to know (Appendix C).
func (s *Substrate) DepthToBase(id topology.NodeID) int {
	return int(s.Trees[0].Depth[id])
}
