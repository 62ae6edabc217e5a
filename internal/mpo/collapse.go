package mpo

import (
	"repro/internal/routing"
	"repro/internal/topology"
)

// CollapseThreshold is Algorithm 3's hysteresis: a new multicast tree
// replaces the one in active use only when its cost is at least 10% lower
// (Cnew*1.1 <= Csend), because pushing an updated tree into the network
// has its own communication cost.
const CollapseThreshold = 1.1

// CollapseOpportunity is the tuple T of Algorithm 2: snooping node This
// overheard neighbour Nbr forwarding a flow and discovered a link that
// lets two of the producer's paths merge.
type CollapseOpportunity struct {
	// N1 and N2 are the adjacent nodes on two node-disjoint paths.
	N1, N2 topology.NodeID
	// Dest1, Dest2 are the join nodes the two paths serve.
	Dest1, Dest2 topology.NodeID
}

// FindCollapses scans a producer's established paths for collapse
// opportunities, modelling the snooping of PathCollapseDetect: for every
// pair of node-disjoint paths (P1, P2) from the same producer, any radio
// link (n1 in P1, n2 in P2) between interior nodes is an opportunity.
// Deterministic order: path pairs (i, j) with i < j in the order given, and
// within a pair by hop along P1, then by hop along P2. The caller charges
// one notification per opportunity in this order, so it is part of the
// byte-identical output; it is not sorted by node ID.
func FindCollapses(topo *topology.Topology, paths []routing.Path) []CollapseOpportunity {
	var out []CollapseOpportunity
	for i := 0; i < len(paths); i++ {
		for j := i + 1; j < len(paths); j++ {
			p1, p2 := paths[i], paths[j]
			if len(p1) < 3 || len(p2) < 3 {
				continue
			}
			if !nodeDisjointExceptRoot(p1, p2) {
				continue
			}
			for a := 1; a < len(p1)-1; a++ {
				for b := 1; b < len(p2)-1; b++ {
					if topo.IsNeighbor(p1[a], p2[b]) {
						out = append(out, CollapseOpportunity{
							N1:    p1[a],
							N2:    p2[b],
							Dest1: p1[len(p1)-1],
							Dest2: p2[len(p2)-1],
						})
					}
				}
			}
		}
	}
	return out
}

// nodeDisjointExceptRoot scans rather than marks: paths are a few tens of
// hops, and FindCollapses walks the same hop pairs again right after.
func nodeDisjointExceptRoot(p1, p2 routing.Path) bool {
	for _, n := range p2[1:] {
		if p1[1:].Contains(n) {
			return false
		}
	}
	return true
}

// ApplyCollapses is the producer side (Algorithm 3): for each opportunity
// it tries rerouting the path to Dest1 through the newly discovered link
// (root..N2 along P2, the link N2-N1, then N1..Dest1 along P1), keeps the
// change when the rebuilt multicast tree is cheaper, and — mirroring lines
// 30-33 — also tries the swapped orientation. It returns the possibly
// updated paths, the tree actually used for sending (subject to the 10%
// hysteresis), and how many collapses were applied.
func ApplyCollapses(topo *topology.Topology, root topology.NodeID, paths []routing.Path, opps []CollapseOpportunity) (out []routing.Path, send *MulticastTree, applied int) {
	out = make([]routing.Path, len(paths))
	for i, p := range paths {
		out[i] = p.Clone()
	}
	var b Builder
	best := b.Build(root, out)
	send = best
	bestCost, sendCost := best.Edges(), best.Edges()
	for _, opp := range opps {
		for _, o := range []CollapseOpportunity{opp, {N1: opp.N2, N2: opp.N1, Dest1: opp.Dest2, Dest2: opp.Dest1}} {
			i1 := pathIndexVia(out, o.N1, o.Dest1)
			i2 := pathIndexVia(out, o.N2, o.Dest2)
			if i1 < 0 || i2 < 0 || i1 == i2 {
				continue
			}
			candidate := reroute(out[i2], out[i1], o.N2, o.N1)
			if candidate == nil {
				continue
			}
			trial := make([]routing.Path, len(out))
			copy(trial, out)
			trial[i1] = candidate
			tree := b.Build(root, trial)
			if tree.Edges() < bestCost {
				out = trial
				best, bestCost = tree, tree.Edges()
				applied++
				if float64(tree.Edges())*CollapseThreshold < float64(sendCost) {
					send, sendCost = tree, tree.Edges()
				}
			}
		}
	}
	// If the final best tree cleared the hysteresis at any point use it;
	// otherwise the original send tree remains in effect.
	return out, send, applied
}

// pathIndexVia finds the path ending at dest that passes through n.
func pathIndexVia(paths []routing.Path, n, dest topology.NodeID) int {
	for i, p := range paths {
		if len(p) == 0 || p[len(p)-1] != dest {
			continue
		}
		if p.Contains(n) {
			return i
		}
	}
	return -1
}

// reroute builds root..n2 (along pVia) + [n2,n1] + n1..dest (along pOld).
// Returns nil when the splice would repeat a node.
func reroute(pVia, pOld routing.Path, n2, n1 topology.NodeID) routing.Path {
	prefix := truncateAt(pVia, n2)
	suffix := suffixFrom(pOld, n1)
	if prefix == nil || suffix == nil {
		return nil
	}
	candidate := append(prefix.Clone(), suffix...)
	for i, x := range candidate {
		if candidate[:i].Contains(x) {
			return nil
		}
	}
	return candidate
}

func truncateAt(p routing.Path, n topology.NodeID) routing.Path {
	for i, x := range p {
		if x == n {
			return p[:i+1]
		}
	}
	return nil
}

func suffixFrom(p routing.Path, n topology.NodeID) routing.Path {
	for i, x := range p {
		if x == n {
			return p[i:]
		}
	}
	return nil
}
