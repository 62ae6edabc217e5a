package join

import (
	"sort"

	"repro/internal/query"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/window"
)

// Opportunistic merging (Appendix E, "Other opportunistic techniques"):
// data values originating from different nodes but traveling to the same
// destination through a common intermediate node are merged into one
// physical packet, paying one header per link instead of one per tuple.
// The paper applies it to producer-to-join-node flows and result flows
// and notes it is "a generalization of a technique used in TinyDB". The
// join-at-base algorithms carry it as Naive.Merge / Base.Merge; it is off
// by default so the headline figures use the same per-message accounting
// as the paper's main algorithms, and BenchmarkAblationMerge quantifies
// the saving.

// mergedSender is one producer's contribution to a merged up-tree flow.
type mergedSender struct {
	id    topology.NodeID
	value int32
	role  senderRole
}

type senderRole uint8

const (
	roleS senderRole = iota
	roleT
	roleBoth
)

// deliverMergedToBase ships all senders' tuples to the base station along
// the base-rooted tree, merging packets at every shared link: the edge
// from node n to its parent carries one packet with all tuples originating
// in n's subtree. A lost edge transmission drops that subtree's tuples.
// It returns the senders whose tuples reached the base, in node-ID order
// (the same arrival order as unmerged delivery, so join results are
// identical on a lossless network).
func deliverMergedToBase(cfg *Config, senders []mergedSender) []mergedSender {
	if len(senders) == 0 {
		return nil
	}
	tree := cfg.Sub.Trees[0]
	// Count tuples per subtree: carried[n] is how many tuples cross the
	// edge n -> parent(n).
	carried := map[topology.NodeID]int{}
	for _, s := range senders {
		for at := s.id; at != tree.Root; at = tree.Parent[at] {
			carried[at]++
		}
	}
	// Transmit deepest-first so a parent edge fires after its children's
	// (one merged packet per edge per cycle).
	nodes := make([]topology.NodeID, 0, len(carried))
	//aspen:orderinvariant keys collected then sorted (deepest-first) before use
	for n := range carried {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(a, b int) bool {
		da, db := tree.Depth[nodes[a]], tree.Depth[nodes[b]]
		if da != db {
			return da > db
		}
		return nodes[a] < nodes[b]
	})
	lostBelow := map[topology.NodeID]bool{}
	for _, n := range nodes {
		parent := tree.Parent[n]
		if lostBelow[n] {
			// The subtree's packet never arrived at n... n itself may
			// still originate tuples; to keep the model simple a lost
			// edge loses everything routed through it, so n's own tuple
			// is only lost if the loss happened at or below n itself —
			// handled by marking descendants below.
			continue
		}
		ok, _ := cfg.Net.Transfer(routing.Path{n, parent}, carried[n]*sim.TupleBytes, sim.Data,
			sim.Flow{Src: n, Dst: topology.Base})
		if !ok {
			lostBelow[n] = true
		}
	}
	var delivered []mergedSender
	for _, s := range senders {
		lost := false
		for at := s.id; at != tree.Root; at = tree.Parent[at] {
			if lostBelow[at] {
				lost = true
				break
			}
		}
		if !lost {
			delivered = append(delivered, s)
		}
	}
	sort.Slice(delivered, func(a, b int) bool { return delivered[a].id < delivered[b].id })
	return delivered
}

// runBaseCycleMerged is runBaseCycle with opportunistic merging: the cycle
// collects every admitted tuple, ships them in merged packets, and feeds
// the base join state in node-ID order.
func runBaseCycleMerged(cfg *Config, st *window.State, rec *recorder, producers []producerSlot, filter *participantFilter, cycle int) {
	var senders []mergedSender
	done := make([]bool, cfg.Topo.N())
	for _, p := range producers {
		if filter != nil && !filter.has(p) {
			continue
		}
		if bothRoles(cfg.Spec, p.id) {
			if done[p.id] {
				continue
			}
			done[p.id] = true
			if v, send := cfg.Sampler.Sample(p.id, query.S, cycle); send {
				senders = append(senders, mergedSender{id: p.id, value: v, role: roleBoth})
			}
			continue
		}
		role := roleS
		if p.role == query.T {
			role = roleT
		}
		if v, send := cfg.Sampler.Sample(p.id, p.role, cycle); send {
			senders = append(senders, mergedSender{id: p.id, value: v, role: role})
		}
	}
	for _, s := range deliverMergedToBase(cfg, senders) {
		switch s.role {
		case roleBoth:
			rec.record(len(st.ArriveBoth(s.id, s.value, cycle)), cycle)
		case roleS:
			rec.record(len(st.Arrive(s.id, query.S, s.value, cycle)), cycle)
		default:
			rec.record(len(st.Arrive(s.id, query.T, s.value, cycle)), cycle)
		}
	}
}
