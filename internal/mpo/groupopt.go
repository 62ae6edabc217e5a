package mpo

import (
	"repro/internal/costmodel"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// GroupDecision is the coordinator's choice for one join group.
type GroupDecision int

const (
	// DecideInNet keeps the group's pairwise in-network join nodes.
	DecideInNet GroupDecision = iota
	// DecideBase moves the whole group's computation to the base station.
	DecideBase
)

// String labels the decision.
func (d GroupDecision) String() string {
	if d == DecideBase {
		return "base"
	}
	return "in-network"
}

// ProducerCost carries one producer's inputs to GROUPOPT: its send rate,
// distance to the root, and per-join-node assignment facts.
type ProducerCost struct {
	Producer  topology.NodeID
	SigmaP    float64
	DPR       int
	JoinNodes []costmodel.GroupJoinNode
}

// Delta returns this producer's delta-C_p (section 5.2).
func (p ProducerCost) Delta(sigmaST float64, w int) float64 {
	return costmodel.GroupDelta(p.SigmaP, sigmaST, w, p.JoinNodes, p.DPR)
}

// GroupOpt executes Algorithm 1 (GROUPOPT) for one group, charging the
// coordination traffic: every producer sends its delta-C_p to the group
// coordinator (the member with the smallest ID), which sums them, decides,
// and multicasts the decision back. Message routes follow the substrate's
// best tree paths, and producers report (and are answered) in the order
// given. Each route is written into *route, the caller's scratch: a route
// is charged once and dropped, so a caller that keeps one scratch path
// across calls allocates nothing here once it has grown. net (and with it
// route) may be nil for analysis-only calls.
func GroupOpt(sub *routing.Substrate, net *sim.Network, route *routing.Path, producers []ProducerCost, sigmaST float64, w int) GroupDecision {
	if len(producers) == 0 {
		return DecideInNet
	}
	// Elect the coordinator: smallest member ID (Algorithm 1's Gc).
	gc := producers[0].Producer
	for _, p := range producers[1:] {
		gc = min(gc, p.Producer)
	}

	const deltaBytes = 2 * sim.ValueBytes // fixed-point delta + sequence number
	var sum float64
	for _, p := range producers {
		sum += p.Delta(sigmaST, w)
		if net != nil && p.Producer != gc {
			*route = sub.AppendBestTreePath((*route)[:0], p.Producer, gc)
			net.Transfer(*route, deltaBytes, sim.Control, sim.Flow{})
		}
	}
	decision := DecideInNet
	if sum >= 0 {
		decision = DecideBase
	}
	if net != nil {
		for _, p := range producers {
			if p.Producer != gc {
				*route = sub.AppendBestTreePath((*route)[:0], gc, p.Producer)
				net.Transfer(*route, deltaBytes, sim.Control, sim.Flow{})
			}
		}
	}
	return decision
}
