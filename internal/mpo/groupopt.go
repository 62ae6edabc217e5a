package mpo

import (
	"slices"

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

// Routes is GroupOpt's scratch: the request routes of one call, back to
// back, with their link ids, kept so that each reply runs back over its
// request's route. A caller that keeps one across calls allocates nothing
// in GroupOpt once it has grown.
type Routes struct {
	nodes routing.Path
	links []int32
	// sent[k] is request k's route: where it and its ids end in nodes and
	// links, and whether the reply may run over it backwards.
	sent []sentRoute
	// reply is a reply's route and ids.
	reply      routing.Path
	replyLinks []int32
}

type sentRoute struct {
	end, linksEnd int
	reversible    bool
}

// GroupOpt executes Algorithm 1 (GROUPOPT) for one group, charging the
// coordination traffic: every producer sends its delta-C_p to the group
// coordinator (the member with the smallest ID), which sums them, decides,
// and multicasts the decision back. Message routes follow the substrate's
// best tree paths, and producers report (and are answered) in the order
// given. Each request's route and its link ids are found once, into
// routes, and its reply runs over them backwards, which is the best tree
// path from the coordinator; only a route whose tree chains never met
// (routing.Substrate.AppendBestTreeRoute) is looked up again for its
// reply. net (and with it routes) may be nil for analysis-only calls.
func GroupOpt(sub *routing.Substrate, net *sim.Network, routes *Routes, producers []ProducerCost, sigmaST float64, w int) GroupDecision {
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
	if net != nil {
		routes.nodes, routes.links, routes.sent = routes.nodes[:0], routes.links[:0], routes.sent[:0]
	}
	for _, p := range producers {
		sum += p.Delta(sigmaST, w)
		if net != nil && p.Producer != gc {
			start, from := len(routes.nodes), len(routes.links)
			var reversible bool
			routes.nodes, reversible = sub.AppendBestTreeRoute(routes.nodes, p.Producer, gc)
			route := routes.nodes[start:]
			routes.links = sub.AppendTreeLinks(routes.links, route, net)
			routes.sent = append(routes.sent, sentRoute{len(routes.nodes), len(routes.links), reversible})
			net.TransferLinks(route, routes.links[from:], deltaBytes, sim.Control)
		}
	}
	decision := DecideInNet
	if sum >= 0 {
		decision = DecideBase
	}
	if net != nil {
		start, from := 0, 0
		for _, r := range routes.sent {
			route := routes.nodes[start:r.end]
			if r.reversible {
				routes.reply = routes.reply.ReverseOf(route)
				routes.replyLinks = append(routes.replyLinks[:0], routes.links[from:r.linksEnd]...)
				slices.Reverse(routes.replyLinks)
			} else {
				routes.reply = sub.AppendBestTreePath(routes.reply[:0], gc, route[0])
				routes.replyLinks = sub.AppendTreeLinks(routes.replyLinks[:0], routes.reply, net)
			}
			net.TransferLinks(routes.reply, routes.replyLinks, deltaBytes, sim.Control)
			start, from = r.end, r.linksEnd
		}
	}
	return decision
}
