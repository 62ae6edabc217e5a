package sim

import "repro/internal/topology"

// LinkState is a fault injector's verdict for one directed hop, consulted
// by Transfer before the loss process runs. The zero value means "healthy
// link": Transfer must behave — charge for charge, rng draw for rng draw —
// exactly as if no injector were installed, which is what keeps a zeroed
// fault plan byte-identical to the fault-free engine.
type LinkState struct {
	// Cut severs the link: a transfer reaching this hop burns the full
	// retry budget (the sender cannot distinguish a dead link from a dead
	// receiver) and is dropped, counted in both Drops and CutDrops.
	Cut bool
	// ExtraLoss is an additional per-attempt loss probability composed
	// with the network's ambient LossProb as independent loss events:
	// p = LossProb + ExtraLoss*(1-LossProb).
	ExtraLoss float64
	// DupProb is the probability that a successfully delivered hop is
	// followed by one charged duplicate transmission (a lost ack).
	DupProb float64
	// DelaySlots is bounded extra latency in transmission slots,
	// accumulated into Metrics.DelaySlots on successful hops. Purely
	// observational.
	DelaySlots int
}

// FaultInjector is the per-hop fault oracle a Network consults on every
// hop of every Transfer. Implementations must be cheap, pure reads: all
// randomness behind the returned state has to be drawn when the plan is
// built or advanced in a sequential section (internal/faults does both),
// never inside Link, because Link is called concurrently from parallel
// workers stepping disjoint per-query networks.
//
// A hop's radio link has an id, HopLink, fixed for the deployment and
// shared by both directions. The owner of a path that is sent over again
// and again resolves its hops' ids once (Network.AppendLinks) and sends
// with TransferLinks, which reads each hop by id through LinkAt instead of
// finding the link again.
type FaultInjector interface {
	Link(from, to topology.NodeID) LinkState
	// Cut reports Link(from, to).Cut; an injector answers it without
	// building the full state where it can.
	Cut(from, to topology.NodeID) bool
	// HopLink returns the id of the radio link between from and to, or -1
	// when the injector keeps no state for such a link.
	HopLink(from, to topology.NodeID) int32
	// LinkAt returns Link(from, to) for a hop whose HopLink is id.
	LinkAt(from, to topology.NodeID, id int32) LinkState
}

// SetFaults installs the fault injector (nil disables injection). Link ids
// resolved under one injector mean nothing to another, so it is installed
// before any path is resolved, and not swapped while one is held.
func (n *Network) SetFaults(f FaultInjector) { n.faults = f }

// Faulted reports whether a fault injector is installed. Without one a
// path has no link ids to resolve.
func (n *Network) Faulted() bool { return n.faults != nil }

// Faults returns the installed fault injector, or nil: the owner of paths
// built over this network resolves their link ids with it.
func (n *Network) Faults() FaultInjector { return n.faults }

// HopLink returns the installed injector's id for the radio link between
// from and to, or -1 without an injector.
//
//aspen:allocfree
func (n *Network) HopLink(from, to topology.NodeID) int32 {
	if n.faults == nil {
		return -1
	}
	return n.faults.HopLink(from, to)
}

// AppendLinks appends to dst the link id of each hop of path, for
// TransferLinks, and returns it; without an injector it returns dst as it
// is, so a path resolved on a fault-free network keeps no ids.
//
//aspen:allocfree
func (n *Network) AppendLinks(dst []int32, path []topology.NodeID) []int32 {
	if n.faults == nil {
		return dst
	}
	for i := 0; i+1 < len(path); i++ {
		dst = append(dst, n.faults.HopLink(path[i], path[i+1])) //aspen:alloc the caller's buffer is short
	}
	return dst
}

// PathCut reports whether any hop of path is currently severed by the
// installed fault injector. It is the pre-flight check steppers use to
// distinguish "transfer failed because the path is partitioned" (abort,
// fall back) from "transfer failed to random loss" (legacy semantics).
// Always false without an injector.
//
//aspen:allocfree
func (n *Network) PathCut(path []topology.NodeID) bool {
	if n.faults == nil {
		return false
	}
	for i := 0; i+1 < len(path); i++ {
		if n.faults.Cut(path[i], path[i+1]) {
			return true
		}
	}
	return false
}
