// Package core is the paper's primary contribution distilled into one
// place: the dynamic join optimization decision procedure. Everything else
// in this repository is substrate (simulator, routing, windows) or
// packaging (engines, experiments); the decisions the paper is about —
// where to place each pair's join node (section 3.1) and whether that
// beats the base station (section 3.2) — live here as pure,
// engine-independent logic.
//
// The In-Net execution engine (internal/join) calls into this package,
// also when section 6's learned selectivities re-place a pair; the
// GROUPOPT group-level decision is in internal/mpo (it needs coordination
// traffic), built on the same cost expressions (internal/costmodel).
package core

import (
	"repro/internal/costmodel"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Placement is the optimizer's decision for one producer pair.
type Placement struct {
	// AtBase means the pair joins at the base station.
	AtBase bool
	// PathIndex is the join node's index on the pair's discovered path
	// (meaningful only when !AtBase).
	PathIndex int
	// Cost is the winning expected per-cycle cost.
	Cost float64
}

// JoinNode resolves the placement to a node ID given the pair's path.
func (pl Placement) JoinNode(path routing.Path) topology.NodeID {
	if pl.AtBase {
		return topology.Base
	}
	return path[pl.PathIndex]
}

// PlacePolicy computes a placement from cost parameters and the per-node
// base distances along the path. The default is the paper's cost model;
// ablations substitute naive policies.
type PlacePolicy func(p costmodel.Params, depths []int) costmodel.Placement

// PlacePair runs the section 3.1/3.2 decision for one pair: minimize the
// placement expression over every node of the discovered path, compare
// against joining at the base, and normalize — a winning "in-network"
// node that IS the base station is a base join (the path may run through
// the root). depthToBase supplies each path node's hop distance to the
// base; policy nil selects the cost model.
func PlacePair(p costmodel.Params, path routing.Path, depthToBase func(topology.NodeID) int, policy PlacePolicy) Placement {
	depths := make([]int, len(path))
	for i, n := range path {
		depths[i] = depthToBase(n)
	}
	if policy == nil {
		policy = costmodel.BestPlacement
	}
	pl := policy(p, depths)
	if pl.AtBase {
		return Placement{AtBase: true, Cost: pl.Cost}
	}
	idx := pl.Index
	if idx < 0 {
		idx = 0
	}
	if path[idx] == topology.Base {
		return Placement{AtBase: true, Cost: pl.Cost}
	}
	return Placement{PathIndex: idx, Cost: pl.Cost}
}
