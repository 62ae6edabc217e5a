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
	"slices"

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
	// The depths live on the stack for a path of up to len(buf) nodes. A
	// policy is called through a func value, which escape analysis cannot
	// see into, so it gets its own copy and only the cost model reads buf.
	var buf [64]int
	depths := buf[:0]
	for _, n := range path {
		depths = append(depths, depthToBase(n))
	}
	var pl costmodel.Placement
	if policy == nil {
		pl = costmodel.BestPlacement(p, depths)
	} else {
		pl = policy(p, slices.Clone(depths))
	}
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
