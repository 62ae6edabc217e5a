package core

import (
	"testing"
	"testing/quick"

	"repro/internal/costmodel"
	"repro/internal/routing"
	"repro/internal/topology"
)

// lineDepth models a path whose node i sits depth[i] hops from the base.
func lineDepth(depths map[topology.NodeID]int) func(topology.NodeID) int {
	return func(id topology.NodeID) int { return depths[id] }
}

func TestPlacePairSkew(t *testing.T) {
	path := routing.Path{10, 11, 12, 13, 14}
	depth := lineDepth(map[topology.NodeID]int{10: 5, 11: 5, 12: 5, 13: 5, 14: 5})
	loud := PlacePair(costmodel.Params{SigmaS: 1, SigmaT: 0.1, W: 3}, path, depth, nil)
	quiet := PlacePair(costmodel.Params{SigmaS: 0.1, SigmaT: 1, W: 3}, path, depth, nil)
	if loud.AtBase || quiet.AtBase {
		t.Fatal("flat-depth skewed pair should stay in-network")
	}
	if loud.JoinNode(path) != 10 || quiet.JoinNode(path) != 14 {
		t.Fatalf("skew placement: loud at %d, quiet at %d", loud.JoinNode(path), quiet.JoinNode(path))
	}
}

func TestPlacePairNormalizesBaseNode(t *testing.T) {
	// A path running through the base station: a placement landing on
	// node 0 must become a base join.
	path := routing.Path{10, 0, 14}
	depth := lineDepth(map[topology.NodeID]int{10: 1, 0: 0, 14: 1})
	pl := PlacePair(costmodel.Params{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 1, W: 5}, path, depth, nil)
	if !pl.AtBase {
		t.Fatalf("placement on the root not normalized: %+v", pl)
	}
	if pl.JoinNode(path) != topology.Base {
		t.Fatal("JoinNode of a base placement must be the base")
	}
}

func TestPlacePairPolicyOverride(t *testing.T) {
	path := routing.Path{10, 11, 12}
	depth := lineDepth(map[topology.NodeID]int{10: 3, 11: 3, 12: 3})
	mid := func(p costmodel.Params, depths []int) costmodel.Placement {
		return costmodel.Placement{Index: len(depths) / 2}
	}
	pl := PlacePair(costmodel.Params{SigmaS: 1, SigmaT: 0}, path, depth, mid)
	if pl.AtBase || pl.JoinNode(path) != 11 {
		t.Fatalf("override ignored: %+v", pl)
	}
}

func TestPlacePairNeverWorseThanBaseQuick(t *testing.T) {
	// The section 3.2 guarantee, end to end through the core API.
	f := func(ss, st, sst uint8, d0, d1, d2 uint8) bool {
		p := costmodel.Params{
			SigmaS:  float64(ss%100) / 100,
			SigmaT:  float64(st%100) / 100,
			SigmaST: float64(sst%100) / 100,
			W:       2,
		}
		path := routing.Path{20, 21, 22}
		depths := map[topology.NodeID]int{
			20: int(d0%10) + 1, 21: int(d1%10) + 1, 22: int(d2%10) + 1,
		}
		pl := PlacePair(p, path, lineDepth(depths), nil)
		baseCost := costmodel.PairAtBase(p, depths[20], depths[22])
		return pl.Cost <= baseCost+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPlacementJoinNodeBase(t *testing.T) {
	pl := Placement{AtBase: true}
	if pl.JoinNode(routing.Path{5, 6}) != topology.Base {
		t.Fatal("AtBase placement must resolve to the base")
	}
}
