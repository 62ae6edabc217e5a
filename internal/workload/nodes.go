// Package workload builds the paper's experimental workload (section 4.1):
// the Table 1 static attributes, the four queries of Table 2 in compiled
// form, selectivity-controlled dynamic value generation for u, and the
// synthetic humidity process standing in for the Intel Research-Berkeley
// trace (attribute v).
package workload

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/topology"
)

// NodeInfo carries one node's static attributes (Table 1).
type NodeInfo struct {
	// ID is the unique identifier.
	ID int32
	// X is drawn from [7, 60] with an exponential spatial distribution —
	// nodes near the field centre receive higher values.
	X int32
	// Y is uniform over [0, 10).
	Y int32
	// Cid and Rid are the column and row of the node's cell in a 4x4
	// partition of the deployment field.
	Cid, Rid int32
	// Pos is the real position on the 256m x 256m field.
	Pos geom.Point
}

// BuildNodes derives the static attributes for every node of topo,
// deterministically from seed.
func BuildNodes(topo *topology.Topology, seed uint64) []NodeInfo {
	src := rng.New(seed).Split(0xA77)
	nodes := make([]NodeInfo, topo.N())
	centre := geom.Point{X: topology.Field / 2, Y: topology.Field / 2}
	maxDist := centre.Dist(geom.Point{})
	for i := range nodes {
		id := topology.NodeID(i)
		p := topo.Pos(id)
		nrng := src.Split(uint64(i))
		// x: exponential spatial skew. The mean decreases with distance
		// from the centre; values clamp into [7, 60].
		rel := p.Dist(centre) / maxDist // 0 at centre, 1 at corner
		mean := 53 * math.Exp(-2.5*rel)
		x := 7 + int32(math.Min(53, mean*nrng.ExpFloat64()))
		if x > 60 {
			x = 60
		}
		cid, rid := topology.Cell(p)
		nodes[i] = NodeInfo{
			ID:  int32(i),
			X:   x,
			Y:   int32(nrng.Intn(10)),
			Cid: int32(cid),
			Rid: int32(rid),
			Pos: p,
		}
	}
	return nodes
}

// nodeAttrs maps every static attribute a node carries to the NodeInfo
// field holding it: the one table attribute names resolve against.
var nodeAttrs = map[string]func(*NodeInfo) int32{
	"id":   func(n *NodeInfo) int32 { return n.ID },
	"x":    func(n *NodeInfo) int32 { return n.X },
	"y":    func(n *NodeInfo) int32 { return n.Y },
	"cid":  func(n *NodeInfo) int32 { return n.Cid },
	"rid":  func(n *NodeInfo) int32 { return n.Rid },
	"posx": func(n *NodeInfo) int32 { return int32(n.Pos.X) },
	"posy": func(n *NodeInfo) int32 { return int32(n.Pos.Y) },
}

// NodeColumns resolves static attribute references over nodes for
// query.CompilePair and query.CompileTerm, whose keys are then node ids:
// an attribute's column is a dense per-node slice, built once per name. It
// fails on an attribute no node carries.
func NodeColumns(nodes []NodeInfo) func(query.Attr) (func(int32) int32, error) {
	built := map[string][]int32{}
	return func(a query.Attr) (func(int32) int32, error) {
		col, ok := built[a.Attr]
		if !ok {
			field, carried := nodeAttrs[a.Attr]
			if !carried {
				return nil, fmt.Errorf("workload: query references %s, which no node carries", a)
			}
			col = make([]int32, len(nodes))
			for i := range nodes {
				col[i] = field(&nodes[i])
			}
			built[a.Attr] = col
		}
		return func(id int32) int32 { return col[id] }, nil
	}
}

// PairBinding adapts a node pair (plus optional dynamic u/v readings) to
// the query.Binding interface, so the tests can check compiled predicates
// against the interpreter over workload state.
type PairBinding struct {
	S, T *NodeInfo
	// SU, TU are the current dynamic readings (u for Queries 0-2, v for
	// Query 3); only consulted when HasDyn is set.
	SU, TU int32
	HasDyn bool
}

// Value implements query.Binding.
func (b PairBinding) Value(rel query.Rel, attr string) int32 {
	n, dyn := b.S, b.SU
	if rel == query.T {
		n, dyn = b.T, b.TU
	}
	if attr == "u" || attr == "v" {
		if !b.HasDyn {
			panic("workload: dynamic attribute read without dynamic binding")
		}
		return dyn
	}
	field, ok := nodeAttrs[attr]
	if !ok {
		panic("workload: unbound attribute " + attr)
	}
	return field(n)
}
