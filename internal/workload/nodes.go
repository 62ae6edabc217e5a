// Package workload builds the paper's experimental workload (section 4.1):
// the Table 1 static attributes, the four queries of Table 2 in compiled
// form, selectivity-controlled dynamic value generation for u, and the
// synthetic humidity process standing in for the Intel Research-Berkeley
// trace (attribute v).
package workload

import (
	"fmt"
	"math"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/topology"
)

// NodeInfo carries the two static attributes drawn for one node (Table 1).
// Every other attribute a node carries is derived from its id and its
// position in the topology (nodeAttrs), so a deployment stores each fact
// once: 2 bytes a node here, the positions in topology.Topology.
type NodeInfo struct {
	// X is drawn from [7, 60] with an exponential spatial distribution —
	// nodes near the field centre receive higher values.
	X uint8
	// Y is uniform over [0, 10).
	Y uint8
}

// BuildNodes draws the static attributes for every node of topo,
// deterministically from seed.
func BuildNodes(topo *topology.Topology, seed uint64) []NodeInfo {
	src := rng.New(seed).Split(0xA77)
	nodes := make([]NodeInfo, topo.N())
	centre := geom.Point{X: topology.Field / 2, Y: topology.Field / 2}
	maxDist := centre.Dist(geom.Point{})
	for i := range nodes {
		p := topo.Pos(topology.NodeID(i))
		nrng := src.Split(uint64(i))
		// x: exponential spatial skew. The mean decreases with distance
		// from the centre; values clamp into [7, 60].
		rel := p.Dist(centre) / maxDist // 0 at centre, 1 at corner
		mean := 53 * math.Exp(-2.5*rel)
		x := 7 + int(math.Min(53, mean*nrng.ExpFloat64()))
		nodes[i] = NodeInfo{X: uint8(min(x, 60)), Y: uint8(nrng.Intn(10))}
	}
	return nodes
}

// MemBytes is the heap nodes keep: its backing array, at NodeInfo's size.
// It feeds the engine's mem.workload.bytes gauge.
func MemBytes(nodes []NodeInfo) int64 {
	return int64(cap(nodes)) * int64(unsafe.Sizeof(NodeInfo{}))
}

// cell returns the column and row of id's cell in the 4x4 partition of the
// deployment field (Table 1's cid and rid).
func cell(topo *topology.Topology, id topology.NodeID) (cid, rid int32) {
	c, r := topology.Cell(topo.Pos(id))
	return int32(c), int32(r)
}

// nodeAttrs maps every static attribute a node carries to how it is read:
// x and y from the drawn nodes, id from the node's number, and cid, rid,
// posx and posy from its position in topo. It is the one table attribute
// names resolve against.
var nodeAttrs = map[string]func(topo *topology.Topology, nodes []NodeInfo, id topology.NodeID) int32{
	"id": func(_ *topology.Topology, _ []NodeInfo, id topology.NodeID) int32 { return int32(id) },
	"x":  func(_ *topology.Topology, nodes []NodeInfo, id topology.NodeID) int32 { return int32(nodes[id].X) },
	"y":  func(_ *topology.Topology, nodes []NodeInfo, id topology.NodeID) int32 { return int32(nodes[id].Y) },
	"cid": func(topo *topology.Topology, _ []NodeInfo, id topology.NodeID) int32 {
		cid, _ := cell(topo, id)
		return cid
	},
	"rid": func(topo *topology.Topology, _ []NodeInfo, id topology.NodeID) int32 {
		_, rid := cell(topo, id)
		return rid
	},
	"posx": func(topo *topology.Topology, _ []NodeInfo, id topology.NodeID) int32 { return int32(topo.Pos(id).X) },
	"posy": func(topo *topology.Topology, _ []NodeInfo, id topology.NodeID) int32 { return int32(topo.Pos(id).Y) },
}

// attr returns the accessor of the static attribute name over the
// deployment (topo, nodes): the hand-built queries' view of nodeAttrs.
func attr(name string, topo *topology.Topology, nodes []NodeInfo) func(topology.NodeID) int32 {
	field := nodeAttrs[name]
	return func(id topology.NodeID) int32 { return field(topo, nodes, id) }
}

// NodeColumns resolves static attribute references over the deployment
// (topo, nodes) for query.CompilePair and query.CompileTerm, whose keys are
// then node ids: an attribute's column reads each node's value where the
// deployment keeps it, copying nothing. It fails on an attribute no node
// carries.
func NodeColumns(topo *topology.Topology, nodes []NodeInfo) func(query.Attr) (func(int32) int32, error) {
	return func(a query.Attr) (func(int32) int32, error) {
		field, carried := nodeAttrs[a.Attr]
		if !carried {
			return nil, fmt.Errorf("workload: query references %s, which no node carries", a)
		}
		return func(id int32) int32 { return field(topo, nodes, topology.NodeID(id)) }, nil
	}
}

// PairBinding adapts a node pair of the deployment (Topo, Nodes), plus
// optional dynamic u/v readings, to the query.Binding interface, so the
// tests can check compiled predicates against the interpreter over
// workload state.
type PairBinding struct {
	Topo  *topology.Topology
	Nodes []NodeInfo
	S, T  topology.NodeID
	// SU, TU are the current dynamic readings (u for Queries 0-2, v for
	// Query 3); only consulted when HasDyn is set.
	SU, TU int32
	HasDyn bool
}

// Value implements query.Binding.
func (b PairBinding) Value(rel query.Rel, attr string) int32 {
	id, dyn := b.S, b.SU
	if rel == query.T {
		id, dyn = b.T, b.TU
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
	return field(b.Topo, b.Nodes, id)
}
