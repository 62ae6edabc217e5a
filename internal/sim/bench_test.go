package sim_test

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/topology"
)

// longestRootPath returns the longest parent chain in a BFS tree from the
// base station.
func longestRootPath(topo *topology.Topology) []topology.NodeID {
	depth, parent := topo.BFS(topology.Base)
	deepest := topology.NodeID(0)
	for i := 1; i < topo.N(); i++ {
		if depth[i] > depth[deepest] {
			deepest = topology.NodeID(i)
		}
	}
	var path []topology.NodeID
	for at := deepest; at >= 0; at = parent[at] {
		path = append(path, at)
	}
	return path
}

// BenchmarkTransfer measures the per-hop accounting hot path: one 10-hop
// transfer per op on a lossy line, retransmissions included. The hop loop
// must stay allocation-free — per-node metrics are dense slices and the
// loss process draws without boxing.
func BenchmarkTransfer(b *testing.B) {
	topo := topology.Generate(topology.Grid, 100, 1)
	net := sim.NewNetwork(topo, 0.05, 1)
	path := longestRootPath(topo)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Transfer(path, sim.TupleBytes, sim.Data, sim.Flow{})
	}
}

// BenchmarkTransferFaulted is BenchmarkTransfer with a fault plan
// installed, so every hop also consults faults.Plan.Link (lossy links,
// duplicates, delay; no link is down, so the transfer runs its full
// length). The oracle must add no allocation.
func BenchmarkTransferFaulted(b *testing.B) {
	topo := topology.Generate(topology.Grid, 100, 1)
	net := sim.NewNetwork(topo, 0.05, 1)
	plan := faults.NewPlan(topo, faults.Config{Seed: 1, LinkLoss: 0.02, DupProb: 0.01, DelayMax: 2})
	plan.BeginEpoch(0)
	net.SetFaults(plan)
	path := longestRootPath(topo)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Transfer(path, sim.TupleBytes, sim.Data, sim.Flow{})
	}
}

// BenchmarkTransferLinks is BenchmarkTransferFaulted over the path's link
// ids, resolved once before the loop, so each hop reads faults.Plan.LinkAt
// by id instead of scanning for its link. It must add no allocation either.
func BenchmarkTransferLinks(b *testing.B) {
	topo := topology.Generate(topology.Grid, 100, 1)
	net := sim.NewNetwork(topo, 0.05, 1)
	plan := faults.NewPlan(topo, faults.Config{Seed: 1, LinkLoss: 0.02, DupProb: 0.01, DelayMax: 2})
	plan.BeginEpoch(0)
	net.SetFaults(plan)
	path := longestRootPath(topo)
	links := net.AppendLinks(nil, path)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.TransferLinks(path, links, sim.TupleBytes, sim.Data)
	}
}

// BenchmarkBroadcast measures the one-hop accounting path.
func BenchmarkBroadcast(b *testing.B) {
	topo := topology.Generate(topology.Grid, 100, 1)
	net := sim.NewNetwork(topo, 0.05, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Broadcast(5, sim.TupleBytes, sim.Control)
	}
}

// BenchmarkTransferUp is BenchmarkTransferLinks over the same hops walked
// off a parent column, with each hop's id read off an up-link column, so
// no path is written. It must add no allocation either.
func BenchmarkTransferUp(b *testing.B) {
	topo := topology.Generate(topology.Grid, 100, 1)
	net := sim.NewNetwork(topo, 0.05, 1)
	plan := faults.NewPlan(topo, faults.Config{Seed: 1, LinkLoss: 0.02, DupProb: 0.01, DelayMax: 2})
	plan.BeginEpoch(0)
	net.SetFaults(plan)
	_, parent := topo.BFS(topology.Base)
	up := make([]int32, topo.N())
	for i, p := range parent {
		if up[i] = -1; p >= 0 {
			up[i] = net.HopLink(topology.NodeID(i), p)
		}
	}
	from := longestRootPath(topo)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.TransferUp(parent, up, from, sim.TupleBytes, sim.Data)
	}
}
