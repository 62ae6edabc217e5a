package routing_test

import (
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// dense100k is build-100k's deployment: a Dense 100k-node topology, one
// 64-pair Query0 over it, and the query's S endpoints. Generating it takes
// most of a second, so the benchmarks share one.
var dense100k = sync.OnceValues(func() (*topology.Topology, *workload.Spec) {
	topo := topology.Generate(topology.DenseRandom, 100000, 1)
	nodes := workload.BuildNodes(topo, 1)
	rates := workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1}
	return topo, workload.Query0(topo, nodes, 64, rates, 1)
})

// BenchmarkBuildTree100k builds build-100k's base tree, uncharged: the
// BFS, the children CSR and the deepest-first order. Its B/op is a tree's
// resident size, which no longer grows with the tree's depth.
func BenchmarkBuildTree100k(b *testing.B) {
	topo, _ := dense100k()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		routing.BuildTree(topo, topology.Base, nil)
	}
}

// BenchmarkNewSubstrate100k builds build-100k's one-tree substrate with
// Query0's id index, construction and table dissemination charged.
func BenchmarkNewSubstrate100k(b *testing.B) {
	topo, spec := dense100k()
	net := sim.NewNetwork(topo, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		routing.NewSubstrate(topo, routing.Options{NumTrees: 1, Indexes: spec.Indexes}, net)
	}
}

// BenchmarkFindTargets100k runs the admission of build-100k's query: every
// S endpoint explores the one tree with Query0's matcher, probes and
// responses charged. One op is the whole query's 64 searches.
func BenchmarkFindTargets100k(b *testing.B) {
	topo, spec := dense100k()
	sub := routing.NewSubstrate(topo, routing.Options{NumTrees: 1, Indexes: spec.Indexes}, nil)
	var srcs []topology.NodeID
	for i := range topo.N() {
		if id := topology.NodeID(i); spec.EligibleS(id) {
			srcs = append(srcs, id)
		}
	}
	net := sim.NewNetwork(topo, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, s := range srcs {
			if len(sub.FindTargets(s, spec.SearchMatcher(s, sub), net)) == 0 {
				b.Fatalf("source %d found no target", s)
			}
		}
	}
}

// BenchmarkFindTargetsFaulted1k runs a churn-1k-sized admission under a
// fault plan: a 64-pair Query0 over Moderate 1000 with three trees, whose
// probes and responses are sent by the trees' up-link ids. One op is the
// query's searches.
func BenchmarkFindTargetsFaulted1k(b *testing.B) {
	topo := topology.Generate(topology.ModerateRandom, 1000, 1)
	nodes := workload.BuildNodes(topo, 1)
	spec := workload.Query0(topo, nodes, 64, workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1}, 1)
	net := sim.NewNetwork(topo, 0.05, 1)
	net.SetFaults(faults.NewPlan(topo, faults.Config{Seed: 1, LinkLoss: 0.1, LinkFailRate: 0.01, LinkReviveAfter: 4}))
	sub := routing.NewSubstrate(topo, routing.Options{NumTrees: 3, Indexes: spec.Indexes}, net)
	var srcs []topology.NodeID
	for i := range topo.N() {
		if id := topology.NodeID(i); spec.EligibleS(id) {
			srcs = append(srcs, id)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, s := range srcs {
			if len(sub.FindTargets(s, spec.SearchMatcher(s, sub), net)) == 0 {
				b.Fatalf("source %d found no target", s)
			}
		}
	}
}

// BenchmarkShortcut compresses one long path on Dense 10k: the longest
// base-tree path from the deepest node, which runs down and up the tree.
func BenchmarkShortcut(b *testing.B) {
	topo := topology.Generate(topology.DenseRandom, 10000, 1)
	tree := routing.BuildTree(topo, topology.Base, nil)
	sub := routing.NewSubstrate(topo, routing.Options{NumTrees: 1}, nil)
	from := tree.DeepFirst()[0]
	var path routing.Path
	for i := range topo.N() {
		if p := sub.BestTreePath(from, topology.NodeID(i)); len(p) > len(path) {
			path = p
		}
	}
	last := make([]int32, topo.N())
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		routing.Shortcut(topo, path, last)
	}
	b.ReportMetric(float64(path.Hops()), "hops")
}
