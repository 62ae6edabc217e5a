package join

import (
	"testing"

	"repro/internal/costmodel"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// BenchmarkInnetStart100k admits one 4-pair Query0 as the engine's
// default In-Net variant (multicast trees, GROUPOPT) on a Dense 100k-node
// deployment: exploration, placement, registration and the first rows. Its
// B/op is what admission allocates, the columns the stepper keeps included.
func BenchmarkInnetStart100k(b *testing.B) {
	topo := topology.Generate(topology.DenseRandom, 100000, 1)
	rates := workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1}
	spec := workload.Query0(topo, workload.BuildNodes(topo, 1), 4, rates, 17)
	net := sim.NewNetwork(topo, 0, 1)
	sub := routing.NewSubstrate(topo, routing.Options{NumTrees: 1, Indexes: spec.Indexes}, net)
	opt := costmodel.Params{SigmaS: rates.SigmaS, SigmaT: rates.SigmaT, SigmaST: rates.SigmaST}
	alg := Innet{Opts: InnetOptions{Multicast: true, GroupOpt: true}}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		alg.Start(NewConfig(topo, net, sub, spec, nil, opt, 0))
	}
}
