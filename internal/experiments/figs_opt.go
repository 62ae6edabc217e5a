package experiments

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/join"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

func init() {
	register(&Experiment{
		ID:      "fig6",
		Title:   "Centralized vs distributed initiation: traffic at the base station and initiation latency (10 random 1:1 pairs)",
		Columns: []string{"scheme", "metric", "value"},
		Run:     centralizedVsDistributed,
	})
	register(&Experiment{
		ID:      "fig7",
		Title:   "Optimal (O) vs distributed (D) join computation traffic across topologies (10 random 1:1 pairs, sigma_s=1, sigma_t=sigma_st=0)",
		Columns: []string{"topology", "scheme", "traffic KB"},
		Run:     optimalVsDistributed,
	})
	register(&Experiment{
		ID:      "fig8",
		Title:   "MPO cost-model validation: Innet-cmpg optimized for each assumed ratio under each actual ratio (a: Query 1, sigma_st=5%, w=3; b: Query 2, sigma_st=10%, w=1)",
		Columns: []string{"query", "actual", "optimized-for", "traffic KB"},
		Run: func(cfg Config) []Row {
			var rows []Row
			for _, r := range matrixRun(cfg, "Q1", 0.05, true) {
				rows = append(rows, Row{Labels: append([]string{"Q1"}, r.Labels...), Value: r.Value})
			}
			for _, r := range matrixRun(cfg, "Q2", 0.10, true) {
				rows = append(rows, Row{Labels: append([]string{"Q2"}, r.Labels...), Value: r.Value})
			}
			return rows
		},
	})
	register(&Experiment{
		ID:      "fig9",
		Title:   "MPO breakdown: (a) traffic vs run duration for every method; (b) traffic at 1000 cycles vs join selectivity for the Innet variants (Query 2, w=1)",
		Columns: []string{"part", "x", "algorithm", "traffic KB"},
		Run:     mpoBreakdown,
	})
}

// innetVariant returns plain Innet or Innet-cmpg.
func innetVariant(cmpg bool) join.Continuous {
	if cmpg {
		return join.Innet{Opts: join.InnetOptions{Multicast: true, PathCollapse: true, GroupOpt: true}}
	}
	return join.Innet{}
}

// fig6Setup is the shared workload: a query of 1:1 joins between 10 random
// pairs.
func fig6Setup(cycles int) setup {
	return setup{
		topoKind: topology.ModerateRandom,
		query:    "Q0",
		nPairs:   10,
		rates:    workload.Rates{SigmaS: 1, SigmaT: 1, SigmaST: 0.2},
		cycles:   cycles,
	}
}

// centralizedVsDistributed reproduces Figure 6. The centralized scheme
// collects, at the base station, every node's connectivity and static
// attribute information, computes the plan, and floods decisions back;
// its initiation latency is dominated by the serialization of all those
// messages through the base's single radio. The distributed scheme is the
// In-Net initiation, whose searches proceed in parallel.
func centralizedVsDistributed(cfg Config) []Row {
	type fig6Run struct {
		cBase, dBase, cLat, dLat float64
	}
	runs := engine.Sweep(cfg.Runs, cfg.Workers, func(i int) fig6Run {
		var out fig6Run
		seed := cfg.Seed + uint64(i)*7919
		// Distributed: run In-Net and measure its initiation-phase base
		// traffic.
		e, q, spec := deploy(fig6Setup(1), seed, join.Innet{})
		e.Run(1)
		out.dBase = float64(q.Result().InitBaseBytes) / 1024
		// Latency: parallel searches; bounded by the deepest exploration
		// chain, ~2x the network diameter in transmission cycles.
		depth := 0
		for n := 0; n < e.Topo.N(); n++ {
			if d := e.Sub.DepthToBase(topology.NodeID(n)); d > depth {
				depth = d
			}
		}
		out.dLat = float64(2 * depth)

		// Centralized: every node ships its neighbour list and static
		// attributes to the base, then the base distributes per-pair
		// decisions back down, over the same trees on a network of its own
		// (the engine's default 5% mote loss).
		net := sim.NewNetwork(e.Topo, 0.05, seed^0x105E)
		msgsThroughBase := 0
		var up, down routing.Path
		for n := 0; n < e.Topo.N(); n++ {
			id := topology.NodeID(n)
			payload := 4*sim.ValueBytes + len(e.Topo.Neighbors(id))*sim.ValueBytes
			up = e.Sub.AppendPathToBase(up[:0], id)
			net.Transfer(up, payload, sim.Control, sim.Flow{})
			msgsThroughBase++
		}
		for _, g := range spec.Groups() {
			for _, pr := range g.Pairs {
				for _, end := range pr {
					up = e.Sub.AppendPathToBase(up[:0], end)
					down = down.ReverseOf(up)
					net.Transfer(down, 3*sim.ValueBytes, sim.Control, sim.Flow{})
					msgsThroughBase++
				}
			}
		}
		out.cBase = float64(net.Metrics().BaseBytes) / 1024
		// Latency: the base's radio serializes one message per
		// transmission cycle, so collection takes ~#messages cycles plus
		// the depth of the deepest sender.
		out.cLat = float64(msgsThroughBase + 2*depth)
		return out
	})
	var cBase, dBase, cLat, dLat []float64
	for _, r := range runs {
		cBase = append(cBase, r.cBase)
		dBase = append(dBase, r.dBase)
		cLat = append(cLat, r.cLat)
		dLat = append(dLat, r.dLat)
	}
	return []Row{
		{Labels: []string{"centralized", "base traffic KB"}, Value: stats.Summarize(cBase)},
		{Labels: []string{"distributed", "base traffic KB"}, Value: stats.Summarize(dBase)},
		{Labels: []string{"centralized", "latency (txn cycles)"}, Value: stats.Summarize(cLat)},
		{Labels: []string{"distributed", "latency (txn cycles)"}, Value: stats.Summarize(dLat)},
	}
}

// optimalVsDistributed reproduces Figure 7: the decentralized placement's
// computation traffic versus a centralized oracle that places each join
// node optimally on the true shortest path, across all five topologies.
func optimalVsDistributed(cfg Config) []Row {
	var rows []Row
	for _, kind := range topology.Kinds {
		s := fig6Setup(cyclesFor(cfg, 100))
		s.topoKind = kind
		// sigma_s=1, sigma_t=sigma_st=0 per the paper describes the DATA;
		// the optimizer runs with symmetric default estimates (otherwise
		// the model would place every join at s itself and both schemes
		// would be trivially free — the figure compares placement/path
		// quality, not selectivity knowledge).
		s.rates = workload.Rates{SigmaS: 1, SigmaT: 0, SigmaST: 0}
		s.optOverride = &costmodel.Params{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1}

		pairsPerRun := engine.Sweep(cfg.Runs, cfg.Workers, func(i int) [2]float64 {
			seed := cfg.Seed + uint64(i)*7919
			e, q, spec := deploy(s, seed, join.Innet{})
			e.Run(s.cycles)
			res := q.Result()
			// Oracle: each s sends along the true shortest path to the
			// optimal join node; with sigma_t=sigma_st=0 the optimum is
			// simply min over j on the shortest path of sigma_s*D_sj —
			// i.e. joining at s itself, costing 0 transmissions... except
			// results still need to reach the base only when produced
			// (never, sigma_st=0). The meaningful oracle cost is the
			// shortest-path data delivery from s to the optimal join
			// node chosen by the full expression on the true path.
			return [2]float64{float64(res.TotalBytes-res.InitBytes) / 1024, oracleRun(s, seed, e, spec)}
		})
		var dVals, oVals []float64
		for _, p := range pairsPerRun {
			dVals = append(dVals, p[0])
			oVals = append(oVals, p[1])
		}
		rows = append(rows,
			Row{Labels: []string{kind.String(), "O"}, Value: stats.Summarize(oVals)},
			Row{Labels: []string{kind.String(), "D"}, Value: stats.Summarize(dVals)},
		)
	}
	return rows
}

// oracleRun computes the centralized-optimal computation traffic for the
// Figure 7 workload: for each pair, place the join node by minimizing the
// section 3.1 expression over the TRUE shortest s-t path, then charge the
// per-cycle deliveries along those paths, over a fresh sampler of the
// run's data.
func oracleRun(s setup, seed uint64, e *engine.Engine, spec *workload.Spec) float64 {
	var total float64
	opt := s.opt(spec.W)
	sampler := s.sampler(e.Topo, seed)
	paths := newPathCache(e.Topo)
	for _, g := range spec.Groups() {
		for _, pr := range g.Pairs {
			src, dst := pr[0], pr[1]
			path := paths.shortestPath(src, dst)
			depths := make([]int, len(path))
			for i, n := range path {
				depths[i] = e.Sub.DepthToBase(n)
			}
			pl := costmodel.BestPlacement(opt, depths)
			for cycle := 0; cycle < s.cycles; cycle++ {
				_, sSend := sampler.Sample(src, 0, cycle)
				_, tSend := sampler.Sample(dst, 1, cycle)
				if pl.AtBase {
					if sSend {
						total += float64(e.Sub.DepthToBase(src) * (sim.HeaderBytes + sim.TupleBytes))
					}
					if tSend {
						total += float64(e.Sub.DepthToBase(dst) * (sim.HeaderBytes + sim.TupleBytes))
					}
					continue
				}
				if sSend {
					total += float64(pl.Index * (sim.HeaderBytes + sim.TupleBytes))
				}
				if tSend {
					total += float64((len(path) - 1 - pl.Index) * (sim.HeaderBytes + sim.TupleBytes))
				}
			}
		}
	}
	return total / 1024
}

// pathCache answers true-shortest-path queries over one topology through
// a topology.ParentCache: a pair loop costs one BFS per distinct
// destination instead of one per pair, and paths are identical to a fresh
// BFS per query (same first-discovered-parent tie-breaking).
type pathCache struct {
	parents *topology.ParentCache
}

func newPathCache(topo *topology.Topology) *pathCache {
	return &pathCache{parents: topology.NewParentCache(topo)}
}

// shortestPath returns a true shortest hop path between a and b, walking
// the memoized parent vector toward b.
func (c *pathCache) shortestPath(a, b topology.NodeID) routing.Path {
	parent := c.parents.Parents(b)
	p := routing.Path{a}
	for at := a; at != b; {
		at = parent[at]
		p = append(p, at)
	}
	return p
}

// mpoBreakdown reproduces Figure 9.
func mpoBreakdown(cfg Config) []Row {
	var rows []Row
	variants := []join.Continuous{
		join.Naive{},
		join.Base{},
		join.Innet{},
		join.Innet{Opts: join.InnetOptions{Multicast: true}},
		join.Innet{Opts: join.InnetOptions{Multicast: true, GroupOpt: true}},
		join.Innet{Opts: join.InnetOptions{Multicast: true, PathCollapse: true, GroupOpt: true}},
	}
	// (a) traffic vs duration.
	durations := []int{30, 60, 120, 240, 300}
	if cfg.Quick {
		durations = []int{30, 60}
	}
	for _, d := range durations {
		s := setup{
			topoKind: topology.ModerateRandom,
			query:    "Q2",
			rates:    workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1},
			cycles:   d,
		}
		for _, alg := range variants {
			rows = append(rows, Row{
				Labels: []string{"a", fmt.Sprintf("%d cycles", d), alg.Name()},
				Value:  averaged(runsFor(cfg, 3), s, alg, totalKB),
			})
		}
	}
	// (b) traffic at long duration vs join selectivity, Innet variants.
	longRun := cyclesFor(cfg, 1000)
	if cfg.Quick {
		longRun = 100
	}
	for _, sst := range joinSels(cfg) {
		s := setup{
			topoKind: topology.ModerateRandom,
			query:    "Q2",
			rates:    workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: sst},
			cycles:   longRun,
		}
		for _, alg := range variants[2:] {
			rows = append(rows, Row{
				Labels: []string{"b", fmt.Sprintf("%.0f%%", sst*100), alg.Name()},
				Value:  averaged(runsFor(cfg, 3), s, alg, totalKB),
			})
		}
	}
	return rows
}
