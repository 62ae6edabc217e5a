package experiments

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/dht"
	"repro/internal/ght"
	"repro/internal/join"
	"repro/internal/query"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

func init() {
	register(&Experiment{
		ID:      "fig14",
		Title:   "Join-node failure (single pair): result delay and total traffic with and without a mid-run permanent failure, sigma_st in {10%, 20%}",
		Columns: []string{"sigma_st", "condition", "metric", "value"},
		Run:     failureExperiment,
	})
	register(&Experiment{
		ID:      "fig16",
		Title:   "Path quality on 100-node mote networks: average path length and max node load for 1/2/3 trees, GPSR, and the full graph",
		Columns: []string{"topology", "scheme", "metric", "value"},
		Run:     func(cfg Config) []Row { return pathQuality(cfg, false) },
	})
	register(&Experiment{
		ID:      "fig17",
		Title:   "Path quality on 100-node mesh networks: 1/2/3 trees and DHT",
		Columns: []string{"topology", "scheme", "metric", "value"},
		Run:     func(cfg Config) []Row { return pathQuality(cfg, true) },
	})
	register(&Experiment{
		ID:      "fig18",
		Title:   "Mesh scale-up: path length and normalized max node load at 50/100/200 nodes (medium density)",
		Columns: []string{"size", "scheme", "metric", "value"},
		Run:     meshScaleUp,
	})
	register(&Experiment{
		ID:      "fig19",
		Title:   "Query 1, w=3 on 100-node mesh networks (message counts): Naive, Base, DHT, Innet-cmg",
		Columns: []string{"ratio", "sigma_st", "algorithm", "metric", "1000s msgs"},
		Run:     func(cfg Config) []Row { return meshSweep(cfg, "Q1") },
	})
	register(&Experiment{
		ID:      "fig20",
		Title:   "Query 2, w=1 on 100-node mesh networks (message counts): Naive, Base, DHT, Innet-cmg",
		Columns: []string{"ratio", "sigma_st", "algorithm", "metric", "1000s msgs"},
		Run:     func(cfg Config) []Row { return meshSweep(cfg, "Q2") },
	})
	register(&Experiment{
		ID:      "tab3",
		Title:   "Table 3 cross-check: analytic computation cost (tuple-hops/cycle) vs measured data traffic for Naive and Base",
		Columns: []string{"algorithm", "source", "tuple-hops/cycle"},
		Run:     table3Check,
	})
	register(&Experiment{
		ID:      "mobility",
		Title:   "Appendix G: mobile leaf node — routing-table update traffic and propagation delay after a re-parent",
		Columns: []string{"metric", "value"},
		Run:     mobility,
	})
	register(&Experiment{
		ID:      "ablation",
		Title:   "Design ablations: join-node placement policy and adaptivity trigger ratio",
		Columns: []string{"part", "variant", "traffic KB"},
		Run:     ablations,
	})
}

// failureExperiment reproduces Figure 14: a single join pair; fail the
// join node at 45%/50%/55% into the run and average; compare against the
// failure-free baseline.
func failureExperiment(cfg Config) []Row {
	var rows []Row
	for _, sst := range []float64{0.10, 0.20} {
		s := setup{
			topoKind: topology.ModerateRandom,
			query:    "Q0",
			nPairs:   1,
			rates:    workload.Rates{SigmaS: 1, SigmaT: 1, SigmaST: sst},
			cycles:   cyclesFor(cfg, 100),
		}
		var dNo, dYes, tNo, tYes []float64
		// Search seeds until cfg.Runs of them place the pair's join node
		// at an interior node (failing a producer itself would be a
		// different experiment).
		for i := 0; len(dYes) < cfg.Runs && i < cfg.Runs*8; i++ {
			seed := cfg.Seed + uint64(i)*7919
			e, q, spec := deploy(s, seed, join.Innet{})
			e.Run(s.cycles)
			baseRes := q.Result()
			if len(baseRes.PairJoinNodes) == 0 {
				continue // pair joined at base; nothing to fail
			}
			victim := baseRes.PairJoinNodes[0]
			if spec.EligibleS(victim) || spec.EligibleT(victim) {
				continue
			}
			dNo = append(dNo, baseRes.MeanDelay())
			tNo = append(tNo, float64(baseRes.TotalBytes)/1024)
			// Fail at 45%, 50% and 55% of the run and average, as the
			// paper does. The failure is silent — a liveness change between
			// two epochs, not a churn event — so the pair's join node is
			// found dead only when traffic to it fails (section 7's
			// detection delay, which this figure measures).
			var dSum, tSum float64
			points := 0
			for _, frac := range []float64{0.45, 0.50, 0.55} {
				e, q, _ := deploy(s, seed, join.Innet{})
				failAt := int(frac * float64(s.cycles))
				for ep := 0; ep < failAt; ep++ {
					e.Step()
				}
				e.Liveness().Fail(victim)
				e.Run(s.cycles - failAt)
				res := q.Result()
				dSum += res.MeanDelay()
				tSum += float64(res.TotalBytes) / 1024
				points++
			}
			dYes = append(dYes, dSum/float64(points))
			tYes = append(tYes, tSum/float64(points))
		}
		label := fmt.Sprintf("%.0f%%", sst*100)
		rows = append(rows,
			Row{Labels: []string{label, "no failure", "delay (cycles)"}, Value: stats.Summarize(dNo)},
			Row{Labels: []string{label, "with failure", "delay (cycles)"}, Value: stats.Summarize(dYes)},
			Row{Labels: []string{label, "no failure", "traffic KB"}, Value: stats.Summarize(tNo)},
			Row{Labels: []string{label, "with failure", "traffic KB"}, Value: stats.Summarize(tYes)},
		)
	}
	return rows
}

// pathQuality reproduces Figures 16 (mote: GPSR + full graph) and 17
// (mesh: DHT): average path length and maximum node load over sampled node
// pairs for each substrate scheme.
func pathQuality(cfg Config, mesh bool) []Row {
	var rows []Row
	kinds := topology.Kinds
	if cfg.Quick {
		kinds = kinds[1:3]
	}
	for _, kind := range kinds {
		topo := topology.Generate(kind, 100, 1)
		schemes := []string{"1 Tree", "2 Trees", "3 Trees"}
		if mesh {
			schemes = append(schemes, "DHT")
		} else {
			schemes = append(schemes, "GPSR", "Full graph")
		}
		for _, scheme := range schemes {
			avg, maxLoad, _ := pathStats(topo, scheme, cfg)
			rows = append(rows,
				Row{Labels: []string{kind.String(), scheme, "avg path (hops)"}, Value: stats.Summarize([]float64{avg})},
				Row{Labels: []string{kind.String(), scheme, "max load (1000s paths)"}, Value: stats.Summarize([]float64{maxLoad / 1000})},
			)
		}
	}
	return rows
}

// pathStats computes average path length and max per-node path load for
// one routing scheme over the ordered node pairs it walks: all of them, or
// in quick mode those from every third source. paths is how many it walked.
func pathStats(topo *topology.Topology, scheme string, cfg Config) (avgHops, maxLoad float64, paths int) {
	var pathOf func(a, b topology.NodeID) routing.Path
	switch scheme {
	case "1 Tree", "2 Trees", "3 Trees":
		trees := int(scheme[0] - '0')
		sub := routing.NewSubstrate(topo, routing.Options{NumTrees: trees}, nil)
		pathOf = sub.BestTreePath
	case "GPSR":
		r := ght.NewRouter(topo)
		pathOf = r.Route
	case "DHT":
		ring := dht.NewRing(topo)
		// A DHT lookup rendezvouses through the hashed home node: the
		// underlay path is src -> home(dst) -> dst.
		pathOf = func(a, b topology.NodeID) routing.Path {
			home := ring.HomeNode(int32(b))
			p1 := ring.Route(a, home)
			p2 := ring.Route(home, b)
			return p1.Concat(p2)
		}
	case "Full graph":
		// One memoized BFS parent vector per destination: the all-pairs
		// loop below costs n traversals instead of n^2.
		paths := newPathCache(topo)
		pathOf = paths.shortestPath
	default:
		panic("unknown scheme " + scheme)
	}
	load := make([]int, topo.N())
	total, count := 0, 0
	step := 1
	if cfg.Quick {
		step = 3
	}
	for a := 0; a < topo.N(); a += step {
		for b := 0; b < topo.N(); b++ {
			if a == b {
				continue
			}
			p := pathOf(topology.NodeID(a), topology.NodeID(b))
			total += p.Hops()
			count++
			for _, n := range p {
				load[n]++
			}
		}
	}
	maxL := 0
	for _, l := range load {
		if l > maxL {
			maxL = l
		}
	}
	return float64(total) / float64(count), float64(maxL), count
}

// meshScaleUp reproduces Figure 18: 50/100/200-node medium topologies,
// 1/2/3 trees, path length and max load normalized per path.
func meshScaleUp(cfg Config) []Row {
	var rows []Row
	sizes := []int{50, 100, 200}
	if cfg.Quick {
		sizes = []int{50, 100}
	}
	for _, n := range sizes {
		topo := topology.Generate(topology.MediumRandom, n, 1)
		for trees := 1; trees <= 3; trees++ {
			scheme := fmt.Sprintf("%d Tree", trees)
			if trees > 1 {
				scheme += "s"
			}
			avg, maxLoad, paths := pathStats(topo, scheme, cfg)
			// Normalized load: fraction of the walked paths crossing the
			// most loaded node.
			rows = append(rows,
				Row{Labels: []string{fmt.Sprintf("%d-node", n), scheme, "avg path (hops)"}, Value: stats.Summarize([]float64{avg})},
				Row{Labels: []string{fmt.Sprintf("%d-node", n), scheme, "max load (per path)"}, Value: stats.Summarize([]float64{maxLoad / float64(paths)})},
			)
		}
	}
	return rows
}

// meshSweep reproduces Figures 19-20: the Appendix F mesh runs, counting
// messages instead of bytes, without path collapsing.
func meshSweep(cfg Config, query string) []Row {
	algs := meshAlgorithms(topology.ModerateRandom)
	var rows []Row
	for _, stage := range ratioStages(cfg) {
		for _, sst := range joinSels(cfg) {
			s := setup{
				topoKind: topology.ModerateRandom,
				query:    query,
				rates:    workload.Rates{SigmaS: stage.S, SigmaT: stage.T, SigmaST: sst},
				cycles:   cyclesFor(cfg, 100),
				loss:     new(float64),
			}
			for _, alg := range algs {
				sstLabel := fmt.Sprintf("%.0f%%", sst*100)
				sums := averagedMulti(runsFor(cfg, 3), s, alg, totalKMsgs, baseKMsgs)
				rows = append(rows,
					Row{Labels: []string{stage.Name, sstLabel, alg.Name(), "total"}, Value: sums[0]},
					Row{Labels: []string{stage.Name, sstLabel, alg.Name(), "base"}, Value: sums[1]},
				)
			}
		}
	}
	return rows
}

// table3Check prints Table 3's Naive and Base computation costs in
// tuple-hops per cycle, sigma_s*phi_s*sum D_sr + sigma_t*phi_t*sum D_tr,
// twice. The analytic row realizes each sigma*phi by replaying the run's
// sampler: every eligible producer slot's sends for Naive, those of the
// slots in some pair for Base, each times its D_sr. The measured row is
// the run's data traffic over the per-hop message size: all of its
// traffic after initiation, since every pair joins at the base station.
// The runs are lossless, so no retransmission comes between the two and
// they are equal (Q1 has no node filling both roles, whose one reading
// would be the other difference; see DESIGN.md, "Wire model").
func table3Check(cfg Config) []Row {
	s := setup{
		topoKind: topology.ModerateRandom,
		query:    "Q1",
		rates:    workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1},
		cycles:   cyclesFor(cfg, 100),
		loss:     new(float64),
	}
	e, q, spec := deploy(s, cfg.Seed, join.Naive{})
	e.Run(s.cycles)
	inPair := [2]map[topology.NodeID]bool{{}, {}}
	for _, g := range spec.Groups() {
		for _, pr := range g.Pairs {
			inPair[query.S][pr[0]], inPair[query.T][pr[1]] = true, true
		}
	}
	var naive, base int
	sampler := s.sampler(e.Topo, cfg.Seed)
	for c := 0; c < s.cycles; c++ {
		for i := 0; i < e.Topo.N(); i++ {
			id := topology.NodeID(i)
			for role, eligible := range [2]bool{spec.EligibleS(id), spec.EligibleT(id)} {
				if _, sent := sampler.Sample(id, query.Rel(role), c); eligible && sent {
					naive += e.Sub.DepthToBase(id)
					if inPair[role][id] {
						base += e.Sub.DepthToBase(id)
					}
				}
			}
		}
	}
	perCycle := func(hops int) stats.Summary { return stats.Summarize([]float64{float64(hops) / float64(s.cycles)}) }
	measured := func(res *join.Result) stats.Summary {
		return stats.Summarize([]float64{float64(res.TotalBytes-res.InitBytes) / float64(sim.HeaderBytes+sim.TupleBytes) / float64(s.cycles)})
	}
	return []Row{
		{Labels: []string{"Naive", "analytic"}, Value: perCycle(naive)},
		{Labels: []string{"Naive", "measured"}, Value: measured(q.Result())},
		{Labels: []string{"Base", "analytic"}, Value: perCycle(base)},
		{Labels: []string{"Base", "measured"}, Value: measured(execute(s, cfg.Seed, join.Base{}))},
	}
}

// mobility reproduces Appendix G: a leaf node picks a new parent; measure
// the traffic and propagation delay of updating every affected routing
// table summary up each tree.
func mobility(cfg Config) []Row {
	topo := topology.Generate(topology.MediumRandom, 100, 1)
	id := func(id topology.NodeID) int32 { return int32(id) }
	sub := routing.NewSubstrate(topo, routing.Options{
		NumTrees: 3,
		Indexes:  []routing.IndexSpec{{Attr: "id", Kind: routing.BloomSummary, Value: id}},
	}, nil)
	// Pick a node that is a leaf in tree 0 (mobile nodes are constrained
	// to be topology leaves).
	var leaf topology.NodeID = -1
	for i := topo.N() - 1; i > 0; i-- {
		if len(sub.Trees[0].ChildrenOf(topology.NodeID(i))) == 0 {
			leaf = topology.NodeID(i)
			break
		}
	}
	net := sim.NewNetwork(topo, 0, cfg.Seed)
	// The move: the leaf re-attaches under a new parent in every tree;
	// each ancestor's summary on both the old and new parent chains must
	// be refreshed (one summary message per hop).
	maxChain := 0
	var up routing.Path
	for _, tree := range sub.Trees {
		up = tree.AppendPathToRoot(up[:0], leaf)
		// Old chain invalidation + new chain installation ~ 2x the
		// ancestor chain, each hop shipping the indexed summaries.
		size := sub.Entry(0, leaf).ScalarSizeBytes()
		for i := 0; i+1 < len(up); i++ {
			net.Transfer(routing.Path{up[i], up[i+1]}, size, sim.Control, sim.Flow{})
			net.Transfer(routing.Path{up[i], up[i+1]}, size, sim.Control, sim.Flow{})
		}
		if 2*up.Hops() > maxChain {
			maxChain = 2 * up.Hops()
		}
	}
	m := net.Metrics()
	return []Row{
		{Labels: []string{"update traffic (bytes)"}, Value: stats.Summarize([]float64{float64(m.TotalBytes)})},
		{Labels: []string{"propagation delay (cycles)"}, Value: stats.Summarize([]float64{float64(maxChain)})},
	}
}

// ablations benches the DESIGN.md design choices: placement policy and
// learning trigger ratio.
func ablations(cfg Config) []Row {
	var rows []Row
	// Placement policy on a skewed 1:1 workload (cost model should win).
	s := setup{
		topoKind: topology.ModerateRandom,
		query:    "Q0",
		rates:    workload.Rates{SigmaS: 0.1, SigmaT: 1, SigmaST: 0.2},
		cycles:   cyclesFor(cfg, 100),
	}
	policies := []struct {
		name string
		f    func(p costmodel.Params, depths []int) costmodel.Placement
	}{
		{"cost-model", nil},
		{"midpoint", func(p costmodel.Params, depths []int) costmodel.Placement {
			return costmodel.Placement{Index: len(depths) / 2}
		}},
		{"at-s", func(p costmodel.Params, depths []int) costmodel.Placement {
			return costmodel.Placement{Index: 0}
		}},
		{"at-t", func(p costmodel.Params, depths []int) costmodel.Placement {
			return costmodel.Placement{Index: len(depths) - 1}
		}},
	}
	for _, pol := range policies {
		alg := join.Innet{Opts: join.InnetOptions{PlacementOverride: pol.f}}
		rows = append(rows, Row{
			Labels: []string{"placement", pol.name},
			Value:  averaged(runsFor(cfg, 3), s, alg, totalKB),
		})
	}
	// Trigger ratio with wrong initial estimates.
	s2 := s
	s2.optOverride = &costmodel.Params{SigmaS: 1, SigmaT: 0.1, SigmaST: 0.2}
	s2.cycles = cyclesFor(cfg, 200)
	for _, trig := range []struct {
		name  string
		ratio float64
		learn bool
	}{
		{"never", 0, false},
		{"10%", 0.10, true},
		{"33%", 0.33, true},
		{"66%", 0.66, true},
	} {
		s2.adapt = trig.learn
		alg := join.Innet{Opts: join.InnetOptions{Trigger: trig.ratio}}
		rows = append(rows, Row{
			Labels: []string{"trigger", trig.name},
			Value:  averaged(runsFor(cfg, 3), s2, alg, totalKB),
		})
	}
	return rows
}
