package experiments

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/join"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

func init() {
	register(&Experiment{
		ID:      "fig2",
		Title:   "Query 1, w=3, 100 sampling cycles, 100 nodes: total traffic and base-station load per algorithm across selectivity stages",
		Columns: []string{"ratio", "sigma_st", "algorithm", "metric", "traffic KB"},
		Run:     func(cfg Config) []Row { return algorithmSweep(cfg, "Q1") },
	})
	register(&Experiment{
		ID:      "fig3",
		Title:   "Query 2, w=1, 100 sampling cycles, 100 nodes: total traffic and base-station load per algorithm across selectivity stages",
		Columns: []string{"ratio", "sigma_st", "algorithm", "metric", "traffic KB"},
		Run:     func(cfg Config) []Row { return algorithmSweep(cfg, "Q2") },
	})
	register(&Experiment{
		ID:      "fig4",
		Title:   "Cost-model validation on Query 0 (sigma_st=20%, w=3): traffic when optimizing for each assumed ratio while data follows each actual ratio — the diagonal should win",
		Columns: []string{"actual", "optimized-for", "traffic KB"},
		Run: func(cfg Config) []Row {
			return matrixRun(cfg, "Q0", 0.20, false)
		},
	})
	register(&Experiment{
		ID:      "fig5",
		Title:   "Load distribution: traffic at the 15 most-loaded nodes per algorithm (Query 1 workload)",
		Columns: []string{"algorithm", "rank", "traffic KB"},
		Run:     loadDistribution,
	})
}

// algorithmSweep reproduces the Figure 2/3 bar groups: stages x join
// selectivities x algorithms, reporting total traffic and base load.
func algorithmSweep(cfg Config, query string) []Row {
	algs := moteAlgorithms(topology.ModerateRandom)
	var rows []Row
	for _, stage := range ratioStages(cfg) {
		for _, sst := range joinSels(cfg) {
			s := setup{
				topoKind: topology.ModerateRandom,
				query:    query,
				rates:    workload.Rates{SigmaS: stage.S, SigmaT: stage.T, SigmaST: sst},
				cycles:   cyclesFor(cfg, 100),
			}
			for _, alg := range algs {
				sstLabel := fmt.Sprintf("%.0f%%", sst*100)
				sums := averagedMulti(cfg, s, alg, totalKB, baseKB)
				rows = append(rows,
					Row{Labels: []string{stage.Name, sstLabel, alg.Name(), "total"}, Value: sums[0]},
					Row{Labels: []string{stage.Name, sstLabel, alg.Name(), "base"}, Value: sums[1]},
				)
			}
		}
	}
	return rows
}

// matrixRun reproduces the Figure 4 / Figure 8 matrices: run with every
// actual stage while the optimizer assumes every stage. cmpg selects the
// Innet-cmpg variant (Fig 8) instead of plain Innet (Fig 4).
func matrixRun(cfg Config, query string, sst float64, cmpg bool) []Row {
	var rows []Row
	stages := ratioStages(cfg)
	for _, actual := range stages {
		for _, assumed := range stages {
			s := setup{
				topoKind: topology.ModerateRandom,
				query:    query,
				rates:    workload.Rates{SigmaS: actual.S, SigmaT: actual.T, SigmaST: sst},
				cycles:   cyclesFor(cfg, 100),
				optOverride: &costmodel.Params{
					SigmaS: assumed.S, SigmaT: assumed.T, SigmaST: sst,
				},
			}
			alg := innetVariant(cmpg)
			rows = append(rows, Row{
				Labels: []string{actual.Name, assumed.Name},
				Value:  averaged(cfg, s, alg, totalKB),
			})
		}
	}
	return rows
}

// loadDistribution reproduces Figure 5: per-algorithm traffic at the 15
// most-loaded nodes.
func loadDistribution(cfg Config) []Row {
	s := setup{
		topoKind: topology.ModerateRandom,
		query:    "Q1",
		rates:    workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1},
		cycles:   cyclesFor(cfg, 100),
	}
	var rows []Row
	for _, alg := range moteAlgorithms(s.topoKind) {
		// Average the rank-k loads across runs (seeds fanned across the
		// worker pool; collected in seed order).
		const ranks = join.LoadRanks
		tops := engine.Sweep(cfg.Runs, cfg.Workers, func(i int) []int64 {
			return execute(s, cfg.Seed+uint64(i)*7919, alg).TopLoads
		})
		sums := make([][]float64, ranks)
		for _, top := range tops {
			for k := 0; k < ranks && k < len(top); k++ {
				sums[k] = append(sums[k], float64(top[k])/1024)
			}
		}
		for k := 0; k < ranks; k++ {
			rows = append(rows, Row{
				Labels: []string{alg.Name(), fmt.Sprintf("%d", k+1)},
				Value:  stats.Summarize(sums[k]),
			})
		}
	}
	return rows
}
