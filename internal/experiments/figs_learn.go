package experiments

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/ght"
	"repro/internal/join"
	"repro/internal/topology"
	"repro/internal/workload"
)

func init() {
	register(&Experiment{
		ID:      "fig10",
		Title:   "Learning gain/loss: traffic with wrong initial estimates, with and without learning (Queries 0-2, 200 cycles)",
		Columns: []string{"query", "actual", "optimized-for", "learning", "traffic KB"},
		Run:     learningMatrix,
	})
	register(&Experiment{
		ID:      "fig11",
		Title:   "Learning vs duration: Query 0 (sigma_st=20%, w=3) with learning at 200/400/800 sampling cycles — wrong estimates converge toward correct ones",
		Columns: []string{"cycles", "actual", "optimized-for", "traffic KB"},
		Run:     learningDurations,
	})
	register(&Experiment{
		ID:      "fig12",
		Title:   "Spatial and temporal skew: initial Sel1/Sel2 estimates vs full knowledge vs learning (Queries 1-2, 800 cycles)",
		Columns: []string{"mode", "query", "scheme", "traffic MB"},
		Run:     skewLearning,
	})
	register(&Experiment{
		ID:      "fig13",
		Title:   "Intel dataset, Query 3: base/max/total traffic for Yang+07, GHT, Naive-Base, In-Net and In-Net learn (log-scale in the paper)",
		Columns: []string{"algorithm", "metric", "traffic KB"},
		Run:     intelLearning,
	})
}

// cmpg is the Innet-cmpg variant Figures 10-12 run, learning or not (the
// full MPO stack, per the paper's captions); setup.adapt switches the
// learning.
var cmpg = join.Innet{Opts: join.InnetOptions{Multicast: true, PathCollapse: true, GroupOpt: true}}

// learningMatrix reproduces Figure 10: for each query, each actual stage
// and each assumed stage, traffic with learning off and on.
func learningMatrix(cfg Config) []Row {
	queries := []struct {
		name string
		sst  float64
	}{{"Q0", 0.20}, {"Q1", 0.05}, {"Q2", 0.10}}
	if cfg.Quick {
		queries = queries[:1]
	}
	var rows []Row
	stages := ratioStages(cfg)
	for _, q := range queries {
		for _, actual := range stages {
			for _, assumed := range stages {
				s := setup{
					topoKind: topology.ModerateRandom,
					query:    q.name,
					rates:    workload.Rates{SigmaS: actual.S, SigmaT: actual.T, SigmaST: q.sst},
					cycles:   learningCycles(cfg, 200),
					optOverride: &costmodel.Params{
						SigmaS: assumed.S, SigmaT: assumed.T, SigmaST: q.sst,
					},
				}
				c := runsFor(cfg, 3)
				learn := s
				learn.adapt = true
				rows = append(rows,
					Row{Labels: []string{q.name, actual.Name, assumed.Name, "off"}, Value: averaged(c, s, cmpg, totalKB)},
					Row{Labels: []string{q.name, actual.Name, assumed.Name, "on"}, Value: averaged(c, learn, cmpg, totalKB)},
				)
			}
		}
	}
	return rows
}

// learningDurations reproduces Figure 11: the same matrix diagonal band at
// increasing run lengths, learning always on — longer runs wash out wrong
// initial estimates.
func learningDurations(cfg Config) []Row {
	durations := []int{200, 400, 800}
	if cfg.Quick {
		durations = []int{100, 200}
	}
	var rows []Row
	stages := ratioStages(cfg)
	for _, d := range durations {
		for _, actual := range stages {
			for _, assumed := range stages {
				s := setup{
					topoKind: topology.ModerateRandom,
					query:    "Q0",
					rates:    workload.Rates{SigmaS: actual.S, SigmaT: actual.T, SigmaST: 0.20},
					cycles:   d,
					optOverride: &costmodel.Params{
						SigmaS: assumed.S, SigmaT: assumed.T, SigmaST: 0.20,
					},
					adapt: true,
				}
				rows = append(rows, Row{
					Labels: []string{fmt.Sprintf("%d", d), actual.Name, assumed.Name},
					Value:  averaged(runsFor(cfg, 3), s, cmpg, totalKB),
				})
			}
		}
	}
	return rows
}

// Sel1 and Sel2 are the Figure 12 per-node selectivity profiles.
var (
	sel1 = workload.Rates{SigmaS: 0.10, SigmaT: 1.00, SigmaST: 0.05}
	sel2 = workload.Rates{SigmaS: 1.00, SigmaT: 0.10, SigmaST: 0.20}
)

// skewLearning reproduces Figure 12: (a) spatial skew — half the nodes
// generate under Sel1, half under Sel2; (b) temporal change — all nodes
// switch from Sel1 to Sel2 mid-run. Five schemes per query: optimize for
// Sel1, for Sel2, full knowledge (oracle), and the two learning runs.
func skewLearning(cfg Config) []Row {
	var rows []Row
	cycles := learningCycles(cfg, 800)
	toMB := func(r *join.Result) float64 { return float64(r.TotalBytes) / (1024 * 1024) }
	for _, mode := range []string{"spatial", "temporal"} {
		for _, q := range []string{"Q1", "Q2"} {
			base := setup{
				topoKind: topology.ModerateRandom,
				query:    q,
				cycles:   cycles,
			}
			if mode == "spatial" {
				base.rates = sel1 // defaults; skew overrides half
				base.skew = &skewSpec{sel1: sel1, sel2: sel2}
			} else {
				base.rates = sel1
				base.temporalSwitch = &switchSpec{at: cycles / 2, rates: sel2}
			}
			mid := workload.Rates{
				SigmaS:  (sel1.SigmaS + sel2.SigmaS) / 2,
				SigmaT:  (sel1.SigmaT + sel2.SigmaT) / 2,
				SigmaST: (sel1.SigmaST + sel2.SigmaST) / 2,
			}
			schemes := []struct {
				name  string
				opt   workload.Rates
				learn bool
			}{
				{"Sel1", sel1, false},
				{"Sel2", sel2, false},
				{"Full knowledge", mid, false},
				{"Sel1 learn", sel1, true},
				{"Sel2 learn", sel2, true},
			}
			for _, sc := range schemes {
				s := base
				s.optOverride = &costmodel.Params{
					SigmaS: sc.opt.SigmaS, SigmaT: sc.opt.SigmaT, SigmaST: sc.opt.SigmaST,
				}
				s.adapt = sc.learn
				rows = append(rows, Row{
					Labels: []string{mode, q, sc.name},
					Value:  averaged(runsFor(cfg, 3), s, cmpg, toMB),
				})
			}
		}
	}
	return rows
}

// intelLearning reproduces Figure 13: Query 3 on the Intel topology,
// initially optimized for sigma = 100% everywhere (which places all joins
// at the base), with learning migrating join nodes into the network.
func intelLearning(cfg Config) []Row {
	s := setup{
		topoKind: topology.Intel,
		query:    "Q3",
		rates:    workload.Rates{SigmaS: 1, SigmaT: 1, SigmaST: 0.20},
		cycles:   learningCycles(cfg, 200),
	}
	wrong := &costmodel.Params{SigmaS: 1, SigmaT: 1, SigmaST: 1}
	algs := []struct {
		name  string
		alg   join.Continuous
		opt   *costmodel.Params
		learn bool
	}{
		{"Yang+07", join.Yang07{}, nil, false},
		{"GHT/GPSR", join.Hashed{Label: "GHT", Router: ght.NewRouter(layout(s.topoKind))}, nil, false},
		{"Naive/Base", join.Base{}, nil, false},
		{"In-net", join.Innet{}, nil, false}, // full knowledge
		{"In-net learn", join.Innet{}, wrong, true},
	}
	var rows []Row
	for _, a := range algs {
		ss := s
		ss.optOverride, ss.adapt = a.opt, a.learn
		sums := averagedMulti(runsFor(cfg, 3), ss, a.alg, baseKB, maxNodeKB, totalKB)
		rows = append(rows,
			Row{Labels: []string{a.name, "base"}, Value: sums[0]},
			Row{Labels: []string{a.name, "max-node"}, Value: sums[1]},
			Row{Labels: []string{a.name, "total"}, Value: sums[2]},
		)
	}
	return rows
}
