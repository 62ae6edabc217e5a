package experiments

import (
	"repro/internal/costmodel"
	"repro/internal/dht"
	"repro/internal/engine"
	"repro/internal/ght"
	"repro/internal/join"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

// moteLoss is the per-hop loss probability for mote (TOSSIM-like) runs.
const moteLoss = 0.05

// setup describes one simulated run. Zero values take paper defaults.
type setup struct {
	topoKind topology.Kind
	n        int
	query    string // "Q0".."Q3"
	nPairs   int    // Q0 pair count
	rates    workload.Rates
	// optOverride, when non-nil, replaces the optimizer's assumed
	// selectivities (the cost-model validation experiments feed wrong
	// estimates on purpose).
	optOverride *costmodel.Params
	cycles      int
	trees       int
	mesh        bool // mesh mode: lossless, message-counting
	// skew configures per-node Sel1/Sel2 halves; temporalSwitch switches
	// all nodes' rates mid-run.
	skew           *skewSpec
	temporalSwitch *switchSpec
}

type skewSpec struct {
	sel1, sel2 workload.Rates
}

type switchSpec struct {
	at    int
	rates workload.Rates
}

// built is a fully wired run environment.
type built struct {
	topo  *topology.Topology
	nodes []workload.NodeInfo
	spec  *workload.Spec
	cfg   *join.Config
}

// build wires a Config for one run seed. The topology layout is fixed per
// setup (the paper fixes layouts and varies runs); data and loss seeds
// derive from the run seed.
func build(s setup, seed uint64) *built {
	if s.n == 0 {
		s.n = 100
	}
	if s.cycles == 0 {
		s.cycles = 100
	}
	if s.trees == 0 {
		s.trees = 3
	}
	topo := topology.Generate(s.topoKind, s.n, 1)
	nodes := workload.BuildNodes(topo, 1)
	var spec *workload.Spec
	switch s.query {
	case "Q0":
		np := s.nPairs
		if np == 0 {
			np = 10
		}
		// Query 0's endpoints are "random": redraw them per run seed so
		// averaging across runs also averages over endpoint placement,
		// as the paper's repeated runs do.
		spec = workload.Query0(topo, nodes, np, s.rates, 7^(seed*0x9E37))
	case "Q1":
		spec = workload.Query1(topo, nodes, s.rates)
	case "Q2":
		spec = workload.Query2(topo, nodes, s.rates)
	case "Q3":
		spec = workload.Query3(topo, nodes, s.rates)
	default:
		panic("experiments: unknown query " + s.query)
	}
	loss := moteLoss
	if s.mesh {
		loss = 0
	}
	net := sim.NewNetwork(topo, loss, seed^0x105E)
	sub := routing.NewSubstrate(topo, routing.Options{
		NumTrees:       s.trees,
		Indexes:        spec.Indexes,
		IndexPositions: spec.IndexPositions,
	}, nil)
	var sampler workload.Sampler
	if s.query == "Q3" {
		sampler = workload.HumiditySampler{H: workload.NewHumidity(topo, seed)}
	} else {
		gen := workload.NewGenerator(s.rates, seed)
		if s.skew != nil {
			for i := 0; i < topo.N(); i++ {
				if i%2 == 0 {
					gen.SetNodeRates(topology.NodeID(i), s.skew.sel1)
				} else {
					gen.SetNodeRates(topology.NodeID(i), s.skew.sel2)
				}
			}
		}
		if s.temporalSwitch != nil {
			gen.SetSwitch(s.temporalSwitch.at, s.temporalSwitch.rates)
		}
		sampler = gen
	}
	opt := costmodel.Params{
		SigmaS:  s.rates.SigmaS,
		SigmaT:  s.rates.SigmaT,
		SigmaST: s.rates.SigmaST,
		W:       spec.W,
	}
	if s.optOverride != nil {
		opt = *s.optOverride
		opt.W = spec.W
	}
	cfg := join.NewConfig(topo, net, sub, spec, sampler, opt, s.cycles)
	return &built{topo: topo, nodes: nodes, spec: spec, cfg: cfg}
}

// metric extracts one scalar from a run result.
type metric func(*join.Result) float64

var (
	totalKB    metric = func(r *join.Result) float64 { return float64(r.TotalBytes) / 1024 }
	baseKB     metric = func(r *join.Result) float64 { return float64(r.BaseBytes) / 1024 }
	maxNodeKB  metric = func(r *join.Result) float64 { return float64(r.MaxNodeBytes) / 1024 }
	totalKMsgs metric = func(r *join.Result) float64 { return float64(r.TotalMessages) / 1000 }
	baseKMsgs  metric = func(r *join.Result) float64 { return float64(r.BaseMessages) / 1000 }
	meanDelay  metric = func(r *join.Result) float64 { return r.MeanDelay() }
)

// averaged runs alg over cfg.Runs seeds of s and summarizes m.
func averaged(cfg Config, s setup, alg join.Algorithm, m metric) stats.Summary {
	return averagedMulti(cfg, s, alg, m)[0]
}

// averagedMulti runs alg once per seed — fanned across the worker pool —
// and summarizes several metrics from the same runs (a figure's "total"
// and "base" bars share simulations). Each seed's run is self-contained
// (own topology, network, substrate, sampler), so parallel seeds never
// share mutable state, and collecting in seed order keeps the summaries
// byte-identical at any worker count.
func averagedMulti(cfg Config, s setup, alg join.Algorithm, ms ...metric) []stats.Summary {
	perRun := engine.Sweep(cfg.Runs, cfg.Workers, func(i int) []float64 {
		b := build(s, cfg.Seed+uint64(i)*7919)
		res := alg.Run(b.cfg)
		row := make([]float64, len(ms))
		for k, m := range ms {
			row[k] = m(res)
		}
		return row
	})
	out := make([]stats.Summary, len(ms))
	for k := range ms {
		vals := make([]float64, cfg.Runs)
		for i, row := range perRun {
			vals[i] = row[k]
		}
		out[k] = stats.Summarize(vals)
	}
	return out
}

// moteAlgorithms returns the paper's Figure 2/3 algorithm set.
func moteAlgorithms(topo *topology.Topology) []join.Algorithm {
	return []join.Algorithm{
		join.Naive{},
		join.Base{},
		join.Hashed{Label: "GHT", Router: ght.NewRouter(topo)},
		join.Innet{},
		join.Innet{Opts: join.InnetOptions{Multicast: true, GroupOpt: true}},
		join.Innet{Opts: join.InnetOptions{Multicast: true, PathCollapse: true, GroupOpt: true}},
	}
}

// meshAlgorithms returns the Appendix F set (Figures 19-20).
func meshAlgorithms(topo *topology.Topology) []join.Algorithm {
	return []join.Algorithm{
		join.Naive{},
		join.Base{},
		join.Hashed{Label: "DHT", Router: dht.NewRing(topo)},
		join.Innet{Opts: join.InnetOptions{Multicast: true, GroupOpt: true}},
	}
}

// ratioStages returns the sweep stages; quick mode keeps the two extremes
// and the symmetric middle so skew effects remain visible.
func ratioStages(cfg Config) []struct {
	Name string
	S, T float64
} {
	if cfg.Quick {
		all := workload.RatioStages
		return []struct {
			Name string
			S, T float64
		}{all[0], all[2], all[4]}
	}
	return workload.RatioStages
}

// joinSels returns the sigma_st sweep, trimmed in quick mode.
func joinSels(cfg Config) []float64 {
	if cfg.Quick {
		return workload.JoinSelectivities[:2:2]
	}
	return workload.JoinSelectivities
}

// cyclesFor trims run length in quick mode.
func cyclesFor(cfg Config, full int) int {
	if cfg.Quick && full > 40 {
		return 40
	}
	return full
}

// learningCycles trims less aggressively: adaptivity needs enough cycles
// to estimate (interval 10), migrate and amortize the migration cost, so
// quick mode keeps 120 cycles.
func learningCycles(cfg Config, full int) int {
	if cfg.Quick && full > 120 {
		return 120
	}
	return full
}

// runsFor allows an experiment to force fewer runs for very slow sweeps.
func runsFor(cfg Config, most int) Config {
	if cfg.Runs > most {
		cfg.Runs = most
	}
	return cfg
}

// summarizeOrZero summarizes xs, returning a zero summary for no samples.
func summarizeOrZero(xs []float64) stats.Summary {
	if len(xs) == 0 {
		return stats.Summary{}
	}
	return stats.Summarize(xs)
}
