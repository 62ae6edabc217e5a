package experiments

import (
	"repro/internal/costmodel"
	"repro/internal/dht"
	"repro/internal/engine"
	"repro/internal/ght"
	"repro/internal/join"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

// setup describes one simulated run over a 100-node deployment with a
// 3-tree routing substrate.
type setup struct {
	topoKind topology.Kind
	query    string // "Q0".."Q3"
	nPairs   int    // Q0 pair count (0 = 10)
	rates    workload.Rates
	// optOverride, when non-nil, replaces the optimizer's assumed
	// selectivities (the cost-model validation experiments feed wrong
	// estimates on purpose).
	optOverride *costmodel.Params
	cycles      int
	loss        *float64 // per-hop loss (nil: the engine's 5%); the mesh runs and tab3 run lossless
	adapt       bool     // section 6's learning (engine.Options.Adapt)
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

// layout is the fixed deployment of a topology class: the one every run's
// engine builds (the paper fixes layouts and varies runs).
func layout(kind topology.Kind) *topology.Topology { return topology.Generate(kind, 100, 1) }

// deploy builds one run of s under alg: a one-query engine whose routing
// substrate is built once and charged to the engine's shared stream,
// outside the query's bill, as Table 3 excludes it. The query's data,
// loss stream and Query 0 endpoints derive from the run seed. The caller
// drives the engine; the returned Spec is the one submitted, which callers
// read after the query retires.
func deploy(s setup, seed uint64, alg join.Continuous) (*engine.Engine, *engine.Query, *workload.Spec) {
	e := engine.New(engine.Options{Kind: s.topoKind, LossProb: s.loss, Seed: seed, Adapt: s.adapt})
	// Query 0's endpoints are "random": redraw them per run seed so
	// averaging across runs also averages over endpoint placement, as the
	// paper's repeated runs do.
	spec, err := workload.Named(s.query, e.Topo, e.Nodes, s.nPairs, s.rates, 7^(seed*0x9E37))
	if err != nil {
		panic("experiments: " + err.Error())
	}
	q, err := e.Submit(engine.QueryConfig{
		Spec:      spec,
		Algorithm: alg,
		Opt:       s.optOverride,
		Sampler:   s.sampler(e.Topo, seed),
		Cycles:    s.cycles,
	})
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return e, q, spec
}

// execute runs alg once on seed's deployment of s and returns its result.
func execute(s setup, seed uint64, alg join.Continuous) *join.Result {
	e, q, _ := deploy(s, seed, alg)
	e.Run(s.cycles)
	return q.Result()
}

// sampler is a run's data source, seeded by the run seed: the humidity
// process for Query 3, otherwise a generator at s's rates with its skew or
// switch applied.
func (s setup) sampler(topo *topology.Topology, seed uint64) workload.Sampler {
	if s.query == "Q3" {
		return workload.HumiditySampler{H: workload.NewHumidity(topo, seed)}
	}
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
	return gen
}

// opt is what the optimizer of s's query with window w is told: the
// override when set, the ground truth otherwise.
func (s setup) opt(w int) costmodel.Params {
	p := costmodel.Params{SigmaS: s.rates.SigmaS, SigmaT: s.rates.SigmaT, SigmaST: s.rates.SigmaST}
	if s.optOverride != nil {
		p = *s.optOverride
	}
	p.W = w
	return p
}

// metric extracts one scalar from a run result.
type metric func(*join.Result) float64

var (
	totalKB    metric = func(r *join.Result) float64 { return float64(r.TotalBytes) / 1024 }
	baseKB     metric = func(r *join.Result) float64 { return float64(r.BaseBytes) / 1024 }
	maxNodeKB  metric = func(r *join.Result) float64 { return float64(r.MaxNodeBytes) / 1024 }
	totalKMsgs metric = func(r *join.Result) float64 { return float64(r.TotalMessages) / 1000 }
	baseKMsgs  metric = func(r *join.Result) float64 { return float64(r.BaseMessages) / 1000 }
)

// averaged runs alg over cfg.Runs seeds of s and summarizes m.
func averaged(cfg Config, s setup, alg join.Continuous, m metric) stats.Summary {
	return averagedMulti(cfg, s, alg, m)[0]
}

// averagedMulti runs alg once per seed — fanned across the worker pool —
// and summarizes several metrics from the same runs (a figure's "total"
// and "base" bars share simulations). Each seed's run is self-contained
// (its own one-query engine), so parallel seeds never share mutable state,
// and collecting in seed order keeps the summaries byte-identical at any
// worker count.
func averagedMulti(cfg Config, s setup, alg join.Continuous, ms ...metric) []stats.Summary {
	perRun := engine.Sweep(cfg.Runs, cfg.Workers, func(i int) []float64 {
		res := execute(s, cfg.Seed+uint64(i)*7919, alg)
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

// moteAlgorithms returns the paper's Figure 2/3 algorithm set over the
// layout of kind.
func moteAlgorithms(kind topology.Kind) []join.Continuous {
	return []join.Continuous{
		join.Naive{},
		join.Base{},
		join.Hashed{Label: "GHT", Router: ght.NewRouter(layout(kind))},
		join.Innet{},
		join.Innet{Opts: join.InnetOptions{Multicast: true, GroupOpt: true}},
		join.Innet{Opts: join.InnetOptions{Multicast: true, PathCollapse: true, GroupOpt: true}},
	}
}

// meshAlgorithms returns the Appendix F set (Figures 19-20) over the layout
// of kind.
func meshAlgorithms(kind topology.Kind) []join.Continuous {
	return []join.Continuous{
		join.Naive{},
		join.Base{},
		join.Hashed{Label: "DHT", Router: dht.NewRing(layout(kind))},
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
