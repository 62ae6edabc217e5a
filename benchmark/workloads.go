package main

import (
	"fmt"
	"runtime"
	"slices"

	"repro/internal/costmodel"
	"repro/internal/dht"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/ght"
	"repro/internal/join"
	"repro/internal/topology"
	"repro/internal/workload"
)

// engineSQL is the fixed query pool the SQL workloads draw from round-robin:
// a copy of internal/bench's pool, so the benchmark keeps compiling when
// that package is retired.
var engineSQL = []string{
	`SELECT S.id, T.id
FROM S, T [windowsize=3 sampleinterval=100]
WHERE S.id < 25 AND T.id > 50 AND S.x = T.y + 5 AND S.u = T.u`,
	`SELECT S.id, T.id
FROM S, T [windowsize=1 sampleinterval=100]
WHERE S.rid = 0 AND T.rid = 3 AND S.cid = T.cid AND S.id % 4 = T.id % 4 AND S.u = T.u`,
	`SELECT S.id, T.id
FROM S, T [windowsize=3 sampleinterval=100]
WHERE S.id < 10 AND T.id > 80 AND S.x = T.y + 5 AND S.u = T.u`,
	`SELECT S.id, T.id
FROM S, T [windowsize=3 sampleinterval=100]
WHERE S.id < 40 AND T.id > 60 AND S.x = T.y + 5 AND S.u = T.u`,
}

// defaultRates is the ground truth every workload generates data with (the
// engine's own default: the paper's 1/2:1/2 stage at sigma_st = 10%).
var defaultRates = workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1}

// Churn and link-fault constants shared by churn-1k and adapt-churn-1k (the
// two must run the same schedule so that their throughput ratio isolates
// adaptivity).
const (
	churnRate        = 0.0005
	churnReviveAfter = 10
	linkLoss         = 0.05
	linkFailRate     = 0.002
	linkReviveAfter  = 3
)

// Turnover constants: arrivals per epoch and each arrival's lifetime, so
// about arrivalsPerEpoch*arrivalLife queries are live in steady state.
const (
	arrivalsPerEpoch = 4
	arrivalLife      = 16
	q0TurnoverPairs  = 5
)

// spec is one workload's constants. Everything the engine sees is derived
// from these and the run seed in newInputs; nothing here is a flag.
type spec struct {
	name, why string
	kind      topology.Kind
	nodes     int
	trees     int
	// workers is engine.Options.Workers; parWorkers() for the -par twin.
	workers int
	// epochs is the steady Step count of one round; warmup is the number of
	// further Steps folded into set-up (turnover fills its live set there).
	epochs, warmup int
	// queries SQL queries are submitted round-robin over engineSQL before
	// the first Step.
	queries int
	// q0Pairs > 0 submits one Query0 with that many pairs instead.
	q0Pairs int
	// turnover submits arrivalsPerEpoch short-lived queries before every
	// Step, cycling the seven algorithms and six query shapes.
	turnover bool
	// churn applies the seeded node-churn schedule and link-fault plan;
	// adapt additionally turns the section-6 adaptivity phase on with wrong
	// initial estimates.
	churn, adapt bool
	// twin names the sequential workload whose Report this one must equal.
	twin string
}

// parWorkers is the worker count of the parallel twin: never more than the
// machine has cores.
func parWorkers() int { return min(4, runtime.NumCPU()) }

// workloads is the benchmark: six named input sets, in report order.
func workloads() []spec {
	return []spec{
		{name: "steady-100x256",
			why:  "256 SQL queries on 100 nodes, one worker: the join step, window probe and sim transfer hot path; construction is a small share of a round",
			kind: topology.ModerateRandom, nodes: 100, trees: 3, workers: 1, epochs: 500, queries: 256},
		{name: "steady-100x256-par",
			why:  "the same simulated work through the engine's worker pool, ledgers and barrier: its throughput over the sequential twin's is the parallel speed-up",
			kind: topology.ModerateRandom, nodes: 100, trees: 3, workers: parWorkers(), epochs: 500, queries: 256,
			twin: "steady-100x256"},
		{name: "turnover-100",
			why:  "4 short-lived queries arrive every epoch over all seven algorithms: compile, index extension, placement and retirement run beside stepping",
			kind: topology.ModerateRandom, nodes: 100, trees: 3, workers: 1, epochs: 1000, warmup: arrivalLife, turnover: true},
		{name: "churn-1k",
			why:  "1000 nodes under seeded node churn and link faults: tree repair, path repair and base fallback dominate the mean epoch while the median stays quiet",
			kind: topology.ModerateRandom, nodes: 1000, trees: 3, workers: 1, epochs: 300, queries: 2, churn: true},
		{name: "adapt-churn-1k",
			why:  "churn-1k's schedule with adaptivity on and wrong estimates: re-estimation, window migration and multicast-tree rebuilds do most of the work",
			kind: topology.ModerateRandom, nodes: 1000, trees: 3, workers: 1, epochs: 100, queries: 2, churn: true, adapt: true},
		{name: "build-100k",
			why:  "one 64-pair query on 100000 nodes: topology and routing-tree construction dominate a round, and the steady epochs are long multi-hop transfers",
			kind: topology.DenseRandom, nodes: 100000, trees: 1, workers: 1, epochs: 1000, q0Pairs: 64},
	}
}

// smoke shrinks a workload for the smoke test: few epochs, the 100k
// deployment cut to 10k nodes and the 1k ones to 200.
func (s spec) smoke() spec {
	s.epochs = min(s.epochs, 20)
	switch {
	case s.nodes > 10000:
		s.nodes = 10000
	case s.nodes > 200:
		s.nodes = 200
	}
	return s
}

// mix derives an independent 64-bit stream seed from the run seed and a tag
// (splitmix64 finalizer), so the harness needs no rng package of its own.
func mix(seed, tag uint64) uint64 {
	z := seed + (tag+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Seed tags: one per generated input.
const (
	tagEngine = iota
	tagChurn
	tagFaults
	tagQuery0
	tagArrivals
)

// scheduleSeed generates the inputs that are part of a workload's definition
// rather than of a run: the node-churn schedule, the link-fault plan and
// build-100k's pair draw, like the deployment layout, stay the same for every
// run seed. Measured on ten seeds at identical code, reseeding the failure
// schedule moved churn-1k's throughput by 24% and adapt-churn-1k's median
// epoch by 31% between quartiles, and redrawing the 64 pairs moved
// build-100k's throughput by 13%: more than any regression bound could sit
// above. The run seed drives the data instead: every sampler and loss stream
// (engine.Options.Seed), turnover's arrival order and its Query0 draws.
const scheduleSeed = 1

// algLabels are the metric-name-safe labels of the seven algorithms, in the
// order algorithms returns them.
var algLabels = []string{"innet_cmg", "innet", "base", "naive", "yang07", "ght", "dht"}

// algorithms builds the seven join strategies over one deployment (the two
// hashed ones need routers bound to its topology).
func algorithms(topo *topology.Topology) []join.Continuous {
	return []join.Continuous{
		join.Innet{Opts: join.InnetOptions{Multicast: true, GroupOpt: true}},
		join.Innet{},
		join.Base{},
		join.Naive{},
		join.Yang07{},
		join.Hashed{Label: "GHT", Router: ght.NewRouter(topo)},
		join.Hashed{Label: "DHT", Router: dht.NewRing(topo)},
	}
}

// Turnover cycles six query shapes: the four SQL texts, then Query1 and
// Query0.
const (
	shapeQuery1 = 4
	shapeQuery0 = 5
	numShapes   = 6
)

// inputs is everything one run feeds the engine, generated from the seed.
// Every round of a run uses the same inputs, so every round's Report must be
// identical.
type inputs struct {
	spec    spec
	opts    engine.Options
	q0Seed  uint64
	adaptQC engine.QueryConfig // algorithm and estimates overlay for adapt
	// order is turnover's arrival order: a seeded permutation of the
	// algorithm x shape combinations, repeated.
	order []int
	// churnEpoch[e] reports whether the churn schedule fails a node at
	// epoch e (the split behind engine.churn_epoch_p50_ms).
	churnEpoch []bool
}

func newInputs(s spec, seed uint64) *inputs {
	in := &inputs{spec: s, q0Seed: mix(seed, tagQuery0)}
	if s.q0Pairs > 0 {
		in.q0Seed = mix(scheduleSeed, tagQuery0)
	}
	if s.adapt {
		// With 4-cycle estimates adaptivity turns sampling noise into
		// migrations: across ten data seeds at identical code the same
		// workload ran 13 to 30 epochs/s. Its data streams are pinned too.
		seed = scheduleSeed
	}
	horizon := 1 + s.warmup + s.epochs
	in.opts = engine.Options{
		Kind: s.kind, Nodes: s.nodes, Trees: s.trees,
		Seed: mix(seed, tagEngine) | 1, Workers: s.workers, Adapt: s.adapt,
	}
	in.churnEpoch = make([]bool, horizon)
	if s.churn {
		in.opts.Churn = engine.SeededChurn(mix(scheduleSeed, tagChurn), s.nodes, horizon, churnRate, churnReviveAfter)
		for _, ev := range in.opts.Churn {
			if !ev.Revive {
				in.churnEpoch[ev.Epoch] = true
			}
		}
		in.opts.Faults = &faults.Config{Seed: mix(scheduleSeed, tagFaults),
			LinkLoss: linkLoss, LinkFailRate: linkFailRate, LinkReviveAfter: linkReviveAfter}
	}
	if s.adapt {
		in.adaptQC = engine.QueryConfig{
			Opt:       &costmodel.Params{SigmaS: 0.9, SigmaT: 0.1, SigmaST: 0.1},
			Algorithm: join.Innet{Opts: join.InnetOptions{Multicast: true, GroupOpt: true, EstimateInterval: 4}},
		}
	}
	if s.turnover {
		// Fisher-Yates over the 42 combinations, driven by the seed.
		in.order = make([]int, len(algLabels)*numShapes)
		for i := range in.order {
			in.order[i] = i
		}
		for i := len(in.order) - 1; i > 0; i-- {
			j := int(mix(seed, tagArrivals+uint64(i)) % uint64(i+1))
			in.order[i], in.order[j] = in.order[j], in.order[i]
		}
		// A deployment indexes the id attribute once, with the summary kind
		// of the first query that asks: Query1 needs the interval kind and
		// panics on Query0's Bloom filters, while Query0 runs on either. So
		// the first Query1 arrival always precedes the first Query0 one.
		first := func(shape int) int {
			return slices.IndexFunc(in.order, func(c int) bool { return c/len(algLabels) == shape })
		}
		if q1, q0 := first(shapeQuery1), first(shapeQuery0); q0 < q1 {
			in.order[q0], in.order[q1] = in.order[q1], in.order[q0]
		}
	}
	return in
}

// initial returns the queries submitted before the first Step.
func (in *inputs) initial(e *engine.Engine) []engine.QueryConfig {
	s := in.spec
	if s.q0Pairs > 0 {
		return []engine.QueryConfig{{ID: "q0",
			Spec: workload.Query0(e.Topo, e.Nodes, s.q0Pairs, defaultRates, in.q0Seed)}}
	}
	qcs := make([]engine.QueryConfig, s.queries)
	for i := range qcs {
		qcs[i] = in.adaptQC
		qcs[i].SQL = engineSQL[i%len(engineSQL)]
	}
	return qcs
}

// arrival returns turnover's i-th arriving query (i counts from 0 across
// the whole round).
func (in *inputs) arrival(e *engine.Engine, algs []join.Continuous, i int) engine.QueryConfig {
	combo := in.order[i%len(in.order)]
	qc := engine.QueryConfig{
		ID:        fmt.Sprintf("a%d", i),
		Algorithm: algs[combo%len(algs)],
		Cycles:    arrivalLife,
	}
	switch shape := combo / len(algs); shape {
	case shapeQuery1:
		qc.Spec = workload.Query1(e.Topo, e.Nodes, defaultRates)
	case shapeQuery0:
		qc.Spec = workload.Query0(e.Topo, e.Nodes, q0TurnoverPairs, defaultRates, mix(in.q0Seed, uint64(i)))
	default:
		qc.SQL = engineSQL[shape]
	}
	return qc
}
