// Package aspen is the public API of this reproduction of "Dynamic Join
// Optimization in Multi-Hop Wireless Sensor Networks" (Mihaylov, Jacob,
// Ives, Guha — VLDB 2010): the sensor-network join subsystem of the Aspen
// data integration system, rebuilt as a Go library over a deterministic
// network simulator.
//
// The facade covers the common cases — build a deployment, pick one of the
// paper's queries and algorithms, run it, and read the traffic/result
// report — and exposes the full experiment registry that regenerates every
// table and figure of the paper. Lower-level building blocks (the routing
// substrate, cost model, window engine, MPO machinery) live in the
// internal packages and are documented in DESIGN.md.
package aspen

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/costmodel"
	"repro/internal/dht"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/ght"
	"repro/internal/join"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TopologyKind names a deployment class from the paper's evaluation.
type TopologyKind string

// Deployment classes (section 4.1, Appendix C).
const (
	SparseRandom   TopologyKind = "sparse"   // ~6 neighbours/node
	ModerateRandom TopologyKind = "moderate" // ~7 neighbours/node (default)
	MediumRandom   TopologyKind = "medium"   // ~8 neighbours/node
	DenseRandom    TopologyKind = "dense"    // ~13 neighbours/node
	Grid           TopologyKind = "grid"     // regular grid, ~7 neighbours
	Intel          TopologyKind = "intel"    // 54-mote Intel-Berkeley lab
)

func (k TopologyKind) kind() (topology.Kind, error) {
	switch k {
	case SparseRandom:
		return topology.SparseRandom, nil
	case ModerateRandom, "":
		return topology.ModerateRandom, nil
	case MediumRandom:
		return topology.MediumRandom, nil
	case DenseRandom:
		return topology.DenseRandom, nil
	case Grid:
		return topology.Grid, nil
	case Intel:
		return topology.Intel, nil
	default:
		return 0, fmt.Errorf("aspen: unknown topology kind %q", k)
	}
}

// Query names one of Table 2's workload queries.
type Query string

// The paper's four evaluation queries.
const (
	// Query0 is the 1:1 join with random endpoints (S.u = T.u).
	Query0 Query = "Q0"
	// Query1 is the m:n join with uniform endpoints
	// (S.id<25, T.id>50, S.x=T.y+5, S.u=T.u).
	Query1 Query = "Q1"
	// Query2 is the perimeter join
	// (S.rid=0, T.rid=3, S.cid=T.cid, S.id%4=T.id%4, S.u=T.u).
	Query2 Query = "Q2"
	// Query3 is the region join over humidity readings
	// (Dst<5m, s.id<t.id, |s.v-t.v|>1000).
	Query3 Query = "Q3"
)

// Algorithm names a join strategy.
type Algorithm string

// The paper's join algorithms and the MPO/learning variants.
const (
	Naive      Algorithm = "Naive"
	Base       Algorithm = "Base"
	Yang07     Algorithm = "Yang+07"
	GHT        Algorithm = "GHT"
	DHT        Algorithm = "DHT"
	Innet      Algorithm = "Innet"
	InnetCM    Algorithm = "Innet-cm"
	InnetCMG   Algorithm = "Innet-cmg"
	InnetCMPG  Algorithm = "Innet-cmpg"
	InnetLearn Algorithm = "Innet learn"
)

// Algorithms lists every supported algorithm name.
func Algorithms() []Algorithm {
	return []Algorithm{Naive, Base, Yang07, GHT, DHT, Innet, InnetCM, InnetCMG, InnetCMPG, InnetLearn}
}

// Rates are the workload selectivities: SigmaS/SigmaT are producer send
// probabilities per sampling cycle, SigmaST the pairwise join selectivity.
type Rates struct {
	SigmaS, SigmaT, SigmaST float64
}

// Config describes one simulation run.
type Config struct {
	// Topology selects the deployment (default ModerateRandom).
	Topology TopologyKind
	// Nodes is the deployment size (default 100; fixed at 54 for Intel).
	Nodes int
	// Query selects the workload (default Query1).
	Query Query
	// Pairs is Query0's random pair count (default 10).
	Pairs int
	// Rates are the data-generation ground truth (default the paper's
	// 1/2:1/2 stage with sigma_st = 10%).
	Rates Rates
	// OptimizerRates, when non-nil, feeds the optimizer different
	// (possibly wrong) estimates than the ground truth — the setting of
	// the paper's cost-model validation and learning experiments.
	OptimizerRates *Rates
	// Algorithm selects the join strategy (default InnetCMG).
	Algorithm Algorithm
	// Cycles is the number of sampling cycles (default 100).
	Cycles int
	// Seed makes the run reproducible (default 1).
	Seed uint64
	// LossProb is the per-hop packet loss probability (default 5%, the
	// mote setting; use 0 for mesh-style runs).
	LossProb *float64
	// Trees is the number of routing trees in the substrate (default 3).
	Trees int
	// FailJoinNode, when set, permanently fails the first pair's join
	// node halfway through the run (section 7's experiment).
	FailJoinNode bool
	// Merge enables Appendix E's opportunistic packet merging on the
	// join-at-base data path (Naive and Base only).
	Merge bool
}

// Report is what a run produces.
type Report struct {
	// Algorithm echoes the strategy that ran.
	Algorithm Algorithm
	// TotalBytes / TotalMessages are network-wide transmission totals,
	// including retransmissions and initiation.
	TotalBytes, TotalMessages int64
	// InitBytes is the initiation-phase share of TotalBytes.
	InitBytes int64
	// BaseBytes is traffic sent or received by the base station.
	BaseBytes int64
	// MaxNodeBytes is the heaviest per-node transmit load.
	MaxNodeBytes int64
	// Results counts join results delivered to the base station.
	Results int
	// MeanDelay is the average gap between delivered results, in cycles.
	MeanDelay float64
	// Migrations counts adaptive join-node moves (learning variants).
	Migrations int
	// InNetPairs / AtBasePairs report where producer pairs ended up.
	InNetPairs, AtBasePairs int
}

// Run executes one simulation.
func Run(cfg Config) (*Report, error) {
	kind, err := cfg.Topology.kind()
	if err != nil {
		return nil, err
	}
	n := cfg.Nodes
	if n == 0 {
		n = 100
	}
	if cfg.Cycles == 0 {
		cfg.Cycles = 100
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Trees == 0 {
		cfg.Trees = 3
	}
	if cfg.Rates == (Rates{}) {
		cfg.Rates = Rates(defaultRates)
	}
	topo := topology.Generate(kind, n, 1)
	nodes := workload.BuildNodes(topo, 1)
	rates := workload.Rates(cfg.Rates)
	spec, err := specFor(cfg.Query, topo, nodes, cfg.Pairs, rates, cfg.Seed)
	if err != nil {
		return nil, err
	}
	loss := 0.05
	if cfg.LossProb != nil {
		loss = *cfg.LossProb
	}
	net := sim.NewNetwork(topo, loss, cfg.Seed^0x105E)
	sub := routing.NewSubstrate(topo, routing.Options{
		NumTrees:       cfg.Trees,
		Indexes:        spec.Indexes,
		IndexPositions: spec.IndexPositions,
	}, nil)
	var sampler workload.Sampler
	if cfg.Query == Query3 {
		sampler = workload.HumiditySampler{H: workload.NewHumidity(topo, cfg.Seed)}
	} else {
		sampler = workload.NewGenerator(rates, cfg.Seed)
	}
	opt := costmodel.Params{
		SigmaS: rates.SigmaS, SigmaT: rates.SigmaT, SigmaST: rates.SigmaST, W: spec.W,
	}
	if cfg.OptimizerRates != nil {
		opt.SigmaS = cfg.OptimizerRates.SigmaS
		opt.SigmaT = cfg.OptimizerRates.SigmaT
		opt.SigmaST = cfg.OptimizerRates.SigmaST
	}
	jc := join.NewConfig(topo, net, sub, spec, sampler, opt, cfg.Cycles)
	jc.Merge = cfg.Merge
	alg, err := algorithmFor(cfg.Algorithm, topo)
	if err != nil {
		return nil, err
	}
	var res *join.Result
	if cfg.FailJoinNode {
		// Locate a victim join node with a dry run, then re-run and fail it
		// between two sampling cycles.
		probe := alg.Run(jc)
		if len(probe.PairJoinNodes) == 0 {
			return nil, fmt.Errorf("aspen: no in-network join node to fail")
		}
		net = sim.NewNetwork(topo, loss, cfg.Seed^0x105E)
		if cfg.Query != Query3 {
			sampler = workload.NewGenerator(rates, cfg.Seed)
		} else {
			sampler = workload.HumiditySampler{H: workload.NewHumidity(topo, cfg.Seed)}
		}
		jc = join.NewConfig(topo, net, sub, spec, sampler, opt, cfg.Cycles)
		jc.Merge = cfg.Merge
		failAt := cfg.Cycles / 2
		st := alg.Start(jc)
		join.RunCycles(st, 0, failAt)
		net.Fail(probe.PairJoinNodes[0])
		join.RunCycles(st, failAt, cfg.Cycles)
		res = st.Finish()
	} else {
		res = alg.Run(jc)
	}
	return &Report{
		Algorithm:     Algorithm(res.Algorithm),
		TotalBytes:    res.TotalBytes,
		TotalMessages: res.TotalMessages,
		InitBytes:     res.InitBytes,
		BaseBytes:     res.BaseBytes,
		MaxNodeBytes:  res.MaxNodeBytes,
		Results:       res.Results,
		MeanDelay:     res.MeanDelay(),
		Migrations:    res.Migrations,
		InNetPairs:    res.InNetPairs,
		AtBasePairs:   res.AtBasePairs,
	}, nil
}

// defaultRates is the paper's 1/2:1/2 stage with sigma_st = 10%.
var defaultRates = workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1}

// specFor compiles a Table 2 query name into an executable spec — the one
// place the name→constructor mapping lives, shared by Run and
// Engine.Submit. Query 0's random endpoints derive from the run seed.
func specFor(q Query, topo *topology.Topology, nodes []workload.NodeInfo, pairs int, rates workload.Rates, seed uint64) (*workload.Spec, error) {
	switch q {
	case Query0:
		if pairs == 0 {
			pairs = 10
		}
		return workload.Query0(topo, nodes, pairs, rates, seed^7), nil
	case Query1, "":
		return workload.Query1(topo, nodes, rates), nil
	case Query2:
		return workload.Query2(topo, nodes, rates), nil
	case Query3:
		return workload.Query3(topo, nodes, rates), nil
	default:
		return nil, fmt.Errorf("aspen: unknown query %q", q)
	}
}

func algorithmFor(name Algorithm, topo *topology.Topology) (join.Continuous, error) {
	switch name {
	case Naive:
		return join.Naive{}, nil
	case Base:
		return join.Base{}, nil
	case Yang07:
		return join.Yang07{}, nil
	case GHT:
		return join.Hashed{Label: "GHT", Router: ght.NewRouter(topo)}, nil
	case DHT:
		return join.Hashed{Label: "DHT", Router: dht.NewRing(topo)}, nil
	case Innet:
		return join.Innet{}, nil
	case InnetCM:
		return join.Innet{Opts: join.InnetOptions{Multicast: true}}, nil
	case InnetCMG, "":
		return join.Innet{Opts: join.InnetOptions{Multicast: true, GroupOpt: true}}, nil
	case InnetCMPG:
		return join.Innet{Opts: join.InnetOptions{Multicast: true, PathCollapse: true, GroupOpt: true}}, nil
	case InnetLearn:
		return join.Innet{Opts: join.InnetOptions{Multicast: true, PathCollapse: true, GroupOpt: true, Learn: true}}, nil
	default:
		return nil, fmt.Errorf("aspen: unknown algorithm %q", name)
	}
}

// --- Continuous multi-query execution (internal/engine) ---------------------

// ChurnEvent schedules one node failure or revival in an Engine's shared
// deployment (section 7 as a workload axis). Events apply at the top of
// their epoch, before any query runs its sampling cycle; a failed node is
// dead in the shared substrate and in every query's network at once, and
// each failure triggers engine-wide recovery (path repair, tree rebuilds,
// base-station fallback).
type ChurnEvent struct {
	// Epoch is the scheduler epoch the event applies at.
	Epoch int
	// Node is the affected node ID. The base station (node 0) may not
	// churn.
	Node int
	// Revive restores the node instead of failing it.
	Revive bool
}

// SeededChurn derives a deterministic churn schedule: each epoch in
// [0, epochs), every alive non-base node of an n-node deployment fails
// with probability rate; with reviveAfter > 0 a failed node revives that
// many epochs later (0 = permanent failures).
func SeededChurn(seed uint64, nodes, epochs int, rate float64, reviveAfter int) []ChurnEvent {
	evs := engine.SeededChurn(seed, nodes, epochs, rate, reviveAfter)
	out := make([]ChurnEvent, len(evs))
	for i, ev := range evs {
		out[i] = ChurnEvent{Epoch: ev.Epoch, Node: int(ev.Node), Revive: ev.Revive}
	}
	return out
}

// RetryPolicy configures the per-hop ARQ model every transfer in the
// deployment pays: how many retransmissions a hop attempts before the
// message is dropped, optionally per traffic class, and a linear backoff
// byte cost per retransmission. Build one with NewRetryPolicy and override
// fields — the zero value means "no retries for any class", which is
// expressible but rarely wanted.
type RetryPolicy struct {
	// MaxRetries bounds retransmissions per hop after the first attempt
	// for classes without an override (the paper's mote setting is 3).
	MaxRetries int
	// Control / Data / Result / Migration override MaxRetries for one
	// traffic class when >= 0; negative values (what NewRetryPolicy sets)
	// inherit MaxRetries.
	Control, Data, Result, Migration int
	// BackoffBytes charges this many extra bytes per retransmission to
	// the transmitting node — radio listen/backoff energy, not frames, so
	// it never adds messages. 0 disables the backoff cost model.
	BackoffBytes int
}

// NewRetryPolicy returns a policy retrying every class maxRetries times
// with no backoff cost; NewRetryPolicy(3) is the engine default.
func NewRetryPolicy(maxRetries int) RetryPolicy {
	return RetryPolicy{MaxRetries: maxRetries, Control: -1, Data: -1, Result: -1, Migration: -1}
}

func (p RetryPolicy) policy() sim.RetryPolicy {
	return sim.RetryPolicy{
		MaxRetries:   p.MaxRetries,
		PerKind:      [4]int{p.Control, p.Data, p.Result, p.Migration},
		BackoffBytes: p.BackoffBytes,
	}
}

// PartitionWindow schedules one network partition in a FaultConfig: for
// epochs in [From, Until) a set of radio links is cut, splitting the
// deployment. Region < 0 bisects the field at the median x coordinate;
// Region 0..3 severs the workload's horizontal region band from the rest
// (the bands Query 2 joins across).
type PartitionWindow struct {
	From, Until int
	Region      int
}

// FaultConfig describes a deterministic link-fault plan for an Engine's
// deployment: a seeded layer of per-link loss, transient link failures,
// duplication, bounded delay, and scheduled partitions, drawn once from
// Seed so every run of the same config injects the identical fault
// sequence at any worker count. The zero value injects nothing.
type FaultConfig struct {
	// Seed derives the whole plan (0 uses the engine seed).
	Seed uint64
	// LinkLoss adds heterogeneous per-link loss on top of the uniform
	// LossProb: each link draws extra loss in [0.5, 1.5) x LinkLoss.
	LinkLoss float64
	// LinkFailRate fails each healthy link per epoch with this
	// probability; LinkReviveAfter revives a failed link that many epochs
	// later (0 = permanent link failures).
	LinkFailRate    float64
	LinkReviveAfter int
	// DupProb delivers a duplicate copy of a delivered message with this
	// per-link probability (charged, counted, discarded by the receiver).
	DupProb float64
	// DelayMax assigns each link a fixed delivery delay in [0, DelayMax]
	// transmission slots (accounted, never reordering).
	DelayMax int
	// Partitions schedules network splits (see PartitionWindow).
	Partitions []PartitionWindow
}

func (c *FaultConfig) config(seed uint64) *faults.Config {
	if c == nil {
		return nil
	}
	out := &faults.Config{
		Seed:            c.Seed,
		LinkLoss:        c.LinkLoss,
		LinkFailRate:    c.LinkFailRate,
		LinkReviveAfter: c.LinkReviveAfter,
		DupProb:         c.DupProb,
		DelayMax:        c.DelayMax,
	}
	if out.Seed == 0 {
		out.Seed = seed
	}
	for _, p := range c.Partitions {
		fp := faults.Partition{From: p.From, Until: p.Until, Kind: faults.Bisect}
		if p.Region >= 0 {
			fp.Kind, fp.Region = faults.Region, p.Region
		}
		out.Partitions = append(out.Partitions, fp)
	}
	return out
}

// EngineConfig describes the shared deployment a multi-query Engine
// schedules over.
type EngineConfig struct {
	// Topology selects the deployment (default ModerateRandom).
	Topology TopologyKind
	// Nodes is the deployment size (default 100).
	Nodes int
	// Trees is the routing-substrate tree count (default 3).
	Trees int
	// Seed makes every run of the engine reproducible (default 1).
	Seed uint64
	// LossProb is the per-hop loss probability (default 5%).
	LossProb *float64
	// MaxRetries bounds per-hop retransmissions for every traffic class:
	// 0 means the default (3, the paper's mote setting), a negative value
	// disables retries entirely. Ignored when Retry is set.
	MaxRetries int
	// Retry, when non-nil, installs a full per-class retry/backoff policy
	// (see RetryPolicy); it takes precedence over MaxRetries.
	Retry *RetryPolicy
	// Faults, when non-nil, installs a deterministic link-fault plan —
	// lossy links, transient link failures, duplication, delay, scheduled
	// partitions — on the shared deployment (see FaultConfig).
	Faults *FaultConfig
	// Churn is the deployment's fail/revive schedule (empty = no churn).
	Churn []ChurnEvent
	// Adapt enables the engine's adaptivity phase: each epoch, after churn
	// recovery and before query stepping, join nodes re-estimate their
	// pairs' selectivities from observed traffic and migrate join windows
	// when the estimates diverge ≥33% from what the current placement was
	// optimized for (the paper's section 6, run at deployment scope). A
	// migration whose target node died aborts into the base-station
	// fallback instead.
	Adapt bool
	// Workers is the number of goroutines the scheduler uses to step live
	// queries concurrently within an epoch: 0 or 1 runs sequentially, a
	// negative value uses every CPU core. Reports are byte-identical at
	// any worker count; only wall-clock time changes.
	Workers int
	// Metrics enables the engine's metrics registry: lifecycle counters,
	// churn recovery tallies, per-traffic-class byte gauges, join-state
	// sizes and epoch/phase wall-time histograms, readable at any time via
	// Engine.Snapshot. Observation never feeds back into execution — a
	// metered run's report is byte-identical to an unmetered one.
	Metrics bool
	// Trace enables the epoch trace recorder: scheduler-phase and
	// per-query spans exportable with Engine.WriteTrace (Chrome
	// trace_event form, loadable in chrome://tracing) or
	// Engine.WriteTraceJSONL. Same non-interference guarantee as Metrics.
	Trace bool
}

// DeploymentNodes returns the node count an engine built from this config
// will deploy — the default of 100, and Intel's fixed 54 motes (for which
// Nodes is ignored). Seeded churn schedules must be materialized against
// this count, not the raw Nodes field.
func (c EngineConfig) DeploymentNodes() (int, error) {
	kind, err := c.Topology.kind()
	if err != nil {
		return 0, err
	}
	return engine.EffectiveNodes(kind, c.Nodes), nil
}

// QueryJob describes one continuous query submitted to an Engine: either
// StreamSQL text or one of Table 2's named queries, plus its strategy and
// lifetime.
type QueryJob struct {
	// ID labels the query in reports (default "q<n>"); must be unique.
	ID string
	// SQL is StreamSQL query text, compiled against the deployment.
	// Exactly one of SQL and Query must be set.
	SQL string
	// Query names a Table 2 query (Query0..Query3) to run programmatically.
	Query Query
	// Pairs is Query0's random pair count (default 10).
	Pairs int
	// Algorithm selects the join strategy (default InnetCMG).
	Algorithm Algorithm
	// Rates are the query's data-generation ground truth (default the
	// paper's 1/2:1/2 stage with sigma_st = 10%).
	Rates Rates
	// OptimizerRates, when non-nil, feeds the optimizer wrong estimates.
	OptimizerRates *Rates
	// Cycles is the query lifetime in epochs (0 = until the run's horizon).
	Cycles int
	// AdmitAt is the epoch at which the query enters the network.
	AdmitAt int
}

// Engine runs many continuous queries concurrently over ONE shared
// deployment, epoch by epoch, charging shared infrastructure traffic
// (routing-tree construction, summary dissemination) once per network
// instead of once per query. Create with NewEngine, add queries with
// Submit, execute with Run, inspect with Report.
type Engine struct {
	eng    *engine.Engine
	seed   uint64
	reg    *obs.Registry
	tracer *obs.Tracer
}

// NewEngine builds the shared deployment and its routing substrate; the
// substrate construction traffic is charged once to the engine's shared
// metrics stream.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	kind, err := cfg.Topology.kind()
	if err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	opts := engine.Options{
		Kind:    kind,
		Nodes:   cfg.Nodes,
		Trees:   cfg.Trees,
		Seed:    seed,
		Adapt:   cfg.Adapt,
		Workers: cfg.Workers,
	}
	var reg *obs.Registry
	var tracer *obs.Tracer
	if cfg.Metrics {
		reg = obs.NewRegistry()
		opts.Obs = reg
	}
	if cfg.Trace {
		tracer = obs.NewTracer()
		opts.Trace = tracer
	}
	if cfg.LossProb != nil {
		opts.LossProb = *cfg.LossProb
		opts.Lossless = *cfg.LossProb == 0
	}
	opts.Faults = cfg.Faults.config(seed)
	switch {
	case cfg.Retry != nil:
		p := cfg.Retry.policy()
		opts.Retry = &p
	case cfg.MaxRetries != 0:
		p := sim.DefaultRetryPolicy()
		p.MaxRetries = cfg.MaxRetries
		if p.MaxRetries < 0 {
			p.MaxRetries = 0
		}
		opts.Retry = &p
	}
	nodes := engine.EffectiveNodes(kind, cfg.Nodes)
	for _, ev := range cfg.Churn {
		if ev.Node <= 0 || ev.Node >= nodes {
			return nil, fmt.Errorf("aspen: churn event names node %d outside the deployment (1..%d; the base station never churns)", ev.Node, nodes-1)
		}
		opts.Churn = append(opts.Churn, engine.ChurnEvent{
			Epoch: ev.Epoch, Node: topology.NodeID(ev.Node), Revive: ev.Revive,
		})
	}
	return &Engine{eng: engine.New(opts), seed: seed, reg: reg, tracer: tracer}, nil
}

// Submit compiles and registers a query, returning its report ID. It may
// be called before Run and between Run calls; admission happens at the
// query's AdmitAt epoch.
func (e *Engine) Submit(job QueryJob) (string, error) {
	if (job.SQL == "") == (job.Query == "") {
		return "", fmt.Errorf("aspen: job must set exactly one of SQL and Query")
	}
	alg, err := algorithmFor(job.Algorithm, e.eng.Topo)
	if err != nil {
		return "", err
	}
	rates := workload.Rates(job.Rates)
	if rates == (workload.Rates{}) {
		rates = defaultRates
	}
	qc := engine.QueryConfig{
		ID:        job.ID,
		SQL:       job.SQL,
		Algorithm: alg,
		Rates:     rates,
		Cycles:    job.Cycles,
		AdmitAt:   job.AdmitAt,
	}
	if job.Query != "" {
		spec, err := specFor(job.Query, e.eng.Topo, e.eng.Nodes, job.Pairs, rates, e.seed)
		if err != nil {
			return "", err
		}
		qc.Spec = spec
		if job.Query == Query3 {
			qc.Sampler = workload.HumiditySampler{H: workload.NewHumidity(e.eng.Topo, e.seed)}
		}
	}
	if job.OptimizerRates != nil {
		qc.Opt = &costmodel.Params{
			SigmaS:  job.OptimizerRates.SigmaS,
			SigmaT:  job.OptimizerRates.SigmaT,
			SigmaST: job.OptimizerRates.SigmaST,
		}
	}
	q, err := e.eng.Submit(qc)
	if err != nil {
		return "", err
	}
	return q.ID, nil
}

// EpochStats streams one scheduler epoch's events to an OnEpoch hook.
//
// The NewResults map is only valid during the callback — the engine
// reuses it across epochs. Hooks that retain stats must clone it.
type EpochStats struct {
	// Epoch is the epoch that just ran; Live the number of queries that
	// stepped.
	Epoch, Live int
	// Admitted / Retired list query IDs that changed state this epoch.
	Admitted, Retired []string
	// NewResults maps query ID to join results delivered this epoch
	// (queries with no new results are absent). Valid only during the
	// callback — see the struct comment.
	NewResults map[string]int
	// Failed lists node IDs the churn schedule failed this epoch;
	// Repaired / Fallbacks count paths rerouted in-network vs pairs
	// switched to the base station by the recovery pass, and TreesRebuilt
	// the substrate routing trees rebuilt around the failures.
	Failed                            []int
	Repaired, Fallbacks, TreesRebuilt int
	// Migrations / MigrationsAborted count the adaptivity phase's window
	// migrations this epoch: committed moves vs moves abandoned because
	// the target node was dead (zero unless EngineConfig.Adapt).
	Migrations, MigrationsAborted int
	// LinkRerouted / LinkFallbacks count the link-fault recovery pass's
	// outcomes this epoch — paths detoured around cut links vs pairs moved
	// to the base station; ResultsLost counts join results whose delivery
	// exhausted the retry policy this epoch (zero without
	// EngineConfig.Faults).
	LinkRerouted, LinkFallbacks, ResultsLost int
}

// OnEpoch registers a hook streamed after every scheduler epoch (nil
// disables). Register before Run.
func (e *Engine) OnEpoch(fn func(EpochStats)) {
	if fn == nil {
		e.eng.OnEpoch = nil
		return
	}
	e.eng.OnEpoch = func(s engine.EpochStats) {
		out := EpochStats{
			Epoch:             s.Epoch,
			Live:              s.Live,
			Admitted:          s.Admitted,
			Retired:           s.Retired,
			NewResults:        s.NewResults,
			Repaired:          s.Repaired,
			Fallbacks:         s.Fallbacks,
			TreesRebuilt:      s.TreesRebuilt,
			Migrations:        s.Migrations,
			MigrationsAborted: s.MigrationsAborted,
			LinkRerouted:      s.LinkRerouted,
			LinkFallbacks:     s.LinkFallbacks,
			ResultsLost:       s.ResultsLost,
		}
		for _, id := range s.Failed {
			out.Failed = append(out.Failed, int(id))
		}
		fn(out)
	}
}

// Metric is one counter or gauge reading in a MetricsSnapshot.
type Metric struct {
	Name  string
	Value int64
}

// HistogramMetric is one histogram's state in a MetricsSnapshot: Counts
// has one entry per Bounds bound plus a final overflow bucket.
type HistogramMetric struct {
	Name     string
	Bounds   []int64
	Counts   []int64
	Count    int64
	Sum      int64
	Min, Max int64
}

// Mean returns the average observation (0 when empty).
func (h HistogramMetric) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// MetricsSnapshot is a point-in-time copy of every engine instrument,
// sorted by name. See DESIGN.md's "Observability model" for the
// instrument taxonomy (engine.*, churn.*, sim.*, join.*, epoch.*,
// worker.*).
type MetricsSnapshot struct {
	Counters   []Metric
	Gauges     []Metric
	Histograms []HistogramMetric
}

// Value looks a counter or gauge up by name.
func (s *MetricsSnapshot) Value(name string) (int64, bool) {
	for _, m := range s.Counters {
		if m.Name == name {
			return m.Value, true
		}
	}
	for _, m := range s.Gauges {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// WriteText renders the snapshot as a /metricz-style text dump.
func (s *MetricsSnapshot) WriteText(w io.Writer) error {
	var os obs.Snapshot
	for _, m := range s.Counters {
		os.Counters = append(os.Counters, obs.Metric(m))
	}
	for _, m := range s.Gauges {
		os.Gauges = append(os.Gauges, obs.Metric(m))
	}
	for _, h := range s.Histograms {
		os.Histograms = append(os.Histograms, obs.HistogramMetric{
			Name: h.Name, Bounds: h.Bounds, Counts: h.Counts,
			Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max,
		})
	}
	return os.WriteText(w)
}

// Snapshot copies the engine's current metrics. Safe to call from any
// goroutine at any time, including while Run executes on another — the
// live-introspection pattern cmd/aspen-engine's -metrics-addr endpoint
// uses. Returns an empty snapshot when EngineConfig.Metrics was false.
func (e *Engine) Snapshot() *MetricsSnapshot {
	src := e.reg.Snapshot()
	out := &MetricsSnapshot{}
	for _, m := range src.Counters {
		out.Counters = append(out.Counters, Metric(m))
	}
	for _, m := range src.Gauges {
		out.Gauges = append(out.Gauges, Metric(m))
	}
	for _, h := range src.Histograms {
		out.Histograms = append(out.Histograms, HistogramMetric{
			Name: h.Name, Bounds: h.Bounds, Counts: h.Counts,
			Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max,
		})
	}
	return out
}

// WriteTrace emits the recorded epoch trace in Chrome trace_event form —
// load the file in chrome://tracing or ui.perfetto.dev. Call after Run
// (lanes must be quiescent). Writes an empty trace document when
// EngineConfig.Trace was false.
func (e *Engine) WriteTrace(w io.Writer) error {
	return e.tracer.WriteChrome(w)
}

// WriteTraceJSONL emits the trace as one JSON event per line — the
// grep/jq-friendly form. Same quiescence requirement as WriteTrace.
func (e *Engine) WriteTraceJSONL(w io.Writer) error {
	return e.tracer.WriteJSONL(w)
}

// Run executes `epochs` scheduler epochs — admitting, stepping and
// retiring queries — and returns the traffic/result report.
func (e *Engine) Run(epochs int) (*EngineReport, error) {
	if len(e.eng.Queries()) == 0 {
		return nil, fmt.Errorf("aspen: no queries submitted")
	}
	return engineReport(e.eng.Run(epochs)), nil
}

// Report snapshots the engine's current accounting: retired queries report
// their frozen results, live ones their traffic so far, pending ones
// zeroes.
func (e *Engine) Report() *EngineReport {
	return engineReport(e.eng.Report())
}

// QueryEngineReport is one query's slice of an EngineReport. Traffic here
// is the query's own (initiation, data, results); shared infrastructure
// lives in EngineReport.SharedBytes.
type QueryEngineReport struct {
	ID        string
	Algorithm Algorithm
	State     string
	// AdmitEpoch / RetireEpoch bound the live interval [admit, retire).
	AdmitEpoch, RetireEpoch int
	TotalBytes              int64
	InitBytes               int64
	BaseBytes               int64
	MaxNodeBytes            int64
	BytesPerNode            float64
	Results                 int
	// ResultsLost counts join results the query computed whose delivery
	// exhausted the retry policy — explicit observable loss, never silent.
	ResultsLost             int
	MeanDelay               float64
	InNetPairs, AtBasePairs int
}

// EngineReport is the engine's traffic accounting: shared infrastructure
// charged once, per-query traffic per stream, and their sum. N independent
// single-query deployments would have paid roughly SharedBytes*N +
// QueryBytes; the engine pays SharedBytes + QueryBytes.
type EngineReport struct {
	Epochs                int
	Nodes                 int
	SharedBytes           int64
	QueryBytes            int64
	AggregateBytes        int64
	AggregateBytesPerNode float64
	Results               int
	// FailedNodes counts nodes the churn schedule failed over the run;
	// PathsRepaired / BaseFallbacks are the section 7 recovery outcomes
	// and TreesRebuilt the substrate's tree-rebuild fallbacks.
	FailedNodes, PathsRepaired, BaseFallbacks, TreesRebuilt int
	// Migrations / MigrationsAborted total the adaptivity phase's window
	// migrations over the run (zero unless EngineConfig.Adapt).
	Migrations, MigrationsAborted int
	// ResultsLost totals policy-exhausted result losses across queries;
	// LinkRerouted / LinkFallbacks are the link-fault recovery pass's
	// cumulative outcomes and PartitionEpochs counts epochs a scheduled
	// partition was active (all zero unless EngineConfig.Faults).
	ResultsLost, LinkRerouted, LinkFallbacks, PartitionEpochs int
	Queries                                                   []QueryEngineReport
}

func engineReport(r *engine.Report) *EngineReport {
	out := &EngineReport{
		Epochs:                r.Epochs,
		Nodes:                 r.Nodes,
		SharedBytes:           r.SharedBytes,
		QueryBytes:            r.QueryBytes,
		AggregateBytes:        r.AggregateBytes,
		AggregateBytesPerNode: r.AggregateBytesPerNode,
		Results:               r.Results,
		FailedNodes:           r.FailedNodes,
		PathsRepaired:         r.PathsRepaired,
		BaseFallbacks:         r.BaseFallbacks,
		TreesRebuilt:          r.TreesRebuilt,
		Migrations:            r.Migrations,
		MigrationsAborted:     r.MigrationsAborted,
		ResultsLost:           r.ResultsLost,
		LinkRerouted:          r.LinkRerouted,
		LinkFallbacks:         r.LinkFallbacks,
		PartitionEpochs:       r.PartitionEpochs,
	}
	for _, q := range r.Queries {
		out.Queries = append(out.Queries, QueryEngineReport{
			ID:           q.ID,
			Algorithm:    Algorithm(q.Algorithm),
			State:        q.State,
			AdmitEpoch:   q.AdmitEpoch,
			RetireEpoch:  q.RetireEpoch,
			TotalBytes:   q.TotalBytes,
			InitBytes:    q.InitBytes,
			BaseBytes:    q.BaseBytes,
			MaxNodeBytes: q.MaxNodeBytes,
			BytesPerNode: q.BytesPerNode,
			Results:      q.Results,
			ResultsLost:  q.ResultsLost,
			MeanDelay:    q.MeanDelay,
			InNetPairs:   q.InNetPairs,
			AtBasePairs:  q.AtBasePairs,
		})
	}
	return out
}

// Experiments lists the registered paper artifacts (fig2..fig20, tab3,
// mobility, ablation).
func Experiments() []string {
	ids := experiments.IDs()
	sort.Strings(ids)
	return ids
}

// ExperimentTitle returns the description of an experiment ID.
func ExperimentTitle(id string) (string, error) {
	e := experiments.Lookup(id)
	if e == nil {
		return "", fmt.Errorf("aspen: unknown experiment %q", id)
	}
	return e.Title, nil
}

// RunExperiment regenerates one paper artifact and returns its table as
// formatted text. quick trims the sweeps for fast runs; full mode uses the
// paper's parameters (9 runs, full stage grids).
func RunExperiment(id string, quick bool) (string, error) {
	e := experiments.Lookup(id)
	if e == nil {
		return "", fmt.Errorf("aspen: unknown experiment %q (known: %v)", id, Experiments())
	}
	cfg := experiments.DefaultConfig()
	if quick {
		cfg = experiments.QuickConfig()
	}
	return experiments.Render(e, e.Run(cfg)), nil
}
