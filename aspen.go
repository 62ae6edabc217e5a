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

// The paper's join algorithms and the MPO variants. Each name is the label
// a report prints for the query, so a label can be submitted again.
// Learning (section 6) is no variant: EngineConfig.Adapt switches it on for
// every query an engine admits.
const (
	Naive     Algorithm = "Naive"
	Base      Algorithm = "Base"
	Yang07    Algorithm = "Yang+07"
	GHT       Algorithm = "GHT"
	DHT       Algorithm = "DHT"
	Innet     Algorithm = "Innet"
	InnetCM   Algorithm = "Innet-cm"
	InnetCMG  Algorithm = "Innet-cmg"
	InnetCMPG Algorithm = "Innet-cmpg"
)

// Algorithms lists every supported algorithm name.
func Algorithms() []Algorithm {
	return []Algorithm{Naive, Base, Yang07, GHT, DHT, Innet, InnetCM, InnetCMG, InnetCMPG}
}

// Rates are the workload selectivities: SigmaS/SigmaT are producer send
// probabilities per sampling cycle, SigmaST the pairwise join selectivity.
type Rates = workload.Rates

// algorithmFor resolves an algorithm name; "" is nil, which the engine
// defaults to InnetCMG.
func algorithmFor(name Algorithm, topo *topology.Topology) (join.Continuous, error) {
	switch name {
	case "":
		return nil, nil
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
	case InnetCMG:
		return join.Innet{Opts: join.InnetOptions{Multicast: true, GroupOpt: true}}, nil
	case InnetCMPG:
		return join.Innet{Opts: join.InnetOptions{Multicast: true, PathCollapse: true, GroupOpt: true}}, nil
	default:
		return nil, fmt.Errorf("aspen: unknown algorithm %q", name)
	}
}

// --- Continuous multi-query execution (internal/engine) ---------------------

// The engine-facing types below are the internal packages' own, re-exported
// by alias: the facade adds names, never a second copy of a shape.
type (
	// NodeID identifies a deployment node; 0 is the base station.
	NodeID = topology.NodeID

	// ChurnEvent schedules one node failure or revival in an Engine's shared
	// deployment (section 7 as a workload axis). Events apply at the top of
	// their epoch, before any query runs its sampling cycle; a failed node is
	// dead in the shared substrate and in every query's network at once, and
	// each failure triggers engine-wide recovery (path repair, tree rebuilds,
	// base-station fallback). The base station (node 0) may not churn.
	ChurnEvent = engine.ChurnEvent

	// FaultConfig describes a deterministic link-fault plan for an Engine's
	// deployment: a seeded layer of per-link loss, transient link failures,
	// duplication, bounded delay, and scheduled partitions, drawn once from
	// Seed (0 uses the engine seed) so every run of the same config injects
	// the identical fault sequence at any worker count. The zero value
	// injects nothing.
	FaultConfig = faults.Config

	// Partition schedules one network partition in a FaultConfig: for epochs
	// in [From, Until) a set of radio links is cut, splitting the deployment.
	// Kind Bisect cuts the field at the median x coordinate; Kind Region
	// severs the workload's horizontal band Region (0..3) from the rest — the
	// bands Query 2 joins across.
	Partition = faults.Partition

	// EpochStats streams one scheduler epoch's events to an OnEpoch hook. Its
	// NewResults map is only valid during the callback — the engine reuses it
	// across epochs. Hooks that retain stats must clone it.
	EpochStats = engine.EpochStats

	// MetricsSnapshot is a point-in-time copy of every engine instrument,
	// sorted by name; Metric is one counter or gauge reading in it and
	// HistogramMetric one histogram's state. See DESIGN.md's "Observability
	// model" for the instrument taxonomy (engine.*, churn.*, sim.*, join.*,
	// epoch.*, worker.*).
	MetricsSnapshot = obs.Snapshot
	Metric          = obs.Metric
	HistogramMetric = obs.HistogramMetric

	// EngineReport is the engine's traffic accounting: shared infrastructure
	// charged once, per-query traffic per stream, and their sum. N independent
	// single-query deployments would have paid roughly SharedBytes*N +
	// QueryBytes; the engine pays SharedBytes + QueryBytes.
	// QueryEngineReport is one query's slice of it: the query's own traffic
	// (initiation, data, results), never shared infrastructure.
	EngineReport      = engine.Report
	QueryEngineReport = engine.QueryReport
)

// Partition kinds (Partition.Kind).
const (
	Bisect = faults.Bisect
	Region = faults.Region
)

// SeededChurn derives a deterministic churn schedule: each epoch in
// [0, epochs), every alive non-base node of an n-node deployment fails
// with probability rate; with reviveAfter > 0 a failed node revives that
// many epochs later (0 = permanent failures).
func SeededChurn(seed uint64, nodes, epochs int, rate float64, reviveAfter int) []ChurnEvent {
	return engine.SeededChurn(seed, nodes, epochs, rate, reviveAfter)
}

// EngineConfig describes the shared deployment a multi-query Engine
// schedules over.
type EngineConfig struct {
	// Topology selects the deployment (default ModerateRandom).
	Topology TopologyKind
	// Nodes is the deployment size (default 100; fixed at 54 for Intel).
	Nodes int
	// Trees is the routing-substrate tree count (default 3).
	Trees int
	// Seed makes every run of the engine reproducible (default 1).
	Seed uint64
	// LossProb is the per-hop loss probability in [0, 1] (default 5%).
	LossProb *float64
	// MaxRetries bounds the retransmissions a hop attempts before the
	// message is dropped, for every traffic class (0 = the paper's mote
	// setting of 3; negative = no retries).
	MaxRetries int
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
	// fallback instead. It is the only learning switch.
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
// metrics stream. It rejects a deployment of fewer than 2 nodes, a
// negative tree count, a loss probability outside [0, 1] and churn events
// naming the base station, a node outside the deployment or a negative
// epoch.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	kind, err := cfg.Topology.kind()
	if err != nil {
		return nil, err
	}
	nodes := engine.EffectiveNodes(kind, cfg.Nodes)
	if nodes < 2 {
		return nil, fmt.Errorf("aspen: a deployment needs at least 2 nodes (the base station and one sensor), got %d", nodes)
	}
	if cfg.Trees < 0 {
		return nil, fmt.Errorf("aspen: Trees must be >= 0, got %d", cfg.Trees)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	opts := engine.Options{
		Kind:       kind,
		Nodes:      cfg.Nodes,
		Trees:      cfg.Trees,
		Seed:       seed,
		MaxRetries: cfg.MaxRetries,
		Churn:      cfg.Churn,
		Adapt:      cfg.Adapt,
		Workers:    cfg.Workers,
	}
	e := &Engine{seed: seed}
	if cfg.Metrics {
		e.reg = obs.NewRegistry()
		opts.Obs = e.reg
	}
	if cfg.Trace {
		e.tracer = obs.NewTracer()
		opts.Trace = e.tracer
	}
	if cfg.LossProb != nil {
		p := *cfg.LossProb
		if !(p >= 0 && p <= 1) {
			return nil, fmt.Errorf("aspen: LossProb %v is not a probability in [0, 1]", p)
		}
		opts.LossProb = &p
	}
	if cfg.Faults != nil {
		f := *cfg.Faults
		if err := f.Validate(); err != nil {
			return nil, fmt.Errorf("aspen: %w", err)
		}
		if f.Seed == 0 {
			f.Seed = seed
		}
		opts.Faults = &f
	}
	for _, ev := range cfg.Churn {
		if ev.Node <= 0 || int(ev.Node) >= nodes {
			return nil, fmt.Errorf("aspen: churn event names node %d outside the deployment (1..%d; the base station never churns)", ev.Node, nodes-1)
		}
		if ev.Epoch < 0 {
			return nil, fmt.Errorf("aspen: churn event for node %d at negative epoch %d", ev.Node, ev.Epoch)
		}
	}
	e.eng = engine.New(opts)
	return e, nil
}

// Submit compiles and registers a query, returning its report ID. It may
// be called before Run and between Run calls; admission happens at the
// query's AdmitAt epoch. It rejects a negative Cycles or AdmitAt, a
// selectivity outside [0, 1] and a Query0 pair count the deployment cannot
// hold.
func (e *Engine) Submit(job QueryJob) (string, error) {
	if (job.SQL == "") == (job.Query == "") {
		return "", fmt.Errorf("aspen: job must set exactly one of SQL and Query")
	}
	if job.Cycles < 0 || job.AdmitAt < 0 {
		return "", fmt.Errorf("aspen: Cycles and AdmitAt must be >= 0, got %d and %d", job.Cycles, job.AdmitAt)
	}
	if err := checkRates("Rates", job.Rates); err != nil {
		return "", err
	}
	if job.OptimizerRates != nil {
		if err := checkRates("OptimizerRates", *job.OptimizerRates); err != nil {
			return "", err
		}
	}
	alg, err := algorithmFor(job.Algorithm, e.eng.Topo)
	if err != nil {
		return "", err
	}
	qc := engine.QueryConfig{
		ID:        job.ID,
		SQL:       job.SQL,
		Algorithm: alg,
		Rates:     job.Rates,
		Cycles:    job.Cycles,
		AdmitAt:   job.AdmitAt,
	}
	if job.Query != "" {
		// A named query's spec carries its rates, so they default here.
		rates := job.Rates
		if rates == (Rates{}) {
			rates = workload.DefaultRates
		}
		// Query 0's random endpoints derive from the engine seed.
		spec, err := workload.Named(string(job.Query), e.eng.Topo, e.eng.Nodes, job.Pairs, rates, e.seed^7)
		if err != nil {
			return "", fmt.Errorf("aspen: %w", err)
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

// checkRates rejects a selectivity outside [0, 1], NaN included.
func checkRates(field string, r Rates) error {
	for _, s := range []struct {
		name string
		v    float64
	}{{"SigmaS", r.SigmaS}, {"SigmaT", r.SigmaT}, {"SigmaST", r.SigmaST}} {
		if !(s.v >= 0 && s.v <= 1) {
			return fmt.Errorf("aspen: %s.%s %v is not a probability in [0, 1]", field, s.name, s.v)
		}
	}
	return nil
}

// OnEpoch registers a hook streamed after every scheduler epoch (nil
// disables). Register before Run.
func (e *Engine) OnEpoch(fn func(EpochStats)) { e.eng.OnEpoch = fn }

// Snapshot copies the engine's current metrics. Safe to call from any
// goroutine at any time, including while Run executes on another — the
// live-introspection pattern cmd/aspen-engine's -metrics-addr endpoint
// uses. Returns an empty snapshot when EngineConfig.Metrics was false.
func (e *Engine) Snapshot() MetricsSnapshot { return e.reg.Snapshot() }

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
	return e.eng.Run(epochs), nil
}

// Report snapshots the engine's current accounting: retired queries report
// their frozen results, live ones their traffic so far, pending ones
// zeroes.
func (e *Engine) Report() *EngineReport { return e.eng.Report() }

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
