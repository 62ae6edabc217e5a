// Package engine is the continuous multi-query execution engine: it admits
// many concurrent queries (StreamSQL text or pre-compiled specs) over ONE
// shared deployment, runs them epoch by epoch on a cooperative scheduler,
// and charges shared infrastructure traffic — routing-tree construction
// beacons, summary dissemination, index extension floods — once per
// network instead of once per query.
//
// It is the one execution model: a single-query run — aspen.Run, every
// paper-figure run in internal/experiments — is this engine with one
// query. A real sensor network serving a workload of continuous queries
// builds its routing substrate once and amortizes it, and the engine makes
// that sharing measurable: its Report separates SharedBytes
// (infrastructure, paid once) from per-query traffic (initiation, data,
// results — paid by each query on its own metrics stream), so "aggregate <
// sum of single-query deployments" is a checkable inequality rather than a
// slogan.
//
// Lifecycle: Submit (compile + register, state Pending) → admission at the
// query's AdmitAt epoch (substrate index extension charged shared,
// algorithm initiation charged to the query, state Live) → one Step per
// epoch → retirement after Cycles epochs or at drain (state Retired,
// final join.Result frozen; the network, sampler and Spec it ran on are
// dropped, and the index tables no live query still needs are freed).
//
// Determinism: every per-query rng stream (loss model, sampler) derives
// from the engine seed and the query's submission index, and the scheduler
// iterates queries in submission order, so a run is a pure function of
// (Options, submission sequence).
package engine

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/costmodel"
	"repro/internal/faults"
	"repro/internal/join"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// ChurnEvent is one scheduled liveness change in a deployment's churn
// schedule (section 7 made a first-class workload axis).
type ChurnEvent struct {
	// Epoch is the scheduler epoch at which the event applies (at the top
	// of that epoch's Step, before any query runs its sampling cycle).
	Epoch int
	// Node is the affected node. The base station (node 0) never churns:
	// the paper assumes a powered, reliable base, and every fallback path
	// ends there. New panics on a base or out-of-range node.
	Node topology.NodeID
	// Revive restores the node instead of failing it.
	Revive bool
}

// SeededChurn derives a deterministic churn schedule from a seed: each
// epoch in [0, epochs), every currently-alive non-base node fails with
// probability rate; when reviveAfter > 0 a failed node revives that many
// epochs later (0 means failures are permanent). The schedule is a pure
// function of the arguments, so churn runs are exactly reproducible.
func SeededChurn(seed uint64, nodes, epochs int, rate float64, reviveAfter int) []ChurnEvent {
	src := rng.New(seed).Split(0xC4E7)
	var events []ChurnEvent
	deadUntil := make([]int, nodes) // 0 = alive; otherwise revival epoch (or maxInt)
	const never = 1 << 30
	for ep := 0; ep < epochs; ep++ {
		for i := 1; i < nodes; i++ {
			if deadUntil[i] != 0 {
				if ep >= deadUntil[i] {
					events = append(events, ChurnEvent{Epoch: ep, Node: topology.NodeID(i), Revive: true})
					deadUntil[i] = 0
				} else {
					continue
				}
			}
			if src.Bool(rate) {
				events = append(events, ChurnEvent{Epoch: ep, Node: topology.NodeID(i)})
				if reviveAfter > 0 {
					deadUntil[i] = ep + reviveAfter
				} else {
					deadUntil[i] = never
				}
			}
		}
	}
	return events
}

// Options configures the shared deployment an Engine schedules over.
type Options struct {
	// Kind selects the topology class (default ModerateRandom).
	Kind topology.Kind
	// Nodes is the deployment size (default 100).
	Nodes int
	// Trees is the routing-substrate tree count (default 3).
	Trees int
	// LossProb is the per-hop loss probability (nil: 5%; a pointer to 0
	// runs lossless, as the mesh runs do).
	LossProb *float64
	// Seed is the engine seed every per-query stream derives from
	// (default 1).
	Seed uint64
	// Churn is the deployment's fail/revive schedule, applied once per
	// epoch at the top of Step against the SHARED liveness view — a node
	// failed here is dead in the substrate and in every query's network
	// simultaneously. Same-epoch events apply in slice order. Each
	// failure triggers engine-wide recovery: substrate tree rebuilds,
	// per-query path repair (exploration charged once to the shared
	// stream) and memoized-route invalidation.
	Churn []ChurnEvent
	// Faults, when non-nil, builds a seeded fault-injection plan over the
	// deployment (internal/faults): per-link loss boosts, transient link
	// failures, scheduled partitions, duplication and bounded delay. The
	// plan is installed on the shared network and on every per-query
	// network, advanced once per epoch at the top of Step (sequentially,
	// same discipline as SeededChurn), and whenever it holds any cut link
	// the engine runs a link-fault recovery phase after churn recovery:
	// live steppers reroute severed paths through a link-aware
	// routing.Repairer (probes charged once to the shared stream) or fall
	// back to the base station with window replay. A zero Config leaves
	// every run byte-identical to Faults=nil.
	Faults *faults.Config
	// MaxRetries is the per-hop retransmission bound on the shared and
	// every per-query network (sim.Network.MaxRetries): 0 keeps the
	// default of 3, a negative value means no retries.
	MaxRetries int
	// Adapt turns section-6 learning on for every query the engine admits
	// (join.Config.Adapt); it is the only switch for learning. Each epoch,
	// after churn and recovery and before the parallel stepping section,
	// every live In-Net query's stepper closes the previous epoch's sampling
	// cycle on its selectivity estimators (fed from the stepper's own
	// observations, never from Obs metrics) and executes any triggered
	// window migrations. The phase is sequential and in submission order,
	// charging each query's own network, so output stays byte-identical at
	// any worker count. Liveness is consulted at each
	// migration's commit point: a migration whose target died this epoch
	// aborts into the section-7 base-station fallback.
	Adapt bool
	// Workers caps the goroutines Step uses to run live-query sampling
	// cycles concurrently within an epoch: 0 or 1 is fully sequential,
	// <0 means one worker per CPU core. Output is byte-identical at any
	// worker count — the same guarantee experiments.Config.Workers gives
	// sweep fan-out — because every query owns its network (metrics, rng
	// streams) and join state outright and is stepped by exactly one
	// worker per epoch, and shared structures (substrate, topology,
	// liveness) are read-only while steppers run (see stepLive).
	// Admission, churn and recovery stay sequential: they mutate shared
	// state.
	Workers int
	// Obs, when non-nil, collects engine metrics (see internal/obs and
	// DESIGN.md's "Observability model"): lifecycle counters, churn
	// recovery tallies, per-class byte gauges sampled at the epoch
	// barrier, join-state sizes, and wall-time histograms for the epoch
	// and each scheduler phase. Observation never feeds back into
	// execution, so a run's simulated output (and every determinism
	// checksum derived from it) is identical with Obs set or nil.
	Obs *obs.Registry
	// Trace, when non-nil, records wall-clock spans — scheduler phases on
	// lane 0, per-query sampling cycles on worker lanes — for export in
	// JSONL or Chrome trace_event form. Same non-interference guarantee
	// as Obs.
	Trace *obs.Tracer
}

// EffectiveNodes returns the deployment size New builds for a kind/nodes
// pair: the default of 100, and Intel's fixed 54-mote layout (for which
// nodes is ignored). The single place sizing knowledge lives — churn
// validation in the facade and CLI resolve node counts through it.
func EffectiveNodes(kind topology.Kind, nodes int) int {
	if kind == topology.Intel {
		return 54
	}
	if nodes == 0 {
		return 100
	}
	return nodes
}

func (o Options) withDefaults() Options {
	if o.Nodes == 0 {
		o.Nodes = 100
	}
	if o.Trees == 0 {
		o.Trees = 3
	}
	p := 0.05
	if o.LossProb != nil {
		p = *o.LossProb
	}
	o.LossProb = &p
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// QueryConfig describes one continuous query submitted to an Engine.
// Exactly one of SQL and Spec must be set.
type QueryConfig struct {
	// ID labels the query in reports (default "q<index>"). Must be
	// unique within the engine.
	ID string
	// SQL is StreamSQL text, compiled against the shared deployment via
	// the full Appendix B pipeline.
	SQL string
	// Spec is a pre-compiled query spec (must be built over the engine's
	// Topo/Nodes so node IDs and statics agree).
	Spec *workload.Spec
	// Algorithm is the join strategy (default In-Net + multicast +
	// group optimization, the paper's recommended variant).
	Algorithm join.Continuous
	// Rates are the data-generation ground truth for this query's
	// sampler (default workload.DefaultRates). Ignored when Spec carries
	// its own rates.
	Rates workload.Rates
	// Opt, when non-nil, feeds the optimizer estimates that differ from
	// the ground truth.
	Opt *costmodel.Params
	// Sampler overrides the default per-query generator (e.g. the
	// humidity process for Query 3).
	Sampler workload.Sampler
	// Cycles is the query's lifetime in epochs; 0 means "until the
	// engine run ends".
	Cycles int
	// AdmitAt is the epoch at which the query enters the network
	// (default 0, i.e. immediately).
	AdmitAt int
}

// State is a query's lifecycle position.
type State int

// Lifecycle states.
const (
	Pending State = iota // submitted, not yet admitted
	Live                 // admitted, stepping every epoch
	Retired              // finished; Result frozen
)

// String returns the report label.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Live:
		return "live"
	default:
		return "retired"
	}
}

// Query is one registered continuous query and its execution state. A
// retired query keeps its frozen Result and its report fields: retirement
// drops the network, sampler, Spec and stepper it ran on, so a long run
// holds little more per retired query than its Result.
type Query struct {
	ID      string
	Alg     join.Continuous
	Cycles  int
	AdmitAt int

	// idx is the submission index, the scheduler's order.
	idx         int
	state       State
	spec        *workload.Spec
	net         *sim.Network
	opt         costmodel.Params
	sampler     workload.Sampler
	stepper     join.Stepper
	admitEpoch  int
	retireEpoch int
	lastResults int
	lastLost    int
	result      *join.Result
}

// State returns the query's lifecycle state.
func (q *Query) State() State { return q.state }

// Result returns the final result (nil until retirement).
func (q *Query) Result() *join.Result { return q.result }

// EpochStats is what the OnEpoch hook streams after every scheduler epoch.
//
// The value and its NewResults map are only valid for the duration of the
// callback: the engine reuses the map across epochs (hot runs stream
// thousands of epochs; one cleared map beats one allocation each). Hooks
// that retain stats past their return must clone NewResults.
type EpochStats struct {
	// Epoch is the epoch that just ran.
	Epoch int
	// Live is the number of queries that stepped this epoch.
	Live int
	// Admitted / Retired list query IDs that changed state this epoch.
	Admitted, Retired []string
	// NewResults maps query ID to join results delivered during this
	// epoch (only queries with a non-zero delta appear). Valid only
	// during the callback — see the struct comment.
	NewResults map[string]int
	// Failed lists the nodes the churn schedule failed this epoch;
	// Repaired counts query paths rerouted in-network around those
	// failures, Fallbacks the pairs that switched to joining at the base
	// station instead (section 7's two recovery outcomes), and
	// TreesRebuilt the substrate routing trees repaired around them —
	// patched in place, around the old root or, when it died, a new one.
	Failed                            []topology.NodeID
	Repaired, Fallbacks, TreesRebuilt int
	// Migrations counts window migrations committed by this epoch's
	// adaptivity phase across all live queries; MigrationsAborted counts
	// migrations abandoned at the commit point because the target node
	// was dead (the pair fell back to the base station) or because the
	// window's transfer path was partitioned. Both are zero without
	// Options.Adapt.
	Migrations, MigrationsAborted int
	// LinkRerouted / LinkFallbacks are the link-fault recovery phase's
	// outcomes this epoch (Options.Faults only): paths rerouted around
	// cut links vs pairs that fell back to the base station because a
	// partition isolated their join node. ResultsLost is the epoch's
	// policy-exhausted result losses across all live queries — results
	// computed but dropped in flight to the base (feeds faults.losses).
	LinkRerouted, LinkFallbacks, ResultsLost int
	// admitted, retired and results count what Admitted, Retired and
	// NewResults list, so an epoch nobody streams still has them for the
	// instruments without building the lists.
	admitted, retired, results int
}

// Engine schedules continuous queries over one shared deployment.
type Engine struct {
	Topo  *topology.Topology
	Nodes []workload.NodeInfo
	Sub   *routing.Substrate

	// OnEpoch, when non-nil, streams per-epoch progress.
	OnEpoch func(EpochStats)

	opts    Options
	shared  *sim.Network
	live    *topology.Liveness
	queries []*Query
	byID    map[string]*Query
	epoch   int
	// pending and active list the Pending and the Live queries, each in
	// submission order, so an epoch walks only unretired queries however
	// long the registry grows: admission moves a query from pending into
	// active, and the barrier drops it from active when it retires.
	pending, active []*Query
	// workers is the resolved Options.Workers (>= 1).
	workers int
	// churnAt indexes Options.Churn by epoch (events in slice order).
	churnAt map[int][]ChurnEvent
	// faults is the built fault plan (nil without Options.Faults).
	faults *faults.Plan
	// repairer is the recovery passes' path repair, charging the shared
	// stream: reset by each pass, link-aware in the link-fault pass, where
	// linkCheck is the plan's LinkUsable.
	repairer  *routing.Repairer
	linkCheck routing.LinkCheck
	// totals holds the run's recovery, adaptivity and link-fault counts:
	// Step folds every epoch's EpochStats into it and Report starts from a
	// copy. Its traffic and per-query fields stay zero.
	totals Report
	// inst is the registered instrument set (nil when Options.Obs is nil);
	// lane0 is the scheduler's trace lane and lanes[w] worker w's, resolved
	// once here because Tracer.Lane locks (all nil lanes, whose Span is a
	// no-op, when Options.Trace is nil); epochResults is the reused
	// NewResults map handed to OnEpoch.
	inst         *instruments
	lane0        *obs.Lane
	lanes        []*obs.Lane
	epochResults map[string]int
	// prepared holds the Spec compiled for every SQL text and rates that
	// an unretired query was submitted with: the queries that share both
	// share one immutable Spec, the way a prepared statement is parsed and
	// planned once. specUses counts each such Spec's unretired queries,
	// and the Spec leaves both maps with the last of them.
	prepared map[preparedKey]*workload.Spec
	specUses map[*workload.Spec]*preparedUse
}

// preparedKey identifies a prepared query. A Spec carries its rates, so one
// text at other rates is another Spec.
type preparedKey struct {
	sql   string
	rates workload.Rates
}

// preparedUse is a prepared Spec's key and its count of unretired queries.
type preparedUse struct {
	key     preparedKey
	queries int
}

// New builds the shared deployment: topology, node statics, ONE liveness
// view shared by the infrastructure network and every per-query network,
// and the routing substrate with tree construction charged ONCE to the
// shared metrics stream. Queries extend the substrate's indexes
// incrementally at admission and release them at retirement. It panics when the churn schedule names the
// base station or an out-of-range node.
func New(opts Options) *Engine {
	opts = opts.withDefaults()
	topo := topology.Generate(opts.Kind, opts.Nodes, 1)
	nodes := workload.BuildNodes(topo, 1)
	live := topology.NewLiveness(topo.N())
	shared := sim.NewSharedNetwork(topo, *opts.LossProb, opts.Seed^0xA59E17, live)
	// The fault plan and retry bound install BEFORE substrate
	// construction, so tree-building beacons see per-link loss boosts like
	// any other traffic (no cuts yet: those only appear once BeginEpoch
	// advances the plan).
	var plan *faults.Plan
	if opts.Faults != nil {
		plan = faults.NewPlan(topo, *opts.Faults)
		shared.SetFaults(plan)
	}
	if opts.MaxRetries != 0 {
		shared.MaxRetries = opts.MaxRetries
	}
	sub := routing.NewSubstrate(topo, routing.Options{NumTrees: opts.Trees}, shared)
	workers := opts.Workers
	if workers < 0 {
		workers = runtime.NumCPU()
	}
	if workers < 1 {
		workers = 1
	}
	e := &Engine{
		Topo:     topo,
		Nodes:    nodes,
		Sub:      sub,
		opts:     opts,
		shared:   shared,
		live:     live,
		byID:     map[string]*Query{},
		workers:  workers,
		faults:   plan,
		repairer: routing.NewRepairer(topo, shared, routing.DefaultRepairLimit),
		inst:     newInstruments(opts.Obs, workers),
		lane0:    opts.Trace.Lane(0),
		lanes:    make([]*obs.Lane, workers),
		prepared: map[preparedKey]*workload.Spec{},
		specUses: map[*workload.Spec]*preparedUse{},
	}
	if plan != nil {
		e.linkCheck = plan.LinkUsable
	}
	for w := range e.lanes {
		e.lanes[w] = opts.Trace.Lane(1 + w)
	}
	if len(opts.Churn) > 0 {
		e.churnAt = make(map[int][]ChurnEvent)
		for _, ev := range opts.Churn {
			if ev.Node == topology.Base {
				panic("engine: churn schedule may not fail the base station")
			}
			if ev.Node < 0 || int(ev.Node) >= topo.N() {
				panic(fmt.Sprintf("engine: churn event names node %d outside the %d-node deployment", ev.Node, topo.N()))
			}
			e.churnAt[ev.Epoch] = append(e.churnAt[ev.Epoch], ev)
		}
	}
	return e
}

// Liveness returns the deployment's shared node-liveness view.
func (e *Engine) Liveness() *topology.Liveness { return e.live }

// Queries returns the registry in submission order.
func (e *Engine) Queries() []*Query { return e.queries }

// Submit compiles and registers a query. A SQL text is compiled once per
// rates while a query submitted with it is unretired: later queries with
// the same text and rates share the first one's Spec. Submit may be called
// before Run or between epochs; a query whose AdmitAt has already passed
// is admitted at the next epoch.
func (e *Engine) Submit(qc QueryConfig) (*Query, error) {
	idx := len(e.queries)
	id := qc.ID
	if id == "" {
		id = fmt.Sprintf("q%d", idx)
	}
	if _, dup := e.byID[id]; dup {
		return nil, fmt.Errorf("engine: duplicate query id %q", id)
	}
	if (qc.SQL == "") == (qc.Spec == nil) {
		return nil, fmt.Errorf("engine: query %q must set exactly one of SQL and Spec", id)
	}
	rates := qc.Rates
	if rates == (workload.Rates{}) {
		rates = workload.DefaultRates
	}
	spec := qc.Spec
	if spec == nil {
		var err error
		if spec, err = e.prepare(qc.SQL, rates); err != nil {
			return nil, fmt.Errorf("engine: query %q: %w", id, err)
		}
	} else {
		rates = spec.Rates
	}
	alg := qc.Algorithm
	if alg == nil {
		alg = join.Innet{Opts: join.InnetOptions{Multicast: true, GroupOpt: true}}
	}
	opt := costmodel.Params{
		SigmaS: rates.SigmaS, SigmaT: rates.SigmaT, SigmaST: rates.SigmaST, W: spec.W,
	}
	if qc.Opt != nil {
		opt = *qc.Opt
		opt.W = spec.W
	}
	// Independent per-query streams keyed by submission index: the loss
	// process and the sampler never share draws across queries, so adding
	// a query never perturbs another's run. Metrics and loss are private;
	// the liveness view is the DEPLOYMENT's — a churned node is dead in
	// every query's network at once.
	src := rng.New(e.opts.Seed).Split(uint64(idx) + 0x51)
	net := sim.NewSharedNetwork(e.Topo, *e.opts.LossProb, src.Uint64(), e.live)
	if e.faults != nil {
		net.SetFaults(e.faults)
	}
	if e.opts.MaxRetries != 0 {
		net.MaxRetries = e.opts.MaxRetries
	}
	sampler := qc.Sampler
	if sampler == nil {
		sampler = workload.NewGenerator(rates, src.Uint64())
	}
	admitAt := qc.AdmitAt
	if admitAt < e.epoch {
		admitAt = e.epoch
	}
	q := &Query{
		ID:      id,
		Alg:     alg,
		Cycles:  qc.Cycles,
		AdmitAt: admitAt,
		idx:     idx,
		spec:    spec,
		net:     net,
		opt:     opt,
		sampler: sampler,
	}
	e.queries = append(e.queries, q)
	e.pending = append(e.pending, q)
	e.byID[id] = q
	return q, nil
}

// prepare returns the Spec compiled from sql at rates for one more query,
// compiling it when no unretired query holds one.
func (e *Engine) prepare(sql string, rates workload.Rates) (*workload.Spec, error) {
	key := preparedKey{sql, rates}
	spec, ok := e.prepared[key]
	if !ok {
		var err error
		if spec, err = workload.SpecFromSQL(sql, e.Topo, e.Nodes, rates); err != nil {
			return nil, err
		}
		e.prepared[key] = spec
		e.specUses[spec] = &preparedUse{key: key}
	}
	e.specUses[spec].queries++
	return spec, nil
}

// unprepare counts a retiring query's Spec out, dropping a prepared Spec
// with its last query. A Spec the query brought itself was never prepared.
func (e *Engine) unprepare(spec *workload.Spec) {
	use, ok := e.specUses[spec]
	if !ok {
		return
	}
	if use.queries--; use.queries == 0 {
		delete(e.prepared, use.key)
		delete(e.specUses, spec)
	}
}

// admit moves a pending query into the network: its index needs are
// charged to the shared substrate (incremental — attributes a live query
// already indexed are free), and the algorithm's initiation traffic to the
// query's own stream. The query joins the active list at its submission
// position.
func (e *Engine) admit(q *Query, epoch int) {
	e.Sub.ExtendIndexes(q.spec.Indexes, e.shared)
	if q.spec.IndexPositions {
		e.Sub.ExtendPositionIndex(e.shared)
	}
	jc := join.NewConfig(e.Topo, q.net, e.Sub, q.spec, q.sampler, q.opt, q.Cycles)
	jc.Adapt = e.opts.Adapt
	q.stepper = q.Alg.Start(jc)
	q.state = Live
	q.admitEpoch = epoch
	i, _ := slices.BinarySearchFunc(e.active, q.idx, func(a *Query, idx int) int { return cmp.Compare(a.idx, idx) })
	e.active = slices.Insert(e.active, i, q)
}

// retire freezes a live query's result and drops everything the query ran
// on; the caller removes it from the active list. Its traffic is folded
// into the instruments' retired total first, the only later reader of its
// network. Its index needs are counted out of the substrate, which frees
// the tables no live query holds, and its Spec out of the prepared ones.
func (e *Engine) retire(q *Query, epoch int) {
	q.result = q.stepper.Finish()
	if in := e.inst; in != nil {
		in.retiredTraffic.add(q.net.Metrics())
	}
	e.Sub.ReleaseIndexes(q.spec.Indexes)
	if q.spec.IndexPositions {
		e.Sub.ReleasePositionIndex()
	}
	e.unprepare(q.spec)
	q.stepper, q.net, q.sampler, q.spec = nil, nil, nil, nil
	q.state = Retired
	q.retireEpoch = epoch
}

// applyChurn applies the churn events scheduled for epoch against the
// shared liveness view and, when any node failed, runs the engine-wide
// recovery: the substrate rebuilds the routing trees the failures broke
// (charged to the shared stream), and every live stepper repairs its paths
// (join.Stepper.Recover, node-failure predicate) through one shared
// routing.Repairer — so limited-exploration probes for a given broken gap
// are charged once to the shared metrics, no matter how many queries
// route through it. It records the nodes failed this epoch and the
// repair/fallback/rebuild counts in stats. pt splits the wall-time
// observation between the churn phase (liveness application) and the
// recover phase (tree rebuilds + per-query repair).
func (e *Engine) applyChurn(epoch int, pt *phaseTimer, stats *EpochStats) {
	evs := e.churnAt[epoch]
	if len(evs) == 0 {
		return
	}
	var failed []topology.NodeID
	for _, ev := range evs {
		if ev.Revive {
			e.live.Revive(ev.Node)
			continue
		}
		if e.live.Alive(ev.Node) {
			e.live.Fail(ev.Node)
			failed = append(failed, ev.Node)
		}
	}
	pt.done(phaseChurn, epoch)
	if len(failed) == 0 {
		return
	}
	stats.Failed = failed
	stats.TreesRebuilt = e.Sub.RepairTrees(e.shared, e.live, failed)
	e.repairer.SetLinkCheck(nil)
	stats.Repaired, stats.Fallbacks = e.recoverLive(failed, e.repairer)
	pt.done(phaseRecover, epoch)
}

// recoverLive runs section 7's sweep on every live query, in submission
// order: failed selects the node-failure predicate, nil the link-fault one
// (see join.Stepper.Recover).
func (e *Engine) recoverLive(failed []topology.NodeID, rp *routing.Repairer) (repaired, fallbacks int) {
	for _, q := range e.active {
		r, f := q.stepper.Recover(failed, rp)
		repaired += r
		fallbacks += f
	}
	return repaired, fallbacks
}

// applyLinkFaults runs the link-fault recovery phase: whenever the fault
// plan holds any cut (a down link or an active partition), every live
// stepper sweeps its paths (join.Stepper.Recover, link-fault predicate)
// against its network's fault view — rerouting severed paths through one
// shared link-aware Repairer (exploration probes charged once to the
// SHARED stream, like churn recovery) or falling back to the base station
// with window replay when a partition isolates a join node. Runs
// sequentially in submission order, every epoch the cuts persist, so paths
// severed by later link failures are eventually caught too; pairs already
// recovered are skipped by the steppers, so the sweep converges.
func (e *Engine) applyLinkFaults(epoch int, pt *phaseTimer, stats *EpochStats) {
	e.repairer.SetLinkCheck(e.linkCheck)
	stats.LinkRerouted, stats.LinkFallbacks = e.recoverLive(nil, e.repairer)
	pt.done(phaseFaults, epoch)
}

// applyAdapt runs the adaptivity phase: sequentially, in submission order,
// each live query's stepper (join.Stepper.Adapt, a no-op on a baseline)
// closes the previous epoch's sampling cycle on its selectivity estimators
// and executes any triggered window migrations against the post-recovery
// liveness view. Queries admitted this epoch are skipped — they have no
// completed cycle to close. All adaptivity traffic (window snapshots,
// re-nominations, fallback replays) is charged to the query's own network.
func (e *Engine) applyAdapt(epoch int, pt *phaseTimer, stats *EpochStats) {
	for _, q := range e.active {
		if q.admitEpoch >= epoch {
			continue
		}
		m, a := q.stepper.Adapt(epoch - 1 - q.admitEpoch)
		stats.Migrations += m
		stats.MigrationsAborted += a
	}
	pt.done(phaseAdapt, epoch)
}

// Step runs one scheduler epoch: admissions due this epoch, then the
// epoch's churn events plus engine-wide failure recovery, then the
// sequential adaptivity phase (under Options.Adapt), then one
// sampling cycle of every live query, then result deltas and retirements
// in submission order. It reports whether any query is still pending or
// live.
//
// With Options.Workers > 1 the sampling cycles run concurrently on a
// worker pool (see stepLive); everything before and after the parallel
// section — admission, churn, recovery, result deltas, retirement, the
// OnEpoch hook — is sequential and in submission order, so the epoch's
// observable output is byte-identical at any worker count.
//
// Every count of the epoch is written once, into one EpochStats, which
// then feeds the run totals, the instruments and the OnEpoch hook. Its ID
// lists and NewResults map are only materialized when a hook is
// registered, so headless runs pay no per-epoch allocation for progress
// streaming they never read; the map is allocated once and cleared
// between epochs (see the EpochStats validity contract).
func (e *Engine) Step() bool {
	epoch := e.epoch
	track := e.OnEpoch != nil
	stats := EpochStats{Epoch: epoch}
	if track {
		if e.epochResults == nil {
			e.epochResults = make(map[string]int)
		}
		clear(e.epochResults)
		stats.NewResults = e.epochResults
	}
	// Advance the fault plan first: the epoch's link failures, revivals
	// and partition state must be in force before any traffic — admission
	// initiation included — is charged. Sequential, seeded, same
	// discipline as the churn schedule.
	if e.faults != nil {
		e.faults.BeginEpoch(epoch)
		if e.faults.PartitionActive() {
			e.totals.PartitionEpochs++
			if e.inst != nil {
				e.inst.faultPartEpochs.Inc()
			}
		}
	}
	pt := e.startPhases()
	waiting := e.pending[:0]
	for _, q := range e.pending {
		if q.AdmitAt > epoch {
			waiting = append(waiting, q)
			continue
		}
		e.admit(q, epoch)
		stats.admitted++
		if track {
			stats.Admitted = append(stats.Admitted, q.ID)
		}
	}
	clear(e.pending[len(waiting):])
	e.pending = waiting
	pt.done(phaseAdmit, epoch)
	if e.churnAt != nil {
		e.applyChurn(epoch, &pt, &stats)
	}
	if e.faults != nil && e.faults.AnyCut() {
		e.applyLinkFaults(epoch, &pt, &stats)
	}
	if e.opts.Adapt {
		e.applyAdapt(epoch, &pt, &stats)
	}
	stats.Live = len(e.active)
	e.stepLive(epoch, e.active)
	pt.done(phaseStep, epoch)
	// Epoch barrier: every stepper has finished its cycle. Result deltas
	// and retirements run sequentially in submission order, and retired
	// queries leave the active list.
	kept := e.active[:0]
	for _, q := range e.active {
		res := q.stepper.Result()
		r := res.Results
		d := r - q.lastResults
		q.lastResults = r
		stats.results += d
		if track && d > 0 {
			stats.NewResults[q.ID] = d
		}
		l := res.ResultsLost
		stats.ResultsLost += l - q.lastLost
		q.lastLost = l
		if q.Cycles <= 0 || epoch-q.admitEpoch+1 < q.Cycles {
			kept = append(kept, q)
			continue
		}
		e.retire(q, epoch+1)
		stats.retired++
		if track {
			stats.Retired = append(stats.Retired, q.ID)
		}
	}
	clear(e.active[len(kept):])
	e.active = kept
	e.totals.add(&stats)
	e.observeEpoch(&stats)
	pt.done(phaseMerge, epoch)
	pt.finish(epoch)
	e.epoch++
	if track {
		e.OnEpoch(stats)
	}
	return len(e.pending)+len(e.active) > 0
}

// stepLive runs one sampling cycle of every query in qs: a plain loop with
// one worker (or one query), otherwise fanned out over the forEach pool.
// Either way a stepper charges its query's own network directly, and the
// result is byte-identical at any worker count, because nothing a cycle
// writes is shared. Every query owns its rng streams (loss, sampler), its
// join/window state and its network (metrics, relay queues), and forEach
// hands each index to exactly one worker, so one goroutine touches a query
// per epoch. Starting that goroutine orders Step's earlier sequential
// writes before the cycle, and forEach's wg.Wait orders the cycle before
// the barrier's reads — the only two happens-before edges the design
// needs. Shared structures — routing substrate, topology, parent caches,
// the deployment liveness view, the fault plan — are only read while the
// pool runs (admission, churn and recovery mutate them strictly outside
// this section), and shared-substrate traffic is charged on the shared
// stream by those sequential sections, never by a worker.
//
//aspen:allocfree
func (e *Engine) stepLive(epoch int, qs []*Query) {
	if min(e.workers, len(qs)) <= 1 {
		for _, q := range qs {
			e.stepOne(q, epoch, 0)
		}
		return
	}
	//aspen:alloc the pool path: one closure beside forEach's goroutines
	forEach(len(qs), e.workers, func(w, i int) { e.stepOne(qs[i], epoch, w) })
}

// stepOne runs q's sampling cycle on worker w. Observed, it also charges
// shard w of the worker counters with plain adds and records a span on
// w's trace lane; the shards fold into published totals at the barrier,
// in observeEpoch. The clock is only read when observing.
//
//aspen:allocfree
func (e *Engine) stepOne(q *Query, epoch, w int) {
	if !e.observing() {
		q.stepper.Step(epoch - q.admitEpoch)
		return
	}
	t0 := time.Now() //aspen:wallclock obs-only worker timing
	q.stepper.Step(epoch - q.admitEpoch)
	if in := e.inst; in != nil {
		in.workerBusyUS.Add(w, time.Since(t0).Microseconds()) //aspen:wallclock obs-only worker timing
		in.workerSteps.Add(w, 1)
	}
	e.lanes[w].Span(q.ID, epoch, q.ID, t0)
}

// Run executes `epochs` scheduler epochs, then drains: every query still
// live is retired at the horizon (queries with Cycles == 0 live exactly
// this long), and still-pending queries stay pending. It returns the
// report.
func (e *Engine) Run(epochs int) *Report {
	for i := 0; i < epochs; i++ {
		e.Step()
	}
	for _, q := range e.active {
		e.retire(q, e.epoch)
	}
	clear(e.active)
	e.active = e.active[:0]
	return e.Report()
}

// QueryReport is the per-query slice of a Report.
type QueryReport struct {
	ID        string
	Algorithm string
	State     string
	// AdmitEpoch / RetireEpoch bound the query's live interval
	// [AdmitEpoch, RetireEpoch).
	AdmitEpoch, RetireEpoch int
	// Traffic charged to this query's own metrics stream (initiation,
	// data, results — never shared infrastructure).
	TotalBytes, TotalMessages int64
	InitBytes                 int64
	BaseBytes                 int64
	MaxNodeBytes              int64
	// BytesPerNode is TotalBytes averaged over the deployment.
	BytesPerNode float64
	Results      int
	// ResultsLost counts results the query computed that exhausted their
	// retry budget in flight to the base station — explicit, observable
	// loss, never silent (see join.Result.ResultsLost).
	ResultsLost int
	// Digest and LostDigest fingerprint the delivered and the lost results
	// (join.Result.Digest).
	Digest, LostDigest uint64
	MeanDelay          float64
	InNetPairs         int
	AtBasePairs        int
}

// Report aggregates the engine's traffic accounting.
type Report struct {
	// Epochs is how many scheduler epochs have run.
	Epochs int
	// Nodes is the deployment size.
	Nodes int
	// SharedBytes / SharedMessages are the infrastructure traffic charged
	// once per network (tree construction, summary dissemination, index
	// extension).
	SharedBytes, SharedMessages int64
	// QueryBytes is the sum of per-query traffic.
	QueryBytes int64
	// AggregateBytes = SharedBytes + QueryBytes: everything this
	// deployment transmitted. N single-query deployments would have paid
	// roughly SharedBytes*N + QueryBytes instead.
	AggregateBytes int64
	// AggregateBytesPerNode averages AggregateBytes over the deployment.
	AggregateBytesPerNode float64
	// Results totals delivered join results across queries; Digest and
	// LostDigest sum the queries' result digests.
	Results            int
	Digest, LostDigest uint64
	// FailedNodes counts nodes failed by the churn schedule over the run;
	// PathsRepaired / BaseFallbacks are the section 7 recovery outcomes
	// (in-network reroutes vs pairs switched to the base station) and
	// TreesRebuilt every substrate tree repair, same-root or re-rooted.
	FailedNodes, PathsRepaired, BaseFallbacks, TreesRebuilt int
	// TreesPatched counts the subset of TreesRebuilt that kept their root;
	// the rest re-rooted a tree whose root died. Both are the same in-place
	// patch (routing.PatchTreeLive) and charge what a full rebuild would, so
	// this split is a cost diagnostic, not an output difference.
	TreesPatched int
	// Migrations / MigrationsAborted total the adaptivity phase's window
	// migrations over the run: committed moves and moves abandoned at the
	// commit point because the target died or the transfer path was
	// partitioned (zero without Options.Adapt).
	Migrations, MigrationsAborted int
	// ResultsLost totals policy-exhausted result losses across queries:
	// results computed at join nodes but dropped in flight to the base.
	// LinkRerouted / LinkFallbacks are the link-fault recovery phase's
	// cumulative outcomes and PartitionEpochs counts epochs a scheduled
	// partition was in force (all zero unless Options.Faults).
	ResultsLost, LinkRerouted, LinkFallbacks, PartitionEpochs int
	// Queries reports every submitted query in submission order.
	Queries []QueryReport
}

// add folds one epoch's recovery, adaptivity and link-fault counts into the
// run totals (ResultsLost is not among them: Report sums it per query).
func (r *Report) add(s *EpochStats) {
	r.FailedNodes += len(s.Failed)
	r.PathsRepaired += s.Repaired
	r.BaseFallbacks += s.Fallbacks
	r.TreesRebuilt += s.TreesRebuilt
	r.Migrations += s.Migrations
	r.MigrationsAborted += s.MigrationsAborted
	r.LinkRerouted += s.LinkRerouted
	r.LinkFallbacks += s.LinkFallbacks
}

// Report snapshots the current accounting. Retired queries report their
// frozen results; live queries report their metrics so far.
func (e *Engine) Report() *Report {
	n := e.Topo.N()
	sm := e.shared.Metrics()
	rep := e.totals
	rep.Epochs = e.epoch
	rep.Nodes = n
	rep.SharedBytes, rep.SharedMessages = sm.TotalBytes, sm.TotalMessages
	rep.TreesPatched = e.Sub.Stats().Patched
	rep.Queries = make([]QueryReport, 0, len(e.queries))
	for _, q := range e.queries {
		qr := QueryReport{
			ID:          q.ID,
			Algorithm:   q.Alg.Name(),
			State:       q.state.String(),
			AdmitEpoch:  q.admitEpoch,
			RetireEpoch: q.retireEpoch,
		}
		if q.state == Pending {
			qr.AdmitEpoch, qr.RetireEpoch = -1, -1
		}
		if q.result != nil {
			r := q.result
			qr.TotalBytes, qr.TotalMessages = r.TotalBytes, r.TotalMessages
			qr.InitBytes, qr.BaseBytes = r.InitBytes, r.BaseBytes
			qr.MaxNodeBytes = r.MaxNodeBytes
			qr.Results, qr.MeanDelay = r.Results, r.MeanDelay()
			qr.ResultsLost = r.ResultsLost
			qr.Digest, qr.LostDigest = r.Digest, r.LostDigest
			qr.InNetPairs, qr.AtBasePairs = r.InNetPairs, r.AtBasePairs
		} else if q.state == Live {
			m := q.net.Metrics()
			qr.TotalBytes, qr.TotalMessages = m.TotalBytes, m.TotalMessages
			qr.BaseBytes, qr.MaxNodeBytes = m.BaseBytes, m.MaxNodeBytes()
			r := q.stepper.Result()
			qr.Results, qr.ResultsLost = r.Results, r.ResultsLost
			qr.Digest, qr.LostDigest = r.Digest, r.LostDigest
			qr.RetireEpoch = -1
		}
		qr.BytesPerNode = float64(qr.TotalBytes) / float64(n)
		rep.QueryBytes += qr.TotalBytes
		rep.Results += qr.Results
		rep.ResultsLost += qr.ResultsLost
		rep.Digest += qr.Digest
		rep.LostDigest += qr.LostDigest
		rep.Queries = append(rep.Queries, qr)
	}
	rep.AggregateBytes = rep.SharedBytes + rep.QueryBytes
	rep.AggregateBytesPerNode = float64(rep.AggregateBytes) / float64(n)
	return &rep
}
