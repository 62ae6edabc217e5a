// Observability wiring: the engine's instrument set over internal/obs,
// the per-epoch phase timing, and the epoch-barrier sampling pass. All of
// it is zero-cost when Options.Obs and Options.Trace are nil — the hot
// path pays one nil check per epoch (see TestObsDisabledAddsNoAllocs) —
// and none of it feeds back into execution, so enabling observability
// never changes simulated output or determinism checksums.

package engine

import (
	"time"

	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Epoch phases, in execution order. Churn and Recover are only observed on
// engines with a churn schedule, Faults only on engines with a fault plan.
const (
	phaseAdmit = iota
	phaseChurn
	phaseRecover
	phaseFaults
	phaseAdapt
	phaseStep
	phaseMerge
	numPhases
)

var phaseNames = [numPhases]string{"admit", "churn", "recover", "faults", "adapt", "step", "merge"}

// phaseSpanNames are precomputed so closing a phase never builds a string
// on the metrics-only path (the concat would allocate even with tracing
// off).
var phaseSpanNames = [numPhases]string{
	"phase:admit", "phase:churn", "phase:recover", "phase:faults", "phase:adapt", "phase:step", "phase:merge",
}

// instruments is the engine's registered instrument set. The taxonomy
// (documented in DESIGN.md, "Observability model"):
//
//	engine.*  scheduler lifecycle counters and the live-query gauge
//	churn.*   section-7 failure/recovery event counters
//	faults.*  fault-injection layer: policy-exhausted result losses,
//	          partition epochs, link-fault recovery outcomes, and gauges
//	          for injected cut drops / duplicate deliveries / delay
//	sim.*     byte accounting sampled from the sim metrics streams
//	join.*    per-query join-state sizes
//	mem.*     heap each layer's state holds: live join state, routing,
//	          topology, node attributes, the engine's retired rows
//	epoch.*   wall-time histograms (whole epoch + per phase, microseconds)
//	worker.*  per-worker sharded hot-path counters, flushed at the barrier
type instruments struct {
	epochs   obs.Counter
	admitted obs.Counter
	retired  obs.Counter
	results  obs.Counter
	live     obs.Gauge

	failed    obs.Counter
	repaired  obs.Counter
	fallbacks obs.Counter
	rebuilds  obs.Counter
	patched   obs.Counter
	// lastRepair is the substrate's cumulative repair counts at the
	// previous epoch barrier; observeEpoch publishes the deltas.
	lastRepair routing.RepairStats

	migrations obs.Counter
	migAborted obs.Counter

	faultLosses     obs.Counter
	faultPartEpochs obs.Counter
	faultRerouted   obs.Counter
	faultFallbacks  obs.Counter
	faultDrops      obs.Gauge
	faultDups       obs.Gauge
	faultDelay      obs.Gauge

	sharedBytes obs.Gauge
	queryBytes  obs.Gauge
	kindBytes   [3]obs.Gauge
	drops       obs.Gauge
	retransmits obs.Gauge
	// retiredTraffic is the traffic of every retired query, folded once at
	// retirement, when the query's network is dropped.
	retiredTraffic traffic

	memJoin     obs.Gauge
	memRouting  obs.Gauge
	memTopology obs.Gauge
	memWorkload obs.Gauge
	memRetired  obs.Gauge

	joinTuples   obs.Gauge
	joinPerQuery obs.Histogram

	epochWall obs.Histogram
	phases    [numPhases]obs.Histogram

	workerBusyUS obs.ShardedCounter
	workerSteps  obs.ShardedCounter
}

// newInstruments registers the engine's instrument set on reg (nil reg
// yields all-disabled handles, so callers need not special-case).
func newInstruments(reg *obs.Registry, workers int) *instruments {
	if reg == nil {
		return nil
	}
	in := &instruments{
		epochs:   reg.Counter("engine.epochs"),
		admitted: reg.Counter("engine.queries.admitted"),
		retired:  reg.Counter("engine.queries.retired"),
		results:  reg.Counter("engine.results"),
		live:     reg.Gauge("engine.queries.live"),

		failed:    reg.Counter("churn.nodes_failed"),
		repaired:  reg.Counter("churn.paths_repaired"),
		fallbacks: reg.Counter("churn.base_fallbacks"),
		rebuilds:  reg.Counter("churn.trees_rebuilt"),
		patched:   reg.Counter("churn.trees_patched"),

		migrations: reg.Counter("adapt.migrations"),
		migAborted: reg.Counter("adapt.migrations_aborted"),

		faultLosses:     reg.Counter("faults.losses"),
		faultPartEpochs: reg.Counter("faults.partition_epochs"),
		faultRerouted:   reg.Counter("faults.paths_rerouted"),
		faultFallbacks:  reg.Counter("faults.base_fallbacks"),
		faultDrops:      reg.Gauge("faults.injected_drops"),
		faultDups:       reg.Gauge("faults.duplicates"),
		faultDelay:      reg.Gauge("faults.delay_slots"),

		sharedBytes: reg.Gauge("sim.shared.bytes"),
		queryBytes:  reg.Gauge("sim.query.bytes"),
		drops:       reg.Gauge("sim.drops"),
		retransmits: reg.Gauge("sim.retransmissions"),

		memJoin:     reg.Gauge("mem.join.bytes"),
		memRouting:  reg.Gauge("mem.routing.bytes"),
		memTopology: reg.Gauge("mem.topology.bytes"),
		memWorkload: reg.Gauge("mem.workload.bytes"),
		memRetired:  reg.Gauge("mem.engine.retired.bytes"),

		joinTuples:   reg.Gauge("join.state.tuples"),
		joinPerQuery: reg.Histogram("join.state.tuples_per_query", obs.SizeBounds()),

		epochWall: reg.Histogram("epoch.wall_us", obs.DurationBoundsUS()),

		workerBusyUS: reg.ShardedCounter("worker.busy_us", workers),
		workerSteps:  reg.ShardedCounter("worker.steps", workers),
	}
	for k := sim.Control; k <= sim.Result; k++ {
		in.kindBytes[k] = reg.Gauge("sim.bytes." + k.String())
	}
	for p := 0; p < numPhases; p++ {
		in.phases[p] = reg.Histogram("epoch.phase."+phaseNames[p]+"_us", obs.DurationBoundsUS())
	}
	return in
}

// traffic is the part of a metrics stream the byte gauges publish.
type traffic struct {
	bytes, drops, retrans, cutDrops, dups, delay int64
	// kind is bytes by class, Migration folded into Control: its ledger
	// class stays distinct for test assertions, but migration traffic is
	// control-plane traffic to the published gauges.
	kind [3]int64
}

// add folds one stream's metrics into t.
func (t *traffic) add(m *sim.Metrics) {
	t.bytes += m.TotalBytes
	t.drops += m.Drops
	t.retrans += m.Retransmissions
	t.cutDrops += m.CutDrops
	t.dups += m.Duplicates
	t.delay += m.DelaySlots
	for k := sim.Control; k <= sim.Result; k++ {
		t.kind[k] += m.KindBytes(k)
	}
	t.kind[sim.Control] += m.KindBytes(sim.Migration)
}

// observing reports whether Step must read the clock at phase boundaries.
func (e *Engine) observing() bool { return e.inst != nil || e.lane0 != nil }

// phaseTimer threads wall-clock phase boundaries through one epoch. The
// zero value (observability disabled) makes every method a no-op without
// touching the clock.
type phaseTimer struct {
	e          *Engine
	epochStart time.Time
	last       time.Time
	on         bool
}

// startPhases begins an epoch's timing (no-op timer when disabled).
// The clock reading flows only into phase histograms and trace spans.
//
//aspen:wallclock
func (e *Engine) startPhases() phaseTimer {
	if !e.observing() {
		return phaseTimer{}
	}
	now := time.Now()
	return phaseTimer{e: e, epochStart: now, last: now, on: true}
}

// done closes the current phase: one histogram observation and one trace
// span, then re-arms for the next phase.
//
//aspen:wallclock
func (p *phaseTimer) done(phase, epoch int) {
	if !p.on {
		return
	}
	if in := p.e.inst; in != nil {
		in.phases[phase].Observe(time.Since(p.last).Microseconds())
	}
	p.e.lane0.Span(phaseSpanNames[phase], epoch, "", p.last)
	p.last = time.Now()
}

// finish closes the whole-epoch span and histogram.
//
//aspen:wallclock
func (p *phaseTimer) finish(epoch int) {
	if !p.on {
		return
	}
	if in := p.e.inst; in != nil {
		in.epochWall.Observe(time.Since(p.epochStart).Microseconds())
	}
	p.e.lane0.Span("epoch", epoch, "", p.epochStart)
}

// observeEpoch is the epoch-barrier sampling pass: the epoch's counts from
// s, byte accounting by stream and traffic class, and per-query join-state
// sizes. It runs strictly in the sequential section (after the worker
// pool drains), reading sim metrics the same way Report does — it never
// charges traffic, so the sampled run is byte-identical to an unsampled
// one. (The partition-epoch counter is bumped where the plan advances, in
// Step.)
func (e *Engine) observeEpoch(s *EpochStats) {
	in := e.inst
	if in == nil {
		return
	}
	// Fold the workers' hot-path shards into published totals — the pool
	// has drained, so plain reads of the shard slots are race-free.
	in.workerBusyUS.Flush()
	in.workerSteps.Flush()
	in.epochs.Inc()
	in.live.Set(int64(s.Live))
	in.admitted.Add(int64(s.admitted))
	in.retired.Add(int64(s.retired))
	in.results.Add(int64(s.results))

	in.failed.Add(int64(len(s.Failed)))
	in.repaired.Add(int64(s.Repaired))
	in.fallbacks.Add(int64(s.Fallbacks))
	in.rebuilds.Add(int64(s.TreesRebuilt))
	rs := e.Sub.Stats()
	in.patched.Add(int64(rs.Patched - in.lastRepair.Patched))
	in.lastRepair = rs
	in.migrations.Add(int64(s.Migrations))
	in.migAborted.Add(int64(s.MigrationsAborted))
	in.faultLosses.Add(int64(s.ResultsLost))
	in.faultRerouted.Add(int64(s.LinkRerouted))
	in.faultFallbacks.Add(int64(s.LinkFallbacks))

	sm := e.shared.Metrics()
	in.sharedBytes.Set(sm.TotalBytes)
	// Every admitted query's traffic: the retired ones' folded total plus
	// each live query's stream; then the shared stream beside them.
	t := in.retiredTraffic
	for _, q := range e.active {
		t.add(q.net.Metrics())
	}
	in.queryBytes.Set(t.bytes)
	t.add(sm)
	in.drops.Set(t.drops)
	in.retransmits.Set(t.retrans)
	in.faultDrops.Set(t.cutDrops)
	in.faultDups.Set(t.dups)
	in.faultDelay.Set(t.delay)
	for k := sim.Control; k <= sim.Result; k++ {
		in.kindBytes[k].Set(t.kind[k])
	}

	var tuples, joinMem int64
	for _, q := range e.active {
		n := int64(q.stepper.JoinStateTuples())
		tuples += n
		in.joinPerQuery.Observe(n)
		joinMem += q.stepper.MemBytes()
	}
	in.joinTuples.Set(tuples)

	// Bytes held by each layer's state: the live queries' steppers, the
	// routing substrate, the deployment's topology and node attributes, and
	// the engine's report rows and ID set.
	in.memJoin.Set(joinMem)
	in.memRouting.Set(e.Sub.MemBytes())
	in.memTopology.Set(e.Topo.MemBytes())
	in.memWorkload.Set(workload.MemBytes(e.Nodes))
	in.memRetired.Set(e.retiredMemBytes())
}
