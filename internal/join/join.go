// Package join implements the paper's join execution algorithms over the
// simulator substrate: the grouped baselines Naive and Base (join at the
// base station), the through-the-base algorithm of Yang+07, the GHT
// grouped join, and the pairwise In-Net algorithm with cost-model join
// node placement (section 3), including its MPO variants (multicast,
// group optimization, path collapsing — section 5), adaptive selectivity
// learning (section 6), and join-node failure recovery (section 7).
//
// Every algorithm is a Continuous: Start runs initiation and returns a
// Stepper, whose Step executes a sampling cycle, whose Adapt is the only
// code that re-estimates and migrates (section 6, switched on for a run by
// Config.Adapt), and whose Recover runs section 7's reroute-or-fall-back
// sweep after the deployment changed (In-Net's Step runs the same sweep
// when a detection clock is due). The
// epoch scheduler in internal/engine is the one driver; a single-query run
// is a one-query engine.
package join

import (
	"unsafe"

	"repro/internal/costmodel"
	"repro/internal/query"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/window"
	"repro/internal/workload"
)

// Config is everything one run needs. The same Config (and the same seeds
// inside Net and Sampler) handed to different algorithms yields an
// apples-to-apples comparison on identical data.
type Config struct {
	Topo    *topology.Topology
	Net     *sim.Network
	Sub     *routing.Substrate
	Spec    *workload.Spec
	Sampler workload.Sampler
	// Opt carries the selectivity estimates the optimizer is given at
	// initiation. They may be wrong; learning variants converge away from
	// them.
	Opt costmodel.Params
	// Cycles is the number of sampling cycles to execute.
	Cycles int

	// Adapt switches on section 6's learning: In-Net pairs carry
	// selectivity estimators that Step feeds and Adapt re-places from. The
	// engine sets it from engine.Options.Adapt for every query it admits;
	// the baselines ignore it.
	Adapt bool
}

// NewConfig bundles one run's inputs.
func NewConfig(topo *topology.Topology, net *sim.Network, sub *routing.Substrate, spec *workload.Spec, sampler workload.Sampler, opt costmodel.Params, cycles int) *Config {
	return &Config{
		Topo: topo, Net: net, Sub: sub, Spec: spec, Sampler: sampler,
		Opt: opt, Cycles: cycles,
	}
}

// Result aggregates everything the paper's figures report about one run.
type Result struct {
	// Algorithm is the display name ("Naive", "Innet-cmg", ...).
	Algorithm string
	// InitBytes/InitMessages are the initiation-phase costs; the totals
	// below include them. InitBaseBytes is the initiation traffic at the
	// base station (Figure 6's comparison quantity).
	InitBytes     int64
	InitMessages  int64
	InitBaseBytes int64
	// TotalBytes etc. snapshot the network metrics at the end of the run.
	TotalBytes    int64
	TotalMessages int64
	BaseBytes     int64
	BaseMessages  int64
	MaxNodeBytes  int64
	// TopLoads are the LoadRanks largest per-node byte loads, descending:
	// what Fig 5 plots. A result keeps no per-node column.
	TopLoads []int64
	Drops    int64
	// Results counts join results delivered to the base station.
	Results int
	// ResultsLost counts join results computed at a join node whose
	// delivery to the base station exhausted its retry budget. Every
	// result is in exactly one of Results or ResultsLost — a dropped
	// result never silently vanishes (the fault-injection layer's
	// end-to-end delivery guarantee; feeds the faults.losses counter).
	ResultsLost int
	// Digest and LostDigest fingerprint the delivered and the lost results
	// as multisets: each is a sum of keyed 64-bit hashes of (S, T, SV, TV,
	// Cycle, OldCycle), so two runs with equal digests delivered (or lost)
	// the same tuples, in whatever order.
	Digest, LostDigest uint64
	// DelaySum and DelayCount accumulate, over delivered results, the gap
	// in sampling cycles since the previous delivered result (the paper's
	// Fig 14 "result delay": how long the base waits between events).
	DelaySum, DelayCount int
	// Migrations counts adaptive join-node moves (learning variants).
	Migrations int
	// MigrationsAborted counts adaptive moves abandoned at the commit
	// point because the target node had died; the pair fell back to the
	// base station instead.
	MigrationsAborted int
	// AtBasePairs / InNetPairs report where pairs ended up.
	AtBasePairs, InNetPairs int
	// PairJoinNodes lists the final in-network join node of each pair
	// (In-Net algorithms only), in pair-discovery order. Used by the
	// failure experiments to pick a victim.
	PairJoinNodes []topology.NodeID
	// PairPaths lists, aligned with PairJoinNodes, each in-network pair's
	// final s..t path. The churn benches pick intermediate-node victims
	// from it.
	PairPaths []routing.Path
}

// MeanDelay returns the average inter-result delay in cycles.
func (r *Result) MeanDelay() float64 {
	if r.DelayCount == 0 {
		return 0
	}
	return float64(r.DelaySum) / float64(r.DelayCount)
}

// Stepper is an in-flight continuous execution of one query. Start has
// already run initiation; the caller drives sampling cycles one at a time,
// which lets an external scheduler (internal/engine) interleave many
// queries over one deployment epoch by epoch. Every stepper is a
// siteStepper, In-Net's with its own Step, Adapt, Recover and Finish, so a
// caller never type-asserts for a capability.
//
// Concurrency contract (audited for every stepper in this package, and
// what lets internal/engine step independent queries on parallel workers):
// Step confines writes to state the query owns — its Config.Net (metrics,
// loss stream, relay queues), its sampler, its window/join state, its pair
// and multicast bookkeeping, dense per-cycle scratch — and performs only
// reads of shared structures (routing.Substrate tables and cached root
// paths, topology adjacency, the deployment Liveness view). Step never
// migrates a join node and never changes liveness. Anything that mutates
// shared state is confined to Start (e.g. dht.Ring route memoization,
// filled while admission is sequential) or to Recover; Adapt, Recover and
// every liveness change (sim.Network.Fail/Revive, the engine's churn
// schedule) run strictly between Steps, never inside one.
type Stepper interface {
	// Step executes one sampling cycle. cycle counts from 0 at the
	// query's admission and must increase by 1 per call.
	Step(cycle int)
	// Adapt is section 6: it closes the given sampling cycle on every
	// pair's selectivity estimator (idempotently, per the adapt.Estimator
	// contract), applies the divergence trigger, and executes any resulting
	// window migrations. The placement decision is the nomination point;
	// the network's liveness view is consulted at the commit point, and a
	// migration whose target node is dead — or whose window transfer path
	// is partitioned — aborts into the section-7 base-station fallback
	// instead of installing window state there. It returns the number of
	// committed migrations and of aborted ones. It acts only on an In-Net
	// stepper started with Config.Adapt; every other Adapt is a no-op.
	Adapt(cycle int) (migrated, aborted int)
	// Recover is section 7's reroute-or-fall-back sweep over the query's
	// own routing state, run after the deployment changed under it. Pairs
	// with a dead endpoint are abandoned. A non-nil failed lists the nodes
	// that died since the last sweep: pairs whose path crosses a failed
	// node are broken, repairable while their join node lives. A nil
	// failed selects the link-fault predicate instead: a pair is broken
	// when the fault layer cut its path or its join node's path to the
	// base, repairable only in the first case (rp must then be link-aware,
	// routing.Repairer.SetLinkCheck). rp charges limited-exploration probes
	// to the caller's network — the engine points it at the SHARED metrics
	// stream, so exploration is paid once, not once per query. It returns
	// how many paths were repaired in-network and how many pairs fell back
	// to joining at the base station. Steppers that route only through the
	// substrate's trees (which the engine rebuilds separately) repair
	// nothing.
	Recover(failed []topology.NodeID, rp *routing.Repairer) (repaired, fallbacks int)
	// Result is the live result: its Results, ResultsLost, Digest and
	// LostDigest count what was delivered and lost so far. Finish fills in
	// the rest; the same value is returned there.
	Result() *Result
	// JoinStateTuples reports how many tuples the query's join windows
	// currently buffer, and MemBytes the bytes its route table and join
	// state hold (the engine's join.state.* and mem.join.bytes gauges).
	JoinStateTuples() int
	MemBytes() int64
	// Finish ends the execution and returns the final result. Step must
	// not be called after Finish.
	Finish() *Result
}

// Continuous is one join strategy, driven cycle by cycle by an external
// epoch scheduler. Every algorithm in this package implements it.
type Continuous interface {
	// Name is the display name ("Naive", "Innet-cmg", ...).
	Name() string
	// Start runs initiation for cfg's query and returns its execution.
	Start(cfg *Config) Stepper
}

// LoadRanks is how many of the heaviest per-node loads a Result keeps:
// Fig 5 plots the 15 most-loaded nodes.
const LoadRanks = 15

// wordBytes is the element size Start prices its dense slices of ints and
// pointers with; a mark column's bool is one byte.
const wordBytes = int64(unsafe.Sizeof(0))

// snapshotInit records initiation-phase costs into res.
func snapshotInit(cfg *Config, res *Result) {
	m := cfg.Net.Metrics()
	res.InitBytes = m.TotalBytes
	res.InitMessages = m.TotalMessages
	res.InitBaseBytes = m.BaseBytes
}

// finish copies final metrics into res.
func finish(cfg *Config, res *Result) *Result {
	m := cfg.Net.Metrics()
	res.TotalBytes = m.TotalBytes
	res.TotalMessages = m.TotalMessages
	res.BaseBytes = m.BaseBytes
	res.BaseMessages = m.BaseMessages
	res.MaxNodeBytes = m.MaxNodeBytes()
	res.TopLoads = m.TopLoads(LoadRanks)
	res.Drops = m.Drops
	return res
}

// recorder tracks result arrivals at the base and the inter-result delay.
type recorder struct {
	res       *Result
	lastCycle int
	any       bool
}

func newRecorder(res *Result) *recorder { return &recorder{res: res} }

// tally is a batch of matches as the recorder sees it: how many, and the
// sum of their hashes. A batch folds into its tally as it is computed, so
// a join site holds no match storage between arrival and shipping.
type tally struct {
	n   int
	sum uint64
}

// add folds ms into t, each match hashed from a fixed key.
//
//aspen:allocfree
func (t *tally) add(ms []window.Match) {
	for _, m := range ms {
		h := mix(0x9e3779b97f4a7c15 ^ uint64(m.S)<<32 ^ uint64(uint32(m.T)))
		h = mix(h ^ uint64(uint32(m.SV))<<32 ^ uint64(uint32(m.TV)))
		t.sum += mix(mix(h^uint64(m.Cycle)) ^ uint64(m.OldCycle))
	}
	t.n += len(ms)
}

// mix is the SplitMix64 output permutation.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// record notes a batch delivered at the given cycle: its first result
// waited since the previous delivery, the others arrived with it.
func (r *recorder) record(t tally, cycle int) {
	if t.n == 0 {
		return
	}
	gaps := t.n - 1
	if r.any {
		r.res.DelaySum += cycle - r.lastCycle
		gaps++
	}
	r.res.DelayCount += gaps
	r.any = true
	r.lastCycle = cycle
	r.res.Results += t.n
	r.res.Digest += t.sum
}

// drop notes a batch lost in flight to the base: computed, transmitted,
// abandoned after exhausting the retry budget. Delays are not recorded —
// nothing arrived — but the loss is, so Results+ResultsLost always equals
// the results computed.
func (r *recorder) drop(t tally) {
	r.res.ResultsLost += t.n
	r.res.LostDigest += t.sum
}

// producerKey identifies a producer slot.
type producerKey struct {
	id   topology.NodeID
	role query.Rel
}

// eligibleProducers enumerates the producer slots in node order.
func eligibleProducers(spec *workload.Spec, n int) []producerKey {
	var out []producerKey
	for i := 0; i < n; i++ {
		id := topology.NodeID(i)
		if spec.EligibleS(id) {
			out = append(out, producerKey{id, query.S})
		}
		if spec.EligibleT(id) {
			out = append(out, producerKey{id, query.T})
		}
	}
	return out
}
