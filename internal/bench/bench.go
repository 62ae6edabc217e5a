// Package bench is the reproducible performance-measurement subsystem:
// a registry of named end-to-end scenarios (engine concurrency levels,
// experiment sweeps, algorithm head-to-heads, the adaptivity loop, the
// raw Transfer hot path), each driven from fixed seeds so its simulated
// traffic is byte-identical on every machine, measured for wall time and
// allocator pressure, and serialized to a stable JSON schema
// (BENCH_engine.json) so successive PRs record a performance trajectory
// instead of anecdotes. cmd/aspen-bench is the CLI; Compare diffs two
// reports and flags determinism drift via per-scenario checksums.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/join"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// SchemaVersion identifies the BENCH_engine.json layout. Bump it only on
// incompatible changes; comparison across versions is refused.
const SchemaVersion = 1

// Scenario is one named, seeded, repeatable measurement unit.
type Scenario struct {
	Name string
	Desc string
	// Workers is the engine worker count the scenario steps with (0 and 1
	// both mean sequential). It is recorded per result so reports made at
	// different parallelism are never silently compared as equals; the
	// determinism checksum is worker-invariant by construction.
	Workers int
	// Run executes one measured iteration from fixed seeds and returns
	// the simulated traffic in bytes plus a deterministic checksum
	// (result counts, row sums); the checksum lets Compare detect
	// semantic drift between runs recorded on different commits.
	Run func() (traffic int64, check float64)
	// RunHeap, when non-nil, replaces Run for scenarios that also commit
	// to a live-heap bound: the third return is the post-GC live heap in
	// bytes measured inside the scenario while its state is still
	// referenced. Heap is machine-stable but not bit-stable, so it is
	// recorded beside the checksum, never folded into it.
	RunHeap func() (traffic int64, check float64, heapBytes int64)
	// HeapCeiling is the committed live-heap bound in bytes for RunHeap
	// scenarios (0 = unbounded). aspen-bench -max-heap-bytes fails the
	// run when a measured heap exceeds its scenario's ceiling.
	HeapCeiling int64
}

// engineSQL is the fixed query pool the engine scenarios draw from
// round-robin — the same pool bench_test.go uses, so `go test -bench
// Engine` and `aspen-bench` measure the same workload.
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

// engineScenario measures nq concurrent queries over one shared deployment
// for 30 epochs — the multi-query scheduler plus the In-Net hot path —
// stepped with the given engine worker count. The checksum (and the
// simulated traffic) is byte-identical at every worker count, so a -wN
// variant drifting from its sequential twin is a determinism bug, not
// noise.
func engineScenario(nq, pin, workers int, tr *obs.Tracer) Scenario {
	name := fmt.Sprintf("engine-%d", nq)
	desc := fmt.Sprintf("%d concurrent quer%s over one shared 100-node deployment, 30 epochs", nq, plural(nq))
	if pin > 1 {
		name += fmt.Sprintf("-w%d", pin)
		desc += fmt.Sprintf(", %d workers", pin)
		workers = pin
	}
	return Scenario{
		Name:    name,
		Desc:    desc,
		Workers: workers,
		Run: func() (int64, float64) {
			e := engine.New(engine.Options{Seed: 1, Workers: workers, Trace: tr})
			for q := 0; q < nq; q++ {
				if _, err := e.Submit(engine.QueryConfig{SQL: engineSQL[q%len(engineSQL)]}); err != nil {
					panic("bench: engine scenario submit: " + err.Error())
				}
			}
			rep := e.Run(30)
			return rep.AggregateBytes, float64(rep.Results)
		},
	}
}

// engine1kScenario is the 1000-node engine workload (2 concurrent queries,
// 10 epochs) at the given worker count. With only 2 live queries the
// effective parallelism caps at 2 however many workers are requested; the
// requested count is still what the report records.
func engine1kScenario(pin, workers int, tr *obs.Tracer) Scenario {
	name := "engine-1k"
	desc := "2 concurrent queries over one shared 1000-node Moderate Random deployment, 10 epochs"
	if pin > 1 {
		name += fmt.Sprintf("-w%d", pin)
		desc += fmt.Sprintf(", %d workers (2 live queries bound the effective parallelism)", pin)
		workers = pin
	}
	return Scenario{
		Name:    name,
		Desc:    desc,
		Workers: workers,
		Run: func() (int64, float64) {
			e := engine.New(engine.Options{Seed: 1, Kind: topology.ModerateRandom, Nodes: 1000, Workers: workers, Trace: tr})
			for q := 0; q < 2; q++ {
				if _, err := e.Submit(engine.QueryConfig{SQL: engineSQL[q%len(engineSQL)]}); err != nil {
					panic("bench: engine-1k scenario submit: " + err.Error())
				}
			}
			rep := e.Run(10)
			return rep.AggregateBytes, float64(rep.Results)
		},
	}
}

// Committed live-heap ceilings (bytes) for the RunHeap scenarios: the
// measured post-GC live heap at the recording commit plus roughly 50%
// headroom (see DESIGN.md, "Scale model"). A run drifting past its
// ceiling fails the `aspen-bench -max-heap-bytes` gate.
const (
	churn10kHeapCeiling   = 32 << 20  // measured ~19 MB live
	engine100kHeapCeiling = 192 << 20 // measured ~107 MB live
)

// engine100kScenario is the deployment-scale ceiling: one bounded 4-pair
// query (built directly over the deployment — SQL placement would scan
// the full node set) on a 100000-node Dense Random deployment, 5 epochs.
// The live heap is measured post-GC while the engine is still referenced
// and gated against the committed ceiling.
func engine100kScenario(workers int, tr *obs.Tracer) Scenario {
	return Scenario{
		Name:        "engine-100k",
		Desc:        "1 bounded 4-pair query over one shared 100000-node Dense Random deployment, 5 epochs, gated live-heap ceiling",
		Workers:     workers,
		HeapCeiling: engine100kHeapCeiling,
		RunHeap: func() (int64, float64, int64) {
			e := engine.New(engine.Options{Seed: 1, Kind: topology.DenseRandom, Nodes: 100000,
				Trees: 1, Workers: workers, Trace: tr})
			rates := workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1}
			spec := workload.Query0(e.Topo, e.Nodes, 4, rates, 17)
			if _, err := e.Submit(engine.QueryConfig{ID: "q0", Spec: spec}); err != nil {
				panic("bench: engine-100k scenario submit: " + err.Error())
			}
			rep := e.Run(5)
			runtime.GC()
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			heap := int64(m.HeapAlloc)
			runtime.KeepAlive(e)
			return rep.AggregateBytes, float64(rep.Results), heap
		},
	}
}

// churn10kScenario exercises incremental tree maintenance at deployment
// scale: a 10k-node routing substrate under 8 rounds of interior-node
// failure, each round killing the alive non-root node owning the largest
// tree-0 subtree that fits the patch budget, so every round cuts a real
// subtree and must be repairable by routing.PatchTreeLive. The checksum
// folds the patched/rebuilt split and a tree-shape fingerprint, so a
// round silently degrading to a full rebuild shows as drift.
func churn10kScenario() Scenario {
	return Scenario{
		Name:        "churn-10k",
		Desc:        "10000-node routing substrate (2 trees + Bloom/Histogram index columns) under 8 interior-node failures repaired by incremental subtree patching",
		HeapCeiling: churn10kHeapCeiling,
		RunHeap: func() (int64, float64, int64) {
			const n = 10000
			topo := topology.Generate(topology.DenseRandom, n, 1)
			live := topology.NewLiveness(n)
			vals := make([]int32, n)
			for i := range vals {
				vals[i] = int32(i % 37)
			}
			specs := []routing.IndexSpec{
				{Attr: "id", Kind: routing.BloomSummary, Values: vals},
				{Attr: "band", Kind: routing.HistogramSummary, Values: vals, Lo: 0, Hi: 37},
			}
			net := sim.NewSharedNetwork(topo, 0.05, 7, live)
			sub := routing.NewSubstrate(topo, routing.Options{NumTrees: 2, Indexes: specs, IndexPositions: true}, net)
			roots := map[topology.NodeID]bool{}
			for _, t := range sub.Trees {
				roots[t.Root] = true
			}
			size := make([]int, n)
			for round := 0; round < 8; round++ {
				tree := sub.Trees[0]
				// Subtree sizes in one pass: DeepFirst orders children
				// before parents, so each node's total is complete before
				// it is folded into its parent's.
				for i := range size {
					size[i] = 1
				}
				for _, v := range tree.DeepFirst() {
					if p := tree.Parent[v]; p >= 0 && v != tree.Root {
						size[p] += size[v]
					}
				}
				victim := topology.NodeID(-1)
				best := 0
				for i := 1; i < n; i++ {
					id := topology.NodeID(i)
					if roots[id] || !live.Alive(id) || tree.Stale(id) || len(tree.Children[id]) == 0 {
						continue
					}
					if size[id] > best && size[id] <= 128 {
						victim, best = id, size[id]
					}
				}
				if victim < 0 {
					panic("bench: churn-10k found no interior victim")
				}
				live.Fail(victim)
				sub.RepairTrees(net, live, []topology.NodeID{victim})
			}
			st := sub.Stats()
			if st.Patched == 0 {
				panic("bench: churn-10k never exercised the incremental patch path")
			}
			fp := 0
			for _, t := range sub.Trees {
				for i := range t.Parent {
					fp += int(t.Parent[i]) + t.Depth[i]
				}
			}
			check := float64(fp) + 1e9*float64(st.Patched) + 1e12*float64(st.Rebuilt)
			runtime.GC()
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			heap := int64(m.HeapAlloc)
			runtime.KeepAlive(sub)
			return net.Metrics().TotalBytes, check, heap
		},
	}
}

func plural(n int) string {
	if n == 1 {
		return "y"
	}
	return "ies"
}

// singleRunConfig builds one seeded Query 1 run for the head-to-head and
// adaptivity scenarios.
func singleRunConfig(rates workload.Rates, opt *costmodel.Params, cycles int) *join.Config {
	topo := topology.Generate(topology.ModerateRandom, 100, 1)
	nodes := workload.BuildNodes(topo, 1)
	spec := workload.Query1(topo, nodes, rates)
	net := sim.NewNetwork(topo, 0.05, 1)
	sub := routing.NewSubstrate(topo, routing.Options{NumTrees: 3, Indexes: spec.Indexes}, nil)
	gen := workload.NewGenerator(rates, 42)
	p := costmodel.Params{SigmaS: rates.SigmaS, SigmaT: rates.SigmaT, SigmaST: rates.SigmaST, W: spec.W}
	if opt != nil {
		p = *opt
		p.W = spec.W
	}
	return join.NewConfig(topo, net, sub, spec, gen, p, cycles)
}

// Scenarios returns the fixed registry in stable order, with every
// scenario at its committed worker count (the counts BENCH_engine.json is
// recorded at). engine-16/engine-16-w4 and engine-1k/engine-1k-w4 are
// same-workload twins: their wall-clock ratio is the measured parallel
// speedup of the epoch hot path, and their checksums must be equal.
func Scenarios() []Scenario { return scenariosAt(0) }

// scenariosAt builds the registry with the unpinned engine scenarios
// stepped at `override` workers (<= 1 keeps their committed sequential
// default). Names never change with the override — the per-result Workers
// field records what actually ran, and Compare warns when two reports'
// counts differ.
func scenariosAt(override int) []Scenario { return scenariosWith(override, nil) }

// scenariosWith additionally threads a tracer into the engine-backed
// scenarios, so a traced bench run records their per-query worker spans
// alongside the scenario-level spans measure emits. Tracing never touches
// the checksums: observation reads engine state, it never steers it.
func scenariosWith(override int, tr *obs.Tracer) []Scenario {
	w := override
	if w < 1 {
		w = 1
	}
	return []Scenario{
		engineScenario(1, 0, w, tr),
		engineScenario(4, 0, w, tr),
		engineScenario(16, 0, w, tr),
		engineScenario(16, 4, 0, tr),
		engineScenario(64, 0, w, tr),
		engineScenario(256, 0, w, tr),
		engine1kScenario(0, w, tr),
		engine1kScenario(4, 0, tr),
		engine100kScenario(w, tr),
		churn10kScenario(),
		{
			Name: "topo-2k",
			Desc: "2000-node Moderate Random topology construction + base routing tree (grid-bucketed neighbor discovery)",
			Run: func() (int64, float64) {
				topo := topology.Generate(topology.ModerateRandom, 2000, 1)
				tree := routing.BuildTree(topo, topology.Base, nil)
				depthSum := 0
				for _, d := range tree.Depth {
					depthSum += d
				}
				// Construction is traffic-free; the checksum fingerprints
				// the layout (calibrated radio, exact edge count) and the
				// tree shape, so any drift in the construction path shows.
				check := topo.RadioRange()*1e6 + topo.AvgDegree()*float64(topo.N()) + float64(depthSum)
				return 0, check
			},
		},
		{
			Name: "churn-1k",
			Desc: "2 concurrent queries over a shared 1000-node deployment under node churn (seeded schedule + targeted join-node/path failures), 12 epochs",
			Run: func() (int64, float64) {
				const nodes = 1000
				mk := func(churn []engine.ChurnEvent) *engine.Engine {
					e := engine.New(engine.Options{Seed: 1, Kind: topology.ModerateRandom, Nodes: nodes, Churn: churn})
					for q := 0; q < 2; q++ {
						if _, err := e.Submit(engine.QueryConfig{SQL: engineSQL[q%len(engineSQL)]}); err != nil {
							panic("bench: churn-1k scenario submit: " + err.Error())
						}
					}
					return e
				}
				// Probe run: pick one intermediate path hop and one join
				// node from the placed pairs, so the schedule provably
				// exercises both recovery outcomes (in-network repair and
				// base-station fallback). Deterministic: the probe is a
				// fixed-seed run.
				probe := mk(nil)
				probe.Run(6)
				var mid, joinNode topology.NodeID = -1, -1
				for _, q := range probe.Queries() {
					res := q.Result()
					for i, p := range res.PairPaths {
						j := res.PairJoinNodes[i]
						if mid < 0 {
							for _, id := range p[1 : len(p)-1] {
								if id != j {
									mid = id
									break
								}
							}
						}
						if mid >= 0 && j != mid {
							joinNode = j
						}
						if mid >= 0 && joinNode >= 0 {
							break
						}
					}
				}
				if mid < 0 || joinNode < 0 {
					panic("bench: churn-1k probe found no victims")
				}
				churn := append(engine.SeededChurn(7, nodes, 12, 0.0005, 0),
					engine.ChurnEvent{Epoch: 3, Node: mid},
					engine.ChurnEvent{Epoch: 6, Node: joinNode})
				rep := mk(churn).Run(12)
				if rep.PathsRepaired < 1 || rep.BaseFallbacks < 1 {
					panic("bench: churn-1k scenario lost its repair/fallback coverage")
				}
				// The checksum folds every recovery counter in, so any
				// drift in churn handling — not just traffic — shows.
				check := float64(rep.Results) +
					1e3*float64(rep.PathsRepaired) +
					1e6*float64(rep.BaseFallbacks) +
					1e9*float64(rep.FailedNodes) +
					1e12*float64(rep.TreesRebuilt)
				return rep.AggregateBytes, check
			},
		},
		{
			Name: "lossy-1k",
			Desc: "2 concurrent queries over a shared 1000-node deployment with a seeded link-fault plan (5% heterogeneous link loss, transient link failures reviving after 3 epochs), 10 epochs",
			Run: func() (int64, float64) {
				e := engine.New(engine.Options{Seed: 1, Kind: topology.ModerateRandom, Nodes: 1000,
					Faults: &faults.Config{Seed: 9, LinkLoss: 0.05, LinkFailRate: 0.002, LinkReviveAfter: 3}})
				for q := 0; q < 2; q++ {
					if _, err := e.Submit(engine.QueryConfig{SQL: engineSQL[q%len(engineSQL)]}); err != nil {
						panic("bench: lossy-1k scenario submit: " + err.Error())
					}
				}
				rep := e.Run(10)
				if rep.LinkRerouted+rep.LinkFallbacks == 0 {
					panic("bench: lossy-1k scenario lost its link-fault coverage")
				}
				// The checksum folds the fault-layer counters in, so drift in
				// loss accounting or link recovery — not just traffic — shows.
				check := float64(rep.Results) +
					1e3*float64(rep.ResultsLost) +
					1e6*float64(rep.LinkRerouted) +
					1e9*float64(rep.LinkFallbacks)
				return rep.AggregateBytes, check
			},
		},
		{
			Name: "partition-16",
			Desc: "16 concurrent queries over one shared 100-node deployment bisected by a scheduled partition for epochs 10..14, 30 epochs",
			Run: func() (int64, float64) {
				e := engine.New(engine.Options{Seed: 1,
					Faults: &faults.Config{Seed: 5, Partitions: []faults.Partition{
						{From: 10, Until: 14, Kind: faults.Bisect}}}})
				for q := 0; q < 16; q++ {
					if _, err := e.Submit(engine.QueryConfig{SQL: engineSQL[q%len(engineSQL)]}); err != nil {
						panic("bench: partition-16 scenario submit: " + err.Error())
					}
				}
				rep := e.Run(30)
				if rep.PartitionEpochs != 4 {
					panic(fmt.Sprintf("bench: partition-16 scenario saw %d partition epochs, want 4", rep.PartitionEpochs))
				}
				if rep.LinkRerouted+rep.LinkFallbacks == 0 {
					panic("bench: partition-16 scenario cut no query paths")
				}
				check := float64(rep.Results) +
					1e3*float64(rep.ResultsLost) +
					1e6*float64(rep.LinkRerouted) +
					1e9*float64(rep.LinkFallbacks) +
					1e12*float64(rep.PartitionEpochs)
				return rep.AggregateBytes, check
			},
		},
		{
			Name: "adapt-drift",
			Desc: "section-6 adaptivity win: 2 queries whose true rates flip mid-run (epoch 30 of 120); engine-phase migration versus a frozen placement on identical seeds",
			Run: func() (int64, float64) {
				start := workload.Rates{SigmaS: 0.9, SigmaT: 0.1, SigmaST: 0.1}
				flip := workload.Rates{SigmaS: 0.1, SigmaT: 0.9, SigmaST: 0.1}
				run := func(adapt bool) *engine.Report {
					e := engine.New(engine.Options{Seed: 3, Adapt: adapt})
					for q, seed := range []uint64{11, 23} {
						g := workload.NewGenerator(start, seed)
						g.SetSwitch(30, flip)
						if _, err := e.Submit(engine.QueryConfig{
							SQL: engineSQL[q%len(engineSQL)], Rates: start, Sampler: g,
						}); err != nil {
							panic("bench: adapt-drift scenario submit: " + err.Error())
						}
					}
					return e.Run(120)
				}
				off := run(false)
				on := run(true)
				if on.Migrations < 1 {
					panic("bench: adapt-drift scenario never migrated")
				}
				if on.AggregateBytes >= off.AggregateBytes {
					panic(fmt.Sprintf("bench: adapt-drift lost its adaptivity win: on=%d >= off=%d bytes",
						on.AggregateBytes, off.AggregateBytes))
				}
				check := float64(on.Results) +
					1e3*float64(on.Migrations) +
					1e6*float64(on.MigrationsAborted) +
					1e9*float64(off.Results)
				return on.AggregateBytes, check
			},
		},
		{
			Name: "adapt-churn-1k",
			Desc: "adaptivity under churn: the churn-1k deployment and schedule with engine-phase migration enabled (wrong initial estimates, 4-cycle estimate interval), 12 epochs",
			Run: func() (int64, float64) {
				const nodes = 1000
				wrong := &costmodel.Params{SigmaS: 0.9, SigmaT: 0.1, SigmaST: 0.1}
				alg := join.Innet{Opts: join.InnetOptions{
					Multicast: true, GroupOpt: true, EstimateInterval: 4,
				}}
				mk := func(churn []engine.ChurnEvent) *engine.Engine {
					e := engine.New(engine.Options{Seed: 1, Kind: topology.ModerateRandom,
						Nodes: nodes, Churn: churn, Adapt: true})
					for q := 0; q < 2; q++ {
						if _, err := e.Submit(engine.QueryConfig{
							SQL: engineSQL[q%len(engineSQL)], Opt: wrong, Algorithm: alg,
						}); err != nil {
							panic("bench: adapt-churn-1k scenario submit: " + err.Error())
						}
					}
					return e
				}
				probe := mk(nil)
				probe.Run(6)
				var mid, joinNode topology.NodeID = -1, -1
				for _, q := range probe.Queries() {
					res := q.Result()
					for i, p := range res.PairPaths {
						j := res.PairJoinNodes[i]
						if mid < 0 {
							for _, id := range p[1 : len(p)-1] {
								if id != j {
									mid = id
									break
								}
							}
						}
						if mid >= 0 && j != mid {
							joinNode = j
						}
						if mid >= 0 && joinNode >= 0 {
							break
						}
					}
				}
				if mid < 0 || joinNode < 0 {
					panic("bench: adapt-churn-1k probe found no victims")
				}
				churn := append(engine.SeededChurn(7, nodes, 12, 0.0005, 0),
					engine.ChurnEvent{Epoch: 3, Node: mid},
					engine.ChurnEvent{Epoch: 6, Node: joinNode})
				rep := mk(churn).Run(12)
				if rep.Migrations < 1 {
					panic("bench: adapt-churn-1k scenario never migrated")
				}
				if rep.FailedNodes < 1 {
					panic("bench: adapt-churn-1k scenario lost its churn coverage")
				}
				check := float64(rep.Results) +
					1e3*float64(rep.Migrations) +
					1e6*float64(rep.MigrationsAborted) +
					1e9*float64(rep.FailedNodes) +
					1e12*float64(rep.PathsRepaired+rep.BaseFallbacks)
				return rep.AggregateBytes, check
			},
		},
		{
			Name: "repair",
			Desc: "section-7 limited-exploration repair: 100-node grid, every root path through a failed hot interior node repaired via a memoized Repairer",
			Run: func() (int64, float64) {
				topo := topology.Generate(topology.Grid, 100, 1)
				tree := routing.BuildTree(topo, topology.Base, nil)
				// Victim: the interior node relaying the most root paths.
				counts := make([]int, topo.N())
				for i := 1; i < topo.N(); i++ {
					p := tree.PathToRoot(topology.NodeID(i))
					for _, id := range p[1 : len(p)-1] {
						counts[id]++
					}
				}
				victim := topology.NodeID(0)
				for i := 1; i < topo.N(); i++ {
					if counts[i] > counts[victim] {
						victim = topology.NodeID(i)
					}
				}
				net := sim.NewNetwork(topo, 0, 1)
				net.Fail(victim)
				rp := routing.NewRepairer(topo, net, routing.DefaultRepairLimit)
				repaired, hops := 0, 0
				for i := 1; i < topo.N(); i++ {
					p := tree.PathToRoot(topology.NodeID(i))
					if p[0] == victim || !p.Contains(victim) {
						continue
					}
					if fixed, ok := rp.Repair(p); ok {
						repaired++
						hops += fixed.Hops()
					}
				}
				return net.Metrics().TotalBytes, 1e3*float64(repaired) + float64(hops)
			},
		},
		{
			Name: "sweep",
			Desc: "parallel experiment sweep (fig2+fig4+fig7, quick config, all cores)",
			Run: func() (int64, float64) {
				cfg := experiments.QuickConfig()
				check := 0.0
				for _, id := range []string{"fig2", "fig4", "fig7"} {
					e := experiments.Lookup(id)
					if e == nil {
						panic("bench: sweep scenario: experiment not registered: " + id)
					}
					for _, row := range e.Run(cfg) {
						check += row.Value.Mean
					}
				}
				// The sweep aggregates many runs whose traffic the rows
				// summarize; traffic-per-op is not meaningful here.
				return 0, check
			},
		},
		{
			Name: "innet-vs-base",
			Desc: "In-Net (cmg) vs join-at-base head-to-head on Query 1, 50 cycles",
			Run: func() (int64, float64) {
				rates := workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1}
				in := join.Innet{Opts: join.InnetOptions{Multicast: true, GroupOpt: true}}.Run(singleRunConfig(rates, nil, 50))
				base := join.Base{}.Run(singleRunConfig(rates, nil, 50))
				return in.TotalBytes + base.TotalBytes, float64(in.Results + base.Results)
			},
		},
		{
			Name: "adaptivity",
			Desc: "learning In-Net under wrong initial estimates (33% trigger), 150 cycles",
			Run: func() (int64, float64) {
				rates := workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1}
				wrong := &costmodel.Params{SigmaS: 1, SigmaT: 0.1, SigmaST: 0.2}
				res := join.Innet{Opts: join.InnetOptions{Learn: true, Trigger: 0.33}}.Run(singleRunConfig(rates, wrong, 150))
				return res.TotalBytes, float64(res.Results + res.Migrations)
			},
		},
		{
			Name: "transfer",
			Desc: "raw sim.Network.Transfer along the deepest grid tree path, 10k messages",
			Run: func() (int64, float64) {
				topo := topology.Generate(topology.Grid, 100, 1)
				net := sim.NewNetwork(topo, 0.05, 1)
				tree := routing.BuildTree(topo, topology.Base, nil)
				deepest := topology.NodeID(0)
				for i := 1; i < topo.N(); i++ {
					if tree.Depth[i] > tree.Depth[deepest] {
						deepest = topology.NodeID(i)
					}
				}
				path := tree.PathToRoot(deepest)
				delivered := 0
				for i := 0; i < 10000; i++ {
					if ok, _ := net.Transfer(path, sim.TupleBytes, sim.Data, sim.Flow{}); ok {
						delivered++
					}
				}
				return net.Metrics().TotalBytes, float64(delivered)
			},
		},
	}
}

// Result is one scenario's measurement.
type Result struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	// Workers is the engine worker count the scenario was stepped with.
	// Wall-clock numbers recorded at different worker counts (or on
	// machines with different num_cpu) are not comparable; Compare warns
	// on the mismatch instead of treating the timing delta as meaningful.
	Workers     int   `json:"workers"`
	Iterations  int   `json:"iterations"`
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// TrafficBytesPerOp is the simulated traffic of one iteration —
	// byte-identical across machines and runs (0 where not meaningful).
	TrafficBytesPerOp int64 `json:"traffic_bytes_per_op"`
	// SimBytesPerWallSecond is simulated traffic divided by wall time:
	// how many modeled network bytes one wall-clock second pushes through
	// the simulator.
	SimBytesPerWallSecond float64 `json:"sim_bytes_per_wall_second"`
	// Checksum is the scenario's deterministic output fingerprint; a
	// change between two reports means behavior drifted, not just speed.
	Checksum float64 `json:"checksum"`
	// HeapBytes is the post-GC live heap measured inside the scenario
	// (RunHeap scenarios only; omitted otherwise). Machine-stable but not
	// bit-stable, so it never participates in checksum drift detection.
	HeapBytes int64 `json:"heap_bytes,omitempty"`
	// HeapCeilingBytes is the scenario's committed live-heap bound; the
	// aspen-bench -max-heap-bytes gate fails when HeapBytes exceeds it.
	HeapCeilingBytes int64 `json:"heap_ceiling_bytes,omitempty"`
}

// Report is the BENCH_engine.json document.
type Report struct {
	SchemaVersion int      `json:"schema_version"`
	GoVersion     string   `json:"go_version"`
	GOOS          string   `json:"goos"`
	GOARCH        string   `json:"goarch"`
	NumCPU        int      `json:"num_cpu"`
	Quick         bool     `json:"quick"`
	Results       []Result `json:"results"`
}

// Options controls measurement effort.
type Options struct {
	// MinIters is the minimum iterations per scenario (default 3; quick
	// mode uses 1).
	MinIters int
	// MinTime is the minimum wall time per scenario; iterations continue
	// until both minima are met.
	MinTime time.Duration
	// Quick is recorded in the report so comparisons know the effort.
	Quick bool
	// Workers, when > 1, overrides the engine worker count of the
	// default-sequential engine scenarios (aspen-bench -workers). The
	// pinned -wN variants keep their declared counts — their names
	// promise one. Checksums are worker-invariant, so an override can
	// shift wall clock but never the determinism gate.
	Workers int
	// Trace, when non-nil, records a scenario-level span per measured
	// iteration and threads the tracer into the engine-backed scenarios
	// (per-query worker spans). Meant for quick mode — a full run repeats
	// each scenario for a second and the span count grows with every
	// iteration. Tracing never alters checksums.
	Trace *obs.Tracer
}

// QuickOptions is the CI configuration: one iteration per scenario.
func QuickOptions() Options { return Options{MinIters: 1, Quick: true} }

// DefaultOptions measures each scenario at least 3 times and 1 second.
func DefaultOptions() Options { return Options{MinIters: 3, MinTime: time.Second} }

// measure runs one scenario to the configured effort and derives per-op
// figures from aggregate wall time and allocator deltas.
func measure(s Scenario, opts Options) Result {
	minIters := opts.MinIters
	if minIters < 1 {
		minIters = 1
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var traffic int64
	var check float64
	iters := 0
	// The span name is built once and the per-iteration calls are gated, so
	// an untraced run's AllocsPerOp is exactly what it was before tracing
	// existed.
	lane := opts.Trace.Lane(0)
	spanName := ""
	if opts.Trace != nil {
		spanName = "bench:" + s.Name
	}
	var heap int64
	for iters < minIters || time.Since(start) < opts.MinTime {
		t0 := time.Now()
		if s.RunHeap != nil {
			traffic, check, heap = s.RunHeap()
		} else {
			traffic, check = s.Run()
		}
		if spanName != "" {
			lane.Span(spanName, -1, "", t0)
		}
		iters++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	workers := s.Workers
	if workers < 1 {
		workers = 1
	}
	r := Result{
		Name:              s.Name,
		Description:       s.Desc,
		Workers:           workers,
		Iterations:        iters,
		NsPerOp:           elapsed.Nanoseconds() / int64(iters),
		AllocsPerOp:       int64(m1.Mallocs-m0.Mallocs) / int64(iters),
		BytesPerOp:        int64(m1.TotalAlloc-m0.TotalAlloc) / int64(iters),
		TrafficBytesPerOp: traffic,
		Checksum:          check,
		HeapBytes:         heap,
		HeapCeilingBytes:  s.HeapCeiling,
	}
	if sec := elapsed.Seconds(); sec > 0 {
		r.SimBytesPerWallSecond = float64(traffic) * float64(iters) / sec
	}
	return r
}

// Run measures the named scenarios (all when names is empty) and returns
// the report. Unknown names are an error.
func Run(names []string, opts Options) (*Report, error) {
	all := scenariosWith(opts.Workers, opts.Trace)
	var picked []Scenario
	if len(names) == 0 {
		picked = all
	} else {
		byName := map[string]Scenario{}
		for _, s := range all {
			byName[s.Name] = s
		}
		for _, n := range names {
			s, ok := byName[n]
			if !ok {
				return nil, fmt.Errorf("bench: unknown scenario %q", n)
			}
			picked = append(picked, s)
		}
	}
	rep := &Report{
		SchemaVersion: SchemaVersion,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		Quick:         opts.Quick,
	}
	for _, s := range picked {
		rep.Results = append(rep.Results, measure(s, opts))
	}
	return rep, nil
}

// WriteFile serializes the report to path as indented JSON with a trailing
// newline (stable field order — struct order — so diffs are reviewable).
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a previously written report.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &r, nil
}

// Delta is one scenario's old-to-new comparison.
type Delta struct {
	Name string
	// Old / New are nil when the scenario is missing on that side.
	Old, New *Result
	// NsRatio / AllocsRatio are new/old (1.0 = unchanged, <1 = faster or
	// leaner); 0 when either side is missing.
	NsRatio, AllocsRatio float64
	// ChecksumDrift reports a determinism change: same scenario, same
	// seeds, different simulated outcome. Checksums are worker-invariant,
	// so drift is drift even across a worker-count mismatch.
	ChecksumDrift bool
	// WorkersMismatch reports the two results ran at different engine
	// worker counts: their wall-clock ratio measures the parallelism
	// change, not a code change, so callers warn instead of reading
	// NsRatio as a regression.
	WorkersMismatch bool
}

// EnvMismatch describes why two reports' wall-clock numbers are not
// comparable ("" when they are): recorded on Compare's environment check
// so single-core CI numbers are never read against multi-core local runs.
func EnvMismatch(old, new *Report) string {
	if old.NumCPU != new.NumCPU {
		return fmt.Sprintf("recorded on different machines: %d CPUs vs %d CPUs — timing ratios reflect hardware, not code", old.NumCPU, new.NumCPU)
	}
	if old.Quick != new.Quick {
		return fmt.Sprintf("different effort: quick=%v vs quick=%v — timing ratios are noisy", old.Quick, new.Quick)
	}
	return ""
}

// Compare matches scenarios by name and computes ratios. It refuses
// cross-schema comparisons.
func Compare(old, new *Report) ([]Delta, error) {
	if old.SchemaVersion != new.SchemaVersion {
		return nil, fmt.Errorf("bench: schema mismatch: old v%d vs new v%d", old.SchemaVersion, new.SchemaVersion)
	}
	oldBy := map[string]*Result{}
	for i := range old.Results {
		oldBy[old.Results[i].Name] = &old.Results[i]
	}
	seen := map[string]bool{}
	var out []Delta
	for i := range new.Results {
		nr := &new.Results[i]
		seen[nr.Name] = true
		d := Delta{Name: nr.Name, New: nr}
		if or, ok := oldBy[nr.Name]; ok {
			d.Old = or
			if or.NsPerOp > 0 {
				d.NsRatio = float64(nr.NsPerOp) / float64(or.NsPerOp)
			}
			if or.AllocsPerOp > 0 {
				d.AllocsRatio = float64(nr.AllocsPerOp) / float64(or.AllocsPerOp)
			}
			d.ChecksumDrift = or.Checksum != nr.Checksum
			ow, nw := or.Workers, nr.Workers
			if ow < 1 {
				ow = 1 // reports older than the workers field read as sequential
			}
			if nw < 1 {
				nw = 1
			}
			d.WorkersMismatch = ow != nw
		}
		out = append(out, d)
	}
	for i := range old.Results {
		if !seen[old.Results[i].Name] {
			out = append(out, Delta{Name: old.Results[i].Name, Old: &old.Results[i]})
		}
	}
	return out, nil
}
