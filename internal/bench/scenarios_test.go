package bench

import (
	"fmt"
	"runtime"
	"strconv"

	"repro/internal/costmodel"
	"repro/internal/dht"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/ght"
	"repro/internal/join"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Scenario is one named, seeded, repeatable unit of simulated behaviour.
type Scenario struct {
	Name string
	Desc string
	// HeapCeiling is the live-heap bound in bytes for the scenarios whose
	// Run measures heap (0 = none): the post-GC live heap at the recording
	// commit plus roughly 50% headroom (see DESIGN.md, "Scale model"). This
	// is the only place a ceiling is written down.
	HeapCeiling int64
	// Run executes the scenario once from fixed seeds and returns its golden
	// row after the name — "traffic=" its simulated bytes (0 where not
	// meaningful), then each counter or shape fingerprint under its own
	// name — and, for the scenarios that commit to a HeapCeiling, the
	// post-GC live heap measured while the scenario's state is still
	// referenced. Heap is machine-stable but not bit-stable, so it is held
	// against the ceiling, never recorded.
	Run func() (row string, heap int64)
}

// float renders a float counter exactly: the shortest decimal that parses
// back to the same float64.
func float(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// poolEngine builds an engine, submits nq queries drawn round-robin from
// EngineSQL and returns it with their handles. with, when non-nil,
// supplies the rest of query q's configuration (rates, sampler,
// algorithm); its SQL field is overwritten.
func poolEngine(opts engine.Options, nq int, with func(q int) engine.QueryConfig) (*engine.Engine, []*engine.Query) {
	e := engine.New(opts)
	qs := make([]*engine.Query, nq)
	for q := range qs {
		var cfg engine.QueryConfig
		if with != nil {
			cfg = with(q)
		}
		cfg.SQL = EngineSQL[q%len(EngineSQL)]
		var err error
		if qs[q], err = e.Submit(cfg); err != nil {
			panic(fmt.Sprintf("bench: submit pool query %d: %v", q, err))
		}
	}
	return e, qs
}

// engineScenario steps nq pool queries over one shared deployment of the
// given class and size for the given epochs — the multi-query scheduler
// plus the In-Net hot path. The "-wN" names are the parallel twins of the
// sequential scenarios: their rows are byte-identical at every worker
// count, so a twin drifting from its sibling is a determinism bug, not
// noise. (With fewer live queries than workers the effective parallelism
// is the query count.)
func engineScenario(name string, kind topology.Kind, nodes, nq, epochs, workers int) Scenario {
	return Scenario{
		Name: name,
		Desc: fmt.Sprintf("%d concurrent pool queries over one shared %d-node %v deployment, %d epochs, %d worker(s)", nq, nodes, kind, epochs, workers),
		Run: func() (string, int64) {
			e, _ := poolEngine(engine.Options{Seed: 1, Kind: kind, Nodes: nodes, Workers: workers}, nq, nil)
			rep := e.Run(epochs)
			return fmt.Sprintf("traffic=%d results=%d digest=%016x lostdigest=%016x", rep.AggregateBytes, rep.Results, rep.Digest, rep.LostDigest), 0
		},
	}
}

// turnover runs the benchmark's turnover-100 arrival process, in a fixed
// order instead of its seeded one, for epochs epochs over a 100-node
// Moderate Random deployment: before every Step four queries arrive, each
// living 16 epochs. Arrival i runs algorithm i%7 of
// the seven on shape i%6 of six — EngineSQL's four texts, then Query1 and
// Query0 — so every pairing recurs every 42 arrivals, and the first Query1
// precedes the first Query0 (the deployment indexes id with the summary
// kind of the first query that asks, and Query1 needs the interval kind).
func turnover(epochs int) *engine.Engine {
	rates := workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1}
	e := engine.New(engine.Options{Seed: 1, Kind: topology.ModerateRandom, Nodes: 100, Trees: 3})
	algs := []join.Continuous{
		join.Innet{Opts: join.InnetOptions{Multicast: true, GroupOpt: true}},
		join.Innet{},
		join.Base{},
		join.Naive{},
		join.Yang07{},
		join.Hashed{Label: "GHT", Router: ght.NewRouter(e.Topo)},
		join.Hashed{Label: "DHT", Router: dht.NewRing(e.Topo)},
	}
	for i := 0; i < 4*epochs; i++ {
		qc := engine.QueryConfig{ID: fmt.Sprintf("a%d", i), Algorithm: algs[i%len(algs)], Cycles: 16}
		switch shape := i % 6; shape {
		case 4:
			qc.Spec = workload.Query1(e.Topo, e.Nodes, rates)
		case 5:
			qc.Spec = workload.Query0(e.Topo, e.Nodes, 5, rates, uint64(i))
		default:
			qc.SQL, qc.Rates = EngineSQL[shape], rates
		}
		if _, err := e.Submit(qc); err != nil {
			panic(fmt.Sprintf("bench: turnover arrival %d: %v", i, err))
		}
		if i%4 == 3 {
			e.Step()
		}
	}
	return e
}

// liveHeap is the post-GC live heap in bytes, measured while keep — the
// state being sized — is still referenced.
func liveHeap(keep any) int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(keep)
	return int64(m.HeapAlloc)
}

// churn1k is the run behind churn-1k and adapt-churn-1k: 2 pool queries
// over a 1000-node Moderate Random deployment for 12 epochs under the
// seeded background churn plus two targeted failures — one intermediate
// path hop at epoch 3 and one join node at epoch 6, picked from the placed
// pairs of a 6-epoch probe run — so the schedule provably exercises both
// recovery outcomes (in-network repair and base-station fallback).
// Deterministic: the probe is a fixed-seed run.
func churn1k(adapt bool, with func(q int) engine.QueryConfig) *engine.Report {
	const nodes = 1000
	mk := func(churn []engine.ChurnEvent) (*engine.Engine, []*engine.Query) {
		return poolEngine(engine.Options{Seed: 1, Kind: topology.ModerateRandom,
			Nodes: nodes, Churn: churn, Adapt: adapt}, 2, with)
	}
	probe, queries := mk(nil)
	probe.Run(6)
	var mid, joinNode topology.NodeID = -1, -1
	for _, q := range queries {
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
	e, _ := mk(append(engine.SeededChurn(7, nodes, 12, 0.0005, 0),
		engine.ChurnEvent{Epoch: 3, Node: mid},
		engine.ChurnEvent{Epoch: 6, Node: joinNode}))
	return e.Run(12)
}

// oneQuery runs alg for cycles epochs as the only query of a 100-node
// Moderate Random deployment: Query 1 at the paper's 1/2:1/2 stage with
// sigma_st = 10%, its generator seeded 42, the optimizer told opt (nil: the
// true rates), learning when adapt is set. It returns the query's report row
// and the run's migrations.
func oneQuery(alg join.Continuous, opt *costmodel.Params, cycles int, adapt bool) (engine.QueryReport, int) {
	rates := workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1}
	e := engine.New(engine.Options{Seed: 1, Kind: topology.ModerateRandom, Adapt: adapt})
	_, err := e.Submit(engine.QueryConfig{Spec: workload.Query1(e.Topo, e.Nodes, rates), Algorithm: alg,
		Opt: opt, Sampler: workload.NewGenerator(rates, 42), Cycles: cycles})
	if err != nil {
		panic("bench: one-query submit: " + err.Error())
	}
	rep := e.Run(cycles)
	return rep.Queries[0], rep.Migrations
}

// Scenarios returns the fixed registry in stable order — the order of
// testdata/scenarios.golden. engine-16/engine-16-w4 and
// engine-1k/engine-1k-w4 are same-workload twins whose rows must be equal.
func Scenarios() []Scenario {
	return []Scenario{
		engineScenario("engine-1", topology.SparseRandom, 100, 1, 30, 1),
		engineScenario("engine-4", topology.SparseRandom, 100, 4, 30, 1),
		engineScenario("engine-16", topology.SparseRandom, 100, 16, 30, 1),
		engineScenario("engine-16-w4", topology.SparseRandom, 100, 16, 30, 4),
		engineScenario("engine-64", topology.SparseRandom, 100, 64, 30, 1),
		engineScenario("engine-256", topology.SparseRandom, 100, 256, 30, 1),
		engineScenario("engine-1k", topology.ModerateRandom, 1000, 2, 10, 1),
		engineScenario("engine-1k-w4", topology.ModerateRandom, 1000, 2, 10, 4),
		{
			// Short-lived queries arrive and retire every epoch; the heap is
			// read with the engine, and so every retired query's report row,
			// still referenced.
			Name:        "turnover-100",
			Desc:        "4 arrivals per epoch of 16-epoch queries cycling the seven algorithms over six query shapes on one shared 100-node deployment, 300 epochs, under a 0.5 MB live-heap ceiling",
			HeapCeiling: 1 << 19, // measured 0.4 MB live; 1.2 MB while the engine kept each retired Query and its Result
			Run: func() (string, int64) {
				e := turnover(300)
				rep := e.Run(0)
				retired := 0
				for _, q := range rep.Queries {
					if q.State == "retired" {
						retired++
					}
				}
				return fmt.Sprintf("traffic=%d results=%d lost=%d retired=%d digest=%016x lostdigest=%016x", rep.AggregateBytes,
					rep.Results, rep.ResultsLost, retired, rep.Digest, rep.LostDigest), liveHeap(e)
			},
		},
		{
			// The deployment-scale ceiling. The query is built directly over
			// the deployment: SQL placement would scan the full node set.
			Name:        "engine-100k",
			Desc:        "1 bounded 4-pair query over one shared 100000-node Dense Random deployment, 5 epochs, under a 13 MB live-heap ceiling",
			HeapCeiling: 13 << 20, // measured 10.5 MB live; 13.2 while a retired query kept its index column
			Run: func() (string, int64) {
				e := engine.New(engine.Options{Seed: 1, Kind: topology.DenseRandom, Nodes: 100000, Trees: 1})
				rates := workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1}
				spec := workload.Query0(e.Topo, e.Nodes, 4, rates, 17)
				if _, err := e.Submit(engine.QueryConfig{ID: "q0", Spec: spec}); err != nil {
					panic("bench: engine-100k scenario submit: " + err.Error())
				}
				rep := e.Run(5)
				return fmt.Sprintf("traffic=%d results=%d digest=%016x lostdigest=%016x", rep.AggregateBytes, rep.Results, rep.Digest, rep.LostDigest), liveHeap(e)
			},
		},
		{
			// The per-query ceiling at deployment scale: eight In-Net
			// queries live at once, the heap read while they still are, so
			// a column the length of the deployment that a query keeps shows
			// eight times over.
			Name:        "engine-100k-q8",
			Desc:        "8 live bounded 4-pair In-Net queries over one shared 100000-node Dense Random deployment, 5 epochs, heap read before they retire, under a 24 MB live-heap ceiling",
			HeapCeiling: 24 << 20, // measured 19.9 MB live; 26.0 while each kept n-length columns, 51.0 before
			Run: func() (string, int64) {
				e := engine.New(engine.Options{Seed: 1, Kind: topology.DenseRandom, Nodes: 100000, Trees: 1})
				rates := workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1}
				for seed := uint64(17); seed <= 24; seed++ {
					spec := workload.Query0(e.Topo, e.Nodes, 4, rates, seed)
					if _, err := e.Submit(engine.QueryConfig{ID: fmt.Sprintf("q%d", seed), Spec: spec}); err != nil {
						panic("bench: engine-100k-q8 scenario submit: " + err.Error())
					}
				}
				for range 5 {
					e.Step()
				}
				heap := liveHeap(e)
				rep := e.Run(0)
				return fmt.Sprintf("traffic=%d results=%d digest=%016x lostdigest=%016x", rep.AggregateBytes, rep.Results, rep.Digest, rep.LostDigest), heap
			},
		},
		{
			// The deployment ceiling at a million nodes: one In-Net query
			// live, the heap read while it is, so the deployment's own
			// columns and everything the query adds show together.
			Name:        "engine-1m-grid",
			Desc:        "1 live bounded 4-pair In-Net query over one shared 1000000-node Grid deployment, 3 epochs, heap read before it retires, under a 150 MB live-heap ceiling",
			HeapCeiling: 150 << 20, // measured 122.4 MB live; 126.2 while queries kept n-length columns
			Run: func() (string, int64) {
				e := engine.New(engine.Options{Seed: 1, Kind: topology.Grid, Nodes: 1000000, Trees: 1})
				rates := workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1}
				spec := workload.Query0(e.Topo, e.Nodes, 4, rates, 17)
				if _, err := e.Submit(engine.QueryConfig{ID: "q0", Spec: spec}); err != nil {
					panic("bench: engine-1m-grid scenario submit: " + err.Error())
				}
				for range 3 {
					e.Step()
				}
				heap := liveHeap(e)
				rep := e.Run(0)
				return fmt.Sprintf("traffic=%d results=%d digest=%016x lostdigest=%016x", rep.AggregateBytes, rep.Results, rep.Digest, rep.LostDigest), heap
			},
		},
		{
			// In-place tree maintenance at deployment scale: each round
			// kills the alive non-root node owning the largest tree-0
			// subtree of at most 128 nodes, so every round cuts a real
			// subtree and is repaired by routing.PatchTreeLive. The row
			// carries the patched/rebuilt split and a tree-shape
			// fingerprint, so a round silently degrading to a full rebuild
			// shows as drift.
			Name:        "churn-10k",
			Desc:        "10000-node routing substrate (2 trees + Bloom/Histogram index columns) under 8 interior-node failures repaired by incremental subtree patching, under a 32 MB live-heap ceiling",
			HeapCeiling: 32 << 20, // measured ~19 MB live
			Run: func() (string, int64) {
				const n = 10000
				topo := topology.Generate(topology.DenseRandom, n, 1)
				live := topology.NewLiveness(n)
				band := func(id topology.NodeID) int32 { return int32(id % 37) }
				specs := []routing.IndexSpec{
					{Attr: "id", Kind: routing.BloomSummary, Value: band},
					{Attr: "band", Kind: routing.HistogramSummary, Value: band, Lo: 0, Hi: 37},
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
						if roots[id] || !live.Alive(id) || tree.Stale(id) || len(tree.ChildrenOf(id)) == 0 {
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
				shape := 0
				for _, t := range sub.Trees {
					for i := range t.Parent {
						shape += int(t.Parent[i]) + int(t.Depth[i])
					}
				}
				return fmt.Sprintf("traffic=%d shape=%d patched=%d rebuilt=%d",
					net.Metrics().TotalBytes, shape, st.Patched, st.Rebuilt), liveHeap(sub)
			},
		},
		{
			Name: "topo-2k",
			Desc: "2000-node Moderate Random topology construction + base routing tree (grid-bucketed neighbor discovery)",
			Run: func() (string, int64) {
				topo := topology.Generate(topology.ModerateRandom, 2000, 1)
				tree := routing.BuildTree(topo, topology.Base, nil)
				depths := 0
				for _, d := range tree.Depth {
					depths += int(d)
				}
				// Construction is traffic-free; the row fingerprints the
				// layout (calibrated radio, exact edge count) and the tree
				// shape, so any drift in the construction path shows.
				return fmt.Sprintf("traffic=0 radio=%s degrees=%s depths=%d",
					float(topo.RadioRange()), float(topo.AvgDegree()*float64(topo.N())), depths), 0
			},
		},
		{
			Name: "churn-1k",
			Desc: "2 concurrent queries over a shared 1000-node deployment under node churn (seeded schedule + targeted join-node/path failures), 12 epochs",
			Run: func() (string, int64) {
				rep := churn1k(false, nil)
				if rep.PathsRepaired < 1 || rep.BaseFallbacks < 1 {
					panic("bench: churn-1k scenario lost its repair/fallback coverage")
				}
				return fmt.Sprintf("traffic=%d results=%d repaired=%d fallbacks=%d failed=%d rebuilt=%d digest=%016x lostdigest=%016x", rep.AggregateBytes,
					rep.Results, rep.PathsRepaired, rep.BaseFallbacks, rep.FailedNodes, rep.TreesRebuilt, rep.Digest, rep.LostDigest), 0
			},
		},
		{
			Name: "churn-reroot",
			Desc: "an In-Net (cmg) and a Base query over a shared 100-node deployment whose churn schedule fails the root of routing tree 1 at epoch 10; a third query admitted at epoch 12 searches the re-rooted tree, 30 epochs",
			Run: func() (string, int64) {
				root := engine.New(engine.Options{Seed: 1, Kind: topology.ModerateRandom}).Sub.Trees[1].Root
				e, _ := poolEngine(engine.Options{Seed: 1, Kind: topology.ModerateRandom,
					Churn: []engine.ChurnEvent{{Epoch: 10, Node: root}}}, 3, func(q int) engine.QueryConfig {
					switch q {
					case 1:
						return engine.QueryConfig{Algorithm: join.Base{}}
					case 2:
						return engine.QueryConfig{AdmitAt: 12}
					}
					return engine.QueryConfig{}
				})
				rep := e.Run(30)
				if rep.TreesRebuilt <= rep.TreesPatched {
					panic("bench: churn-reroot scenario re-rooted no tree")
				}
				return fmt.Sprintf("traffic=%d results=%d repaired=%d fallbacks=%d rebuilt=%d patched=%d digest=%016x lostdigest=%016x", rep.AggregateBytes,
					rep.Results, rep.PathsRepaired, rep.BaseFallbacks, rep.TreesRebuilt, rep.TreesPatched, rep.Digest, rep.LostDigest), 0
			},
		},
		{
			Name: "lossy-1k",
			Desc: "2 concurrent queries over a shared 1000-node deployment with a seeded link-fault plan (5% heterogeneous link loss, transient link failures reviving after 3 epochs), 10 epochs",
			Run: func() (string, int64) {
				e, _ := poolEngine(engine.Options{Seed: 1, Kind: topology.ModerateRandom, Nodes: 1000,
					Faults: &faults.Config{Seed: 9, LinkLoss: 0.05, LinkFailRate: 0.002, LinkReviveAfter: 3}}, 2, nil)
				rep := e.Run(10)
				if rep.LinkRerouted+rep.LinkFallbacks == 0 {
					panic("bench: lossy-1k scenario lost its link-fault coverage")
				}
				return fmt.Sprintf("traffic=%d results=%d lost=%d rerouted=%d fallbacks=%d digest=%016x lostdigest=%016x", rep.AggregateBytes,
					rep.Results, rep.ResultsLost, rep.LinkRerouted, rep.LinkFallbacks, rep.Digest, rep.LostDigest), 0
			},
		},
		{
			Name: "partition-16",
			Desc: "16 concurrent queries over one shared 100-node deployment bisected by a scheduled partition for epochs 10..14, 30 epochs",
			Run: func() (string, int64) {
				e, _ := poolEngine(engine.Options{Seed: 1,
					Faults: &faults.Config{Seed: 5, Partitions: []faults.Partition{
						{From: 10, Until: 14, Kind: faults.Bisect}}}}, 16, nil)
				rep := e.Run(30)
				if rep.PartitionEpochs != 4 {
					panic(fmt.Sprintf("bench: partition-16 scenario saw %d partition epochs, want 4", rep.PartitionEpochs))
				}
				if rep.LinkRerouted+rep.LinkFallbacks == 0 {
					panic("bench: partition-16 scenario cut no query paths")
				}
				return fmt.Sprintf("traffic=%d results=%d lost=%d rerouted=%d fallbacks=%d partitioned=%d digest=%016x lostdigest=%016x", rep.AggregateBytes,
					rep.Results, rep.ResultsLost, rep.LinkRerouted, rep.LinkFallbacks, rep.PartitionEpochs, rep.Digest, rep.LostDigest), 0
			},
		},
		{
			Name: "adapt-drift",
			Desc: "section-6 adaptivity win: 2 queries whose true rates flip mid-run (epoch 30 of 120); engine-phase migration versus a frozen placement on identical seeds",
			Run: func() (string, int64) {
				start := workload.Rates{SigmaS: 0.9, SigmaT: 0.1, SigmaST: 0.1}
				flip := workload.Rates{SigmaS: 0.1, SigmaT: 0.9, SigmaST: 0.1}
				run := func(adapt bool) *engine.Report {
					e, _ := poolEngine(engine.Options{Seed: 3, Adapt: adapt}, 2, func(q int) engine.QueryConfig {
						g := workload.NewGenerator(start, []uint64{11, 23}[q])
						g.SetSwitch(30, flip)
						return engine.QueryConfig{Rates: start, Sampler: g}
					})
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
				return fmt.Sprintf("traffic=%d results=%d migrations=%d aborted=%d frozen_results=%d digest=%016x lostdigest=%016x", on.AggregateBytes,
					on.Results, on.Migrations, on.MigrationsAborted, off.Results, on.Digest, on.LostDigest), 0
			},
		},
		{
			Name: "adapt-churn-1k",
			Desc: "adaptivity under churn: the churn-1k deployment and schedule with engine-phase migration enabled (wrong initial estimates, 4-cycle estimate interval), 12 epochs",
			Run: func() (string, int64) {
				wrong := &costmodel.Params{SigmaS: 0.9, SigmaT: 0.1, SigmaST: 0.1}
				alg := join.Innet{Opts: join.InnetOptions{Multicast: true, GroupOpt: true, EstimateInterval: 4}}
				rep := churn1k(true, func(int) engine.QueryConfig {
					return engine.QueryConfig{Opt: wrong, Algorithm: alg}
				})
				if rep.Migrations < 1 {
					panic("bench: adapt-churn-1k scenario never migrated")
				}
				if rep.FailedNodes < 1 {
					panic("bench: adapt-churn-1k scenario lost its churn coverage")
				}
				return fmt.Sprintf("traffic=%d results=%d migrations=%d aborted=%d failed=%d repaired=%d fallbacks=%d digest=%016x lostdigest=%016x", rep.AggregateBytes,
					rep.Results, rep.Migrations, rep.MigrationsAborted, rep.FailedNodes, rep.PathsRepaired, rep.BaseFallbacks, rep.Digest, rep.LostDigest), 0
			},
		},
		{
			Name: "repair",
			Desc: "section-7 limited-exploration repair: 100-node grid, every root path through a failed hot interior node repaired via a memoized Repairer",
			Run: func() (string, int64) {
				topo := topology.Generate(topology.Grid, 100, 1)
				tree := routing.BuildTree(topo, topology.Base, nil)
				// Victim: the interior node relaying the most root paths.
				counts := make([]int, topo.N())
				for i := 1; i < topo.N(); i++ {
					p := tree.AppendPathToRoot(nil, topology.NodeID(i))
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
					p := tree.AppendPathToRoot(nil, topology.NodeID(i))
					if p[0] == victim || !p.Contains(victim) {
						continue
					}
					if fixed, ok := rp.Repair(p); ok {
						repaired++
						hops += fixed.Hops()
					}
				}
				if repaired == 0 {
					panic("bench: repair scenario repaired no path")
				}
				return fmt.Sprintf("traffic=%d hops=%d repaired=%d", net.Metrics().TotalBytes, hops, repaired), 0
			},
		},
		{
			Name: "sweep",
			Desc: "parallel experiment sweep (fig2+fig4+fig7, quick config, all cores)",
			Run: func() (string, int64) {
				cfg := experiments.QuickConfig()
				means := 0.0
				for _, id := range []string{"fig2", "fig4", "fig7"} {
					e := experiments.Lookup(id)
					if e == nil {
						panic("bench: sweep scenario: experiment not registered: " + id)
					}
					for _, row := range e.Run(cfg) {
						means += row.Value.Mean
					}
				}
				// The sweep aggregates many runs whose traffic the rows
				// summarize; one traffic figure is not meaningful here.
				return "traffic=0 means=" + float(means), 0
			},
		},
		{
			Name: "innet-vs-base",
			Desc: "In-Net (cmg) vs join-at-base head-to-head on Query 1, 50 cycles",
			Run: func() (string, int64) {
				in, _ := oneQuery(join.Innet{Opts: join.InnetOptions{Multicast: true, GroupOpt: true}}, nil, 50, false)
				base, _ := oneQuery(join.Base{}, nil, 50, false)
				return fmt.Sprintf("traffic=%d innet_results=%d base_results=%d",
					in.TotalBytes+base.TotalBytes, in.Results, base.Results), 0
			},
		},
		{
			Name: "adaptivity",
			Desc: "learning In-Net under wrong initial estimates (33% trigger), 150 cycles",
			Run: func() (string, int64) {
				wrong := &costmodel.Params{SigmaS: 1, SigmaT: 0.1, SigmaST: 0.2}
				q, migrations := oneQuery(join.Innet{Opts: join.InnetOptions{Trigger: 0.33}}, wrong, 150, true)
				return fmt.Sprintf("traffic=%d results=%d migrations=%d digest=%016x lostdigest=%016x", q.TotalBytes, q.Results, migrations, q.Digest, q.LostDigest), 0
			},
		},
		{
			Name: "transfer",
			Desc: "raw sim.Network.Transfer along the deepest grid tree path, 10k messages",
			Run: func() (string, int64) {
				topo := topology.Generate(topology.Grid, 100, 1)
				net := sim.NewNetwork(topo, 0.05, 1)
				tree := routing.BuildTree(topo, topology.Base, nil)
				deepest := topology.NodeID(0)
				for i := 1; i < topo.N(); i++ {
					if tree.Depth[i] > tree.Depth[deepest] {
						deepest = topology.NodeID(i)
					}
				}
				path := tree.AppendPathToRoot(nil, deepest)
				delivered := 0
				for i := 0; i < 10000; i++ {
					if ok, _ := net.Transfer(path, sim.TupleBytes, sim.Data, sim.Flow{}); ok {
						delivered++
					}
				}
				return fmt.Sprintf("traffic=%d delivered=%d", net.Metrics().TotalBytes, delivered), 0
			},
		},
	}
}
