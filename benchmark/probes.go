package main

import (
	"runtime"
	"sort"
	"time"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/join"
	"repro/internal/mpo"
	"repro/internal/query"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/window"
	"repro/internal/workload"
)

// Layer probes: direct timed calls into each layer's public entry points on
// the workload's own inputs. They run after the traced rounds have finished,
// never inside a timed epoch, and build their own deployment, so their
// numbers are attribution by probe, not spans on the real run.

// Probe sizes. Batches are sized so that a probe of a nanosecond-scale call
// runs for about a millisecond.
const (
	probeReps        = 5    // repetitions behind each probe median
	probeBatch       = 2000 // calls per timed batch of a ns-scale operation
	probeSources     = 32   // sources of BFS, FindTargets and path repair
	probeCycles      = 50   // sampling cycles each algorithm is stepped
	probeReplicas    = 16   // default-algorithm pipelines behind probe_bytes_ratio
	probeChurnEpochs = 40   // churn epochs replayed against the probe substrate
	probeBigNodes    = 5000 // above this, construction probes run once
)

// timeEach runs fn n times and returns each call's duration in ns.
func timeEach(n int, fn func(i int)) []int64 {
	d := make([]int64, n)
	for i := range d {
		t0 := time.Now()
		fn(i)
		d[i] = int64(time.Since(t0))
	}
	return d
}

// perOp times probeReps batches of n calls and returns the median ns per
// call.
func perOp(n int, fn func(i int)) float64 {
	d := timeEach(probeReps, func(int) {
		for i := 0; i < n; i++ {
			fn(i)
		}
	})
	return float64(median(d)) / float64(n)
}

// probe holds the deployment the probes share.
type probe struct {
	in    *inputs
	seed  uint64
	topo  *topology.Topology
	nodes []workload.NodeInfo
	net   *sim.Network // the shared infrastructure stream
	sub   *routing.Substrate
	specs []*workload.Spec
	plan  *faults.Plan
	// pairPaths and joinNodes are the default algorithm's in-network pairs.
	pairPaths []routing.Path
	joinNodes []topology.NodeID
	out       metrics
}

// runProbes measures every layer on in's deployment. rep is the engine
// Report of the traced rounds, for the ratio against the engine-less
// pipeline.
func runProbes(in *inputs, seed uint64, rep *engine.Report) metrics {
	p := &probe{in: in, seed: seed, out: metrics{}}
	p.topology()
	p.workload()
	p.faults()
	p.routing()
	p.join(rep)
	p.placement()
	p.window()
	p.sim()
	p.mpo()
	p.adapt()
	p.repair() // last: it kills nodes on the probe deployment
	return p.out
}

// big reports a deployment on which whole-network operations take long
// enough that the probes repeat them less.
func (p *probe) big() bool { return p.in.spec.nodes > probeBigNodes }

// reps is how often a construction probe repeats on this deployment.
func (p *probe) reps() int {
	if p.big() {
		return 1
	}
	return probeReps
}

func (p *probe) topology() {
	s := p.in.spec
	d := timeEach(p.reps(), func(int) { p.topo = topology.Generate(s.kind, s.nodes, 1) })
	p.out.set("topology.generate_ms", float64(median(d))/1e6, len(d))
	n := p.topo.N()
	var buf []int
	d = timeEach(probeSources, func(i int) { buf = p.topo.HopsFrom(topology.NodeID(i*(n/probeSources)), buf) })
	p.out.set("topology.bfs_us", float64(median(d))/1e3, len(d))
	p.out.set("topology.edges", p.topo.AvgDegree()*float64(n)/2, 0)
}

func (p *probe) workload() {
	d := timeEach(p.reps(), func(int) { p.nodes = workload.BuildNodes(p.topo, 1) })
	p.out.set("workload.build_nodes_ms", float64(median(d))/1e6, len(d))
	compiled := make([]*workload.Spec, len(engineSQL))
	d = timeEach(len(engineSQL)*p.reps(), func(i int) {
		sp, err := workload.SpecFromSQL(engineSQL[i%len(engineSQL)], p.topo, p.nodes, defaultRates)
		if err != nil {
			panic(err)
		}
		compiled[i%len(engineSQL)] = sp
	})
	p.out.set("query.compile_us", float64(median(d))/1e3, len(d))
	// The specs the workload itself runs.
	s := p.in.spec
	switch {
	case s.q0Pairs > 0:
		p.specs = []*workload.Spec{workload.Query0(p.topo, p.nodes, s.q0Pairs, defaultRates, p.in.q0Seed)}
	case s.turnover:
		p.specs = append(compiled, workload.Query1(p.topo, p.nodes, defaultRates),
			workload.Query0(p.topo, p.nodes, q0TurnoverPairs, defaultRates, p.in.q0Seed))
	default:
		p.specs = compiled[:min(s.queries, len(compiled))]
	}
}

func (p *probe) faults() {
	// Fault-free workloads probe the layer with the churn workloads' plan.
	cfg := faults.Config{Seed: mix(scheduleSeed, tagFaults),
		LinkLoss: linkLoss, LinkFailRate: linkFailRate, LinkReviveAfter: linkReviveAfter}
	d := timeEach(p.reps(), func(int) { p.plan = faults.NewPlan(p.topo, cfg) })
	p.out.set("faults.new_plan_ms", float64(median(d))/1e6, len(d))
	epochs := probeCycles
	if p.big() {
		epochs = probeReps
	}
	d = timeEach(epochs, func(i int) { p.plan.BeginEpoch(i) })
	p.out.set("faults.begin_epoch_us", float64(median(d))/1e3, len(d))
	n := p.topo.N()
	p.out.set("faults.link_ns", perOp(probeBatch, func(i int) {
		from := topology.NodeID(i % n)
		p.plan.Link(from, p.topo.Neighbors(from)[0])
	}), probeReps)
}

// heapNow returns the live heap after a collection.
func heapNow() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func (p *probe) routing() {
	s := p.in.spec
	p.net = sim.NewNetwork(p.topo, 0.05, mix(p.seed, 100))
	before := heapNow()
	d := timeEach(p.reps(), func(int) {
		p.sub = routing.NewSubstrate(p.topo, routing.Options{NumTrees: s.trees}, p.net)
	})
	p.out.set("routing.substrate_ms", float64(median(d))/1e6, len(d))
	// Heap held by one substrate, measured from outside (by difference).
	p.out.set("routing.mem_mb", float64(int64(heapNow())-int64(before))/1e6, 1)
	// Each spec's first extension adds its columns; later ones are free.
	d = timeEach(len(p.specs), func(i int) { p.sub.ExtendIndexes(p.specs[i].Indexes, p.net) })
	p.out.set("routing.extend_indexes_us", float64(median(d))/1e3, len(d))
	var find []int64
	for _, sp := range p.specs {
		srcs := eligible(sp.EligibleS, p.topo.N(), probeSources/len(p.specs)+1)
		find = append(find, timeEach(len(srcs), func(i int) {
			p.sub.FindTargets(srcs[i], sp.SearchMatcher(srcs[i], p.sub), p.net)
		})...)
	}
	p.out.set("routing.find_targets_us", float64(median(find))/1e3, len(find))
}

// eligible returns up to limit nodes satisfying ok, in ID order.
func eligible(ok func(topology.NodeID) bool, n, limit int) []topology.NodeID {
	var out []topology.NodeID
	for i := 1; i < n && len(out) < limit; i++ {
		if ok(topology.NodeID(i)) {
			out = append(out, topology.NodeID(i))
		}
	}
	return out
}

// pipeline runs the engine-less single-query path: NewConfig, Start, cycles
// Steps, Finish, on a private network over the probe deployment.
func (p *probe) pipeline(alg join.Continuous, sp *workload.Spec, cycles int, seed uint64) (startNs int64, stepNs []int64, finishNs int64, res *join.Result, net *sim.Network) {
	net = sim.NewSharedNetwork(p.topo, 0.05, seed, p.net.Liveness())
	opt := costmodel.Params{SigmaS: sp.Rates.SigmaS, SigmaT: sp.Rates.SigmaT, SigmaST: sp.Rates.SigmaST, W: sp.W}
	cfg := join.NewConfig(p.topo, net, p.sub, sp, workload.NewGenerator(sp.Rates, seed+1), opt, cycles)
	t0 := time.Now()
	st := alg.Start(cfg)
	startNs = int64(time.Since(t0))
	stepNs = timeEach(cycles, func(c int) { st.Step(c) })
	t0 = time.Now()
	res = st.Finish()
	finishNs = int64(time.Since(t0))
	return
}

func (p *probe) join(rep *engine.Report) {
	var finish []int64
	for a, alg := range algorithms(p.topo) {
		var start, step []int64
		for i, sp := range p.specs {
			s0, st, f, res, _ := p.pipeline(alg, sp, probeCycles, mix(p.seed, uint64(200+10*a+i)))
			start, step, finish = append(start, s0), append(step, st...), append(finish, f)
			if a == 0 {
				p.pairPaths = append(p.pairPaths, res.PairPaths...)
				p.joinNodes = append(p.joinNodes, res.PairJoinNodes...)
			}
		}
		p.out.set("join.start_us."+algLabels[a], float64(median(start))/1e3, len(start))
		p.out.set("join.step_us."+algLabels[a], float64(median(step))/1e3, len(step))
	}
	p.out.set("join.finish_us", float64(median(finish))/1e3, len(finish))

	// Default-algorithm pipelines over a query's whole life in the engine
	// round, for the simulated-total comparison: bytes per query, probe over
	// engine.
	s := p.in.spec
	horizon := 1 + s.warmup + s.epochs
	if s.turnover {
		horizon = arrivalLife
	}
	alg := join.Continuous(join.Innet{Opts: join.InnetOptions{Multicast: true, GroupOpt: true}})
	replicas := probeReplicas
	if p.big() {
		replicas = 2
	}
	var bytes, n, stepNs float64
	var total sim.Metrics
	for r := 0; r < replicas; r++ {
		for i, sp := range p.specs {
			_, steps, _, res, net := p.pipeline(alg, sp, horizon, mix(p.seed, uint64(1000+100*r+i)))
			bytes += float64(res.TotalBytes)
			stepNs += mean(steps)
			n++
			total.Drops += net.Metrics().Drops
			total.Retransmissions += net.Metrics().Retransmissions
			total.TotalMessages += net.Metrics().TotalMessages
		}
	}
	p.out.set("join.probe_bytes_ratio",
		(bytes/n)/(float64(rep.QueryBytes)/float64(len(rep.Queries))), int(n))
	p.out["probe.step_mean_ns"] = value{Value: stepNs / n}
	// Drops and retransmissions are only visible on a network the probe
	// owns: these are the pipelines' counts, not the engine run's.
	p.out.set("sim.drops", float64(total.Drops), int(n))
	p.out.set("sim.retransmissions", float64(total.Retransmissions), int(n))
	p.out.set("sim.retx_share", float64(total.Retransmissions)/float64(max(total.TotalMessages, 1)), int(n))
}

func (p *probe) placement() {
	paths := p.pairPaths
	if len(paths) == 0 {
		paths = []routing.Path{p.sub.PathToBase(topology.NodeID(p.topo.N() - 1))}
	}
	params := costmodel.Params{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1, W: 3}
	p.out.set("core.place_pair_ns", perOp(probeBatch, func(i int) {
		core.PlacePair(params, paths[i%len(paths)], p.sub.DepthToBase, nil)
	}), probeReps)
	depths := make([][]int, len(paths))
	for i, path := range paths {
		for _, id := range path {
			depths[i] = append(depths[i], p.sub.DepthToBase(id))
		}
	}
	p.out.set("costmodel.best_placement_ns", perOp(probeBatch, func(i int) {
		costmodel.BestPlacement(params, depths[i%len(depths)])
	}), probeReps)
}

func (p *probe) window() {
	type arrival struct {
		p     topology.NodeID
		role  query.Rel
		value int32
		cycle int
	}
	var arrive, matches []float64
	var snap []int64
	for i, sp := range p.specs {
		st := window.NewState(sp.W, sp.DynJoin)
		roles := map[topology.NodeID]query.Rel{}
		var producers []topology.NodeID
		for _, g := range sp.Groups() {
			for _, pr := range g.Pairs {
				st.AddPair(pr[0], pr[1])
				for side, id := range pr {
					if _, seen := roles[id]; !seen {
						roles[id] = query.Rel(side)
						producers = append(producers, id)
					}
				}
			}
		}
		if len(producers) == 0 {
			continue
		}
		gen := workload.NewGenerator(sp.Rates, mix(p.seed, uint64(300+i)))
		var stream []arrival
		for c := 0; len(stream) < probeReps*probeBatch; c++ {
			for _, id := range producers {
				if v, send := gen.Sample(id, roles[id], c); send {
					stream = append(stream, arrival{id, roles[id], v, c})
				}
			}
		}
		var buf []window.Match
		found := 0
		chunk := len(stream) / probeReps
		d := timeEach(probeReps, func(r int) {
			for _, a := range stream[r*chunk : (r+1)*chunk] {
				buf = st.ArriveAppend(buf[:0], a.p, a.role, a.value, a.cycle)
				found += len(buf)
			}
		})
		arrive = append(arrive, float64(median(d))/float64(chunk))
		matches = append(matches, float64(found)/float64(probeReps*chunk))
		snap = append(snap, timeEach(probeReps, func(int) {
			tuples, _ := st.Snapshot(append([]topology.NodeID(nil), producers...)...)
			window.NewState(sp.W, sp.DynJoin).Restore(tuples)
		})...)
	}
	p.out.set("window.arrive_ns", median(arrive), len(arrive)*probeReps)
	p.out.set("window.matches_per_arrival", mean(matches), len(matches))
	p.out.set("window.snapshot_us", float64(median(snap))/1e3, len(snap))
}

// medianPath returns the median-length in-network pair path, or a tree path
// from the farthest-numbered node when no pair joined in-network.
func (p *probe) medianPath() routing.Path {
	if len(p.pairPaths) == 0 {
		return p.sub.PathToBase(topology.NodeID(p.topo.N() - 1))
	}
	paths := append([]routing.Path(nil), p.pairPaths...)
	sort.SliceStable(paths, func(i, j int) bool { return len(paths[i]) < len(paths[j]) })
	return paths[len(paths)/2]
}

func (p *probe) sim() {
	path := p.medianPath()
	perHop := func(net *sim.Network) float64 {
		hops := 0
		d := timeEach(probeReps, func(int) {
			for i := 0; i < probeBatch; i++ {
				_, h := net.Transfer(path, sim.TupleBytes, sim.Data, sim.Flow{})
				hops += h
			}
		})
		return float64(median(d)) * probeReps / float64(max(hops, 1))
	}
	clean := sim.NewNetwork(p.topo, 0.05, mix(p.seed, 400))
	p.out.set("sim.transfer_ns_per_hop", perHop(clean), probeReps)
	faulted := sim.NewNetwork(p.topo, 0.05, mix(p.seed, 400))
	faulted.SetFaults(p.plan)
	p.out.set("sim.transfer_faulted_ns_per_hop", perHop(faulted), probeReps)
}

func (p *probe) mpo() {
	// Producer groups: every in-network pair contributes its s-side prefix
	// to s's group and its reversed t-side suffix to t's group, the paths a
	// producer's multicast tree is the union of.
	groups := map[topology.NodeID][]routing.Path{}
	var roots []topology.NodeID
	add := func(path routing.Path) {
		if _, seen := groups[path[0]]; !seen {
			roots = append(roots, path[0])
		}
		groups[path[0]] = append(groups[path[0]], path)
	}
	for i, path := range p.pairPaths {
		for k, id := range path {
			if id == p.joinNodes[i] {
				add(path[:k+1])
				add(path[k:].Reverse())
				break
			}
		}
	}
	if len(roots) == 0 {
		path := p.medianPath()
		add(path)
	}
	trees := make([]*mpo.MulticastTree, len(roots))
	d := timeEach(len(roots), func(i int) { trees[i] = mpo.BuildMulticast(roots[i], groups[roots[i]]) })
	p.out.set("mpo.build_us", float64(median(d))/1e3, len(d))
	edges := 0.0
	d = timeEach(len(roots), func(i int) {
		trees[i].InteriorStateBytes(sim.PathEntryBytes)
		edges += float64(trees[i].Edges())
	})
	p.out.set("mpo.interior_state_us", float64(median(d))/1e3, len(d))
	p.out.set("mpo.tree_edges", edges/float64(len(roots)), len(roots))
}

func (p *probe) adapt() {
	est := adapt.New(costmodel.Params{SigmaS: 0.9, SigmaT: 0.1, SigmaST: 0.1, W: 3})
	est.Interval = 4
	cycle := 0
	p.out.set("adapt.estimator_ns", perOp(probeBatch, func(i int) {
		if i%2 == 0 {
			est.ObserveS()
		} else {
			est.ObserveT()
		}
		est.EndCycle(cycle)
		cycle++
	}), probeReps)
}

func (p *probe) repair() {
	s := p.in.spec
	live := p.net.Liveness()
	// Path repair first, on an otherwise healthy deployment: kill one
	// interior node of a pair path, repair, revive.
	var fix []int64
	for i, path := range p.pairPaths {
		if len(path) < 3 || len(fix) >= probeSources {
			continue
		}
		victim := path[len(path)/2]
		if victim == topology.Base {
			continue
		}
		live.Fail(victim)
		rp := routing.NewRepairer(p.topo, p.net, 0)
		fix = append(fix, timeEach(1, func(int) { rp.Repair(p.pairPaths[i]) })...)
		live.Revive(victim)
	}
	p.out.set("routing.repair_path_us", float64(median(fix))/1e3, len(fix))
	// Tree repair: replay the workload's churn schedule (fault-free
	// workloads replay one at the churn workloads' expected half failure per
	// epoch) and time RepairTrees on every epoch that fails a node.
	churn := p.in.opts.Churn
	if churn == nil {
		churn = engine.SeededChurn(mix(scheduleSeed, tagChurn), s.nodes, 4*probeChurnEpochs, 0.5/float64(s.nodes), churnReviveAfter)
	}
	var trees []int64
	for at := 0; at < len(churn) && len(trees) < probeChurnEpochs; {
		var failed []topology.NodeID
		epoch := churn[at].Epoch
		for ; at < len(churn) && churn[at].Epoch == epoch; at++ {
			if ev := churn[at]; ev.Revive {
				live.Revive(ev.Node)
			} else if live.Alive(ev.Node) {
				live.Fail(ev.Node)
				failed = append(failed, ev.Node)
			}
		}
		if len(failed) > 0 {
			trees = append(trees, timeEach(1, func(int) { p.sub.RepairTrees(p.net, live, failed) })...)
		}
	}
	p.out.set("routing.repair_trees_ms", float64(median(trees))/1e6, len(trees))
}
