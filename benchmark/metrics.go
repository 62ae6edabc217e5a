package main

import (
	"fmt"
	"math"
	"slices"
)

// def declares one metric: BENCHMARK.json lists the same names, units and
// directions (the smoke test keeps the two in step). bound is the share of
// the earlier median by which an end-to-end metric may get worse before a
// change counts as a regression; per-layer metrics have none.
type def struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics a user of the engine sees, measured with tracing
// off and defined on every workload. The three sim_* metrics are simulated
// quantities: for one seed they repeat bit for bit, and they are end-to-end
// so that no host-speed change can silently trade away model quality.
var endToEnd = []def{
	{"setup_s", "s", "lower", 0.25},
	{"epochs_per_s", "1/s", "higher", 0.2},
	{"epoch_p50_ms", "ms", "lower", 0.2},
	{"live_heap_mb", "MB", "lower", 0.05},
	{"alloc_kb_per_epoch", "KB", "lower", 0.2},
	{"sim_bytes_per_result", "B", "lower", 0.05},
	{"sim_result_delay_cycles", "cycles", "lower", 0.05},
	{"sim_delivered_share", "ratio", "higher", 0.01},
}

// perLayer are the traced pass's metrics, grouped by the package they
// attribute time or work to.
var perLayer = func() []def {
	d := []def{
		{name: "engine.new_ms", unit: "ms", better: "lower"},
		{name: "engine.submit_us", unit: "us", better: "lower"},
		{name: "engine.admit_epoch_ms", unit: "ms", better: "lower"},
		{name: "engine.report_us", unit: "us", better: "lower"},
		{name: "engine.step_tail_ms", unit: "ms", better: "lower"},
		{name: "engine.step_max_ms", unit: "ms", better: "lower"},
		{name: "engine.churn_epoch_p50_ms", unit: "ms", better: "lower"},
		{name: "engine.quiet_epoch_p50_ms", unit: "ms", better: "lower"},
		{name: "engine.allocs_per_epoch", unit: "count", better: "lower"},
		{name: "engine.gc_pause_ms", unit: "ms", better: "lower"},
		{name: "engine.self_share", unit: "ratio", better: "lower"},
		{name: "engine.par_speedup", unit: "ratio", better: "higher"},
		{name: "engine.setup_share", unit: "ratio", better: "lower"},
		{name: "topology.generate_ms", unit: "ms", better: "lower"},
		{name: "topology.bfs_us", unit: "us", better: "lower"},
		{name: "topology.edges", unit: "count", better: "lower"},
		{name: "workload.build_nodes_ms", unit: "ms", better: "lower"},
		{name: "query.compile_us", unit: "us", better: "lower"},
		{name: "routing.substrate_ms", unit: "ms", better: "lower"},
		{name: "routing.extend_indexes_us", unit: "us", better: "lower"},
		{name: "routing.find_targets_us", unit: "us", better: "lower"},
		{name: "routing.repair_trees_ms", unit: "ms", better: "lower"},
		{name: "routing.repair_path_us", unit: "us", better: "lower"},
		{name: "routing.trees_patched", unit: "count", better: "higher"},
		{name: "routing.trees_rebuilt", unit: "count", better: "lower"},
		{name: "routing.patch_share", unit: "ratio", better: "higher"},
		{name: "routing.paths_repaired", unit: "count", better: "higher"},
		{name: "routing.base_fallbacks", unit: "count", better: "lower"},
		{name: "routing.mem_mb", unit: "MB", better: "lower"},
	}
	for _, a := range algLabels {
		d = append(d, def{name: "join.start_us." + a, unit: "us", better: "lower"})
	}
	for _, a := range algLabels {
		d = append(d, def{name: "join.step_us." + a, unit: "us", better: "lower"})
	}
	return append(d, []def{
		{name: "join.finish_us", unit: "us", better: "lower"},
		{name: "join.results", unit: "count", better: "higher"},
		{name: "join.results_lost", unit: "count", better: "lower"},
		{name: "join.innet_pairs", unit: "count", better: "higher"},
		{name: "join.atbase_pairs", unit: "count", better: "lower"},
		{name: "join.probe_bytes_ratio", unit: "ratio", better: "lower"},
		{name: "core.place_pair_ns", unit: "ns", better: "lower"},
		{name: "costmodel.best_placement_ns", unit: "ns", better: "lower"},
		{name: "window.arrive_ns", unit: "ns", better: "lower"},
		{name: "window.matches_per_arrival", unit: "ratio", better: "higher"},
		{name: "window.snapshot_us", unit: "us", better: "lower"},
		{name: "sim.transfer_ns_per_hop", unit: "ns", better: "lower"},
		{name: "sim.transfer_faulted_ns_per_hop", unit: "ns", better: "lower"},
		{name: "sim.messages", unit: "count", better: "lower"},
		{name: "sim.bytes", unit: "B", better: "lower"},
		{name: "sim.drops", unit: "count", better: "lower"},
		{name: "sim.retransmissions", unit: "count", better: "lower"},
		{name: "sim.retx_share", unit: "ratio", better: "lower"},
		{name: "mpo.build_us", unit: "us", better: "lower"},
		{name: "mpo.interior_state_us", unit: "us", better: "lower"},
		{name: "mpo.tree_edges", unit: "count", better: "lower"},
		{name: "adapt.migrations", unit: "count", better: "higher"},
		{name: "adapt.migrations_aborted", unit: "count", better: "lower"},
		{name: "adapt.migrations_per_epoch", unit: "ratio", better: "lower"},
		{name: "adapt.estimator_ns", unit: "ns", better: "lower"},
		{name: "faults.new_plan_ms", unit: "ms", better: "lower"},
		{name: "faults.begin_epoch_us", unit: "us", better: "lower"},
		{name: "faults.link_ns", unit: "ns", better: "lower"},
		{name: "faults.link_rerouted", unit: "count", better: "higher"},
		{name: "faults.link_fallbacks", unit: "count", better: "lower"},
		{name: "bench.trace_overhead_share", unit: "ratio", better: "lower"},
	}...)
}()

// value is one measured metric; N is the number of samples behind a median
// or percentile (0 for a count or a single reading).
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

type metrics map[string]value

func (m metrics) set(name string, v float64, n int) {
	m[name] = value{Value: v, N: n}
}

// withUnits stamps each declared metric's unit on its measured value.
func (m metrics) withUnits(defs []def) metrics {
	for _, d := range defs {
		if v, ok := m[d.name]; ok {
			v.Unit = d.unit
			m[d.name] = v
		}
	}
	return m
}

// median returns the median of d (the upper one of an even count), 0 when
// empty.
func median[T number](d []T) T { return quantile(d, 0.5) }

// quantile returns the q-quantile of d by nearest rank, 0 when empty. It
// sorts a copy.
func quantile[T number](d []T, q float64) T {
	if len(d) == 0 {
		return 0
	}
	s := slices.Clone(d)
	slices.Sort(s)
	return s[min(int(q*float64(len(s))), len(s)-1)]
}

type number interface{ ~int64 | ~float64 }

func mean[T number](d []T) float64 {
	if len(d) == 0 {
		return 0
	}
	var sum float64
	for _, x := range d {
		sum += float64(x)
	}
	return sum / float64(len(d))
}

// throughput returns each round's steady epochs per second; pooled returns
// every steady Step duration of the rounds.
func throughput(rounds []round) []float64 {
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		out[i] = float64(len(r.stepNs)) / (float64(r.steadyNs) / 1e9)
	}
	return out
}

func pooled(rounds []round) []int64 {
	var out []int64
	for _, r := range rounds {
		out = append(out, r.stepNs...)
	}
	return out
}

// endToEndMetrics computes the end-to-end metrics of an untraced pass.
func endToEndMetrics(p *pass) metrics {
	m := metrics{}
	m.set("setup_s", float64(median(p.setupNs))/1e9, len(p.setupNs))
	if len(p.rounds) == 0 {
		return m
	}
	steps := pooled(p.rounds)
	m.set("epochs_per_s", median(throughput(p.rounds)), len(p.rounds))
	m.set("epoch_p50_ms", float64(median(steps))/1e6, len(steps))
	m.set("live_heap_mb", float64(p.liveHeap)/1e6, 1)
	alloc := make([]float64, len(p.rounds))
	for i, r := range p.rounds {
		alloc[i] = float64(r.allocBytes) / float64(len(r.stepNs)) / 1e3
	}
	m.set("alloc_kb_per_epoch", median(alloc), len(alloc))
	rep := p.rounds[0].report
	m.set("sim_bytes_per_result", float64(rep.AggregateBytes)/float64(max(rep.Results, 1)), 0)
	var delay float64
	for _, q := range rep.Queries {
		delay += float64(q.Results) * q.MeanDelay
	}
	m.set("sim_result_delay_cycles", delay/float64(max(rep.Results, 1)), 0)
	m.set("sim_delivered_share", float64(rep.Results)/float64(max(rep.Results+rep.ResultsLost, 1)), 0)
	return m
}

// tail returns the highest of p90/p95/p99 that has at least ten samples
// beyond it, with its label.
func tail(d []int64) (int64, string) {
	for _, q := range []float64{0.99, 0.95, 0.90} {
		if float64(len(d))*(1-q) >= 10 {
			return quantile(d, q), fmt.Sprintf("p%.0f", q*100)
		}
	}
	return quantile(d, 1), "max (fewer than 100 samples)"
}

// layerMetrics computes the per-layer metrics of a traced pass: spans around
// the harness's own calls, counts from the engine Report, and the probes.
func layerMetrics(p *pass, in *inputs, seed uint64) metrics {
	m := metrics{}
	if len(p.rounds) < 2 {
		return m
	}
	tr := p.trace
	spanMedian := func(metric, span string, div float64) {
		d := tr.byName(span)
		m.set(metric, float64(median(d))/div, len(d))
	}
	spanMedian("engine.new_ms", "engine.New", 1e6)
	spanMedian("engine.submit_us", "engine.Submit", 1e3)
	spanMedian("engine.admit_epoch_ms", "engine.Step.admit", 1e6)
	spanMedian("engine.report_us", "engine.Report", 1e3)

	steps := pooled(p.rounds)
	t, label := tail(steps)
	m["engine.step_tail_ms"] = value{Value: float64(t) / 1e6, N: len(steps), Note: label}
	m.set("engine.step_max_ms", float64(quantile(steps, 1))/1e6, len(steps))
	var churned, quiet []int64
	for _, r := range p.rounds {
		for i, d := range r.stepNs {
			if in.churnEpoch[1+in.spec.warmup+i] {
				churned = append(churned, d)
			} else {
				quiet = append(quiet, d)
			}
		}
	}
	m.set("engine.churn_epoch_p50_ms", float64(median(churned))/1e6, len(churned))
	m.set("engine.quiet_epoch_p50_ms", float64(median(quiet))/1e6, len(quiet))
	var mallocs, pauses, setupShare []float64
	for _, r := range p.rounds {
		mallocs = append(mallocs, float64(r.mallocs)/float64(len(r.stepNs)))
		pauses = append(pauses, float64(r.gcPauseNs)/1e6)
		setupShare = append(setupShare, float64(r.setupNs)/float64(r.setupNs+r.steadyNs))
	}
	m.set("engine.allocs_per_epoch", median(mallocs), len(mallocs))
	m.set("engine.gc_pause_ms", median(pauses), len(pauses))
	m.set("engine.setup_share", median(setupShare), len(setupShare))
	// Tracing overhead. The harness opens its spans outside the clock reads
	// that time a Step, so tracing can only add to the steady wall time
	// spent outside Step: that share, traced rounds minus untraced ones, is
	// the slowdown of epochs_per_s, free of the Steps' own run-to-run noise.
	var outside [2][]float64
	var untraced []round
	for _, r := range p.rounds {
		var inStep int64
		for _, d := range r.stepNs {
			inStep += d
		}
		k := 0
		if r.traced {
			k = 1
		} else {
			untraced = append(untraced, r)
		}
		outside[k] = append(outside[k], float64(r.steadyNs-inStep)/float64(r.steadyNs))
	}
	m.set("bench.trace_overhead_share", median(outside[1])-median(outside[0]), len(outside[1]))
	speedup := 1.0 // a sequential workload is its own twin
	if len(p.twin) > 0 {
		speedup = median(throughput(untraced)) / median(throughput(p.twin))
	}
	m.set("engine.par_speedup", speedup, len(p.twin))

	rep := p.rounds[0].report
	count := func(name string, v int) { m.set(name, float64(v), 0) }
	count("routing.trees_patched", rep.TreesPatched)
	count("routing.trees_rebuilt", rep.TreesRebuilt)
	m.set("routing.patch_share", float64(rep.TreesPatched)/float64(max(rep.TreesRebuilt, 1)), 0)
	count("routing.paths_repaired", rep.PathsRepaired)
	count("routing.base_fallbacks", rep.BaseFallbacks)
	count("join.results", rep.Results)
	count("join.results_lost", rep.ResultsLost)
	innet, atbase := 0, 0
	var messages int64
	for _, q := range rep.Queries {
		innet += q.InNetPairs
		atbase += q.AtBasePairs
		messages += q.TotalMessages
	}
	count("join.innet_pairs", innet)
	count("join.atbase_pairs", atbase)
	count("sim.messages", int(messages+rep.SharedMessages))
	m.set("sim.bytes", float64(rep.AggregateBytes), 0)
	count("adapt.migrations", rep.Migrations)
	count("adapt.migrations_aborted", rep.MigrationsAborted)
	m.set("adapt.migrations_per_epoch", float64(rep.Migrations)/float64(rep.Epochs), 0)
	count("faults.link_rerouted", rep.LinkRerouted)
	count("faults.link_fallbacks", rep.LinkFallbacks)

	for name, v := range runProbes(in, seed, rep) {
		m[name] = v
	}
	if s := in.spec; !s.churn && !s.turnover && s.q0Pairs == 0 {
		// Same algorithm, no failures, hundreds of queries on either side:
		// the engine-less pipeline must reproduce the engine's traffic.
		ratio := m["join.probe_bytes_ratio"].Value
		p.ops.check(math.Abs(ratio-1) <= 0.02,
			"%s: engine-less pipeline moved %.4f of the engine's bytes per query, outside 2%%", s.name, ratio)
	}
	// Attribution by difference: the share of Step time the engine-less
	// pipeline's Steps do not account for (live queries x probe Step mean).
	live := float64(len(rep.Queries))
	if in.spec.turnover {
		live = arrivalsPerEpoch * arrivalLife
	}
	m["engine.self_share"] = value{N: len(steps), Note: "by difference against the join probe",
		Value: 1 - live*m["probe.step_mean_ns"].Value/mean(steps)}
	delete(m, "probe.step_mean_ns")
	return m
}
