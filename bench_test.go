package aspen

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/join"
	"repro/internal/obs"
	"repro/internal/workload"
)

// benchExperiment runs one registered experiment per iteration in quick
// mode. Every table and figure of the paper has a bench target here; the
// aspen-exp CLI regenerates the same artifacts at full fidelity.
func benchExperiment(b *testing.B, id string) {
	e := experiments.Lookup(id)
	if e == nil {
		b.Fatalf("experiment %s not registered", id)
	}
	cfg := experiments.QuickConfig()
	cfg.Runs = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := e.Run(cfg)
		if len(rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkFig2(b *testing.B)     { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)     { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)     { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)     { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)     { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)     { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)     { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)     { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)    { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)    { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)    { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)    { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)    { benchExperiment(b, "fig14") }
func BenchmarkFig16(b *testing.B)    { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)    { benchExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B)    { benchExperiment(b, "fig18") }
func BenchmarkFig19(b *testing.B)    { benchExperiment(b, "fig19") }
func BenchmarkFig20(b *testing.B)    { benchExperiment(b, "fig20") }
func BenchmarkTable3(b *testing.B)   { benchExperiment(b, "tab3") }
func BenchmarkMobility(b *testing.B) { benchExperiment(b, "mobility") }

// --- Ablation benches (DESIGN.md, "Design choices called out for ablation")

// BenchmarkAblation runs the ablation experiment: join-node placement
// policy and adaptivity trigger ratio.
func BenchmarkAblation(b *testing.B) { benchExperiment(b, "ablation") }

// benchOneQuery runs alg for cycles epochs as the only query of a 100-node
// Moderate Random deployment with the given tree count — the named Table 2
// query at rates, its generator seeded 42 — and reports the query's
// traffic per op.
func benchOneQuery(b *testing.B, query string, rates workload.Rates, trees, cycles int, alg join.Continuous) {
	var bytes int64
	for i := 0; i < b.N; i++ {
		e := engine.New(engine.Options{Seed: 1, Trees: trees})
		spec, err := workload.Named(query, e.Topo, e.Nodes, 0, rates, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Submit(engine.QueryConfig{Spec: spec, Algorithm: alg, Sampler: workload.NewGenerator(rates, 42), Cycles: cycles}); err != nil {
			b.Fatal(err)
		}
		bytes += e.Run(cycles).QueryBytes
	}
	b.ReportMetric(float64(bytes)/float64(b.N)/1024, "trafficKB/op")
}

// BenchmarkAblationMulticast measures the interior-state-cached multicast
// tree against pairwise unicast on the m:n Query 1.
func BenchmarkAblationMulticast(b *testing.B) {
	rates := workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.05}
	for _, bench := range []struct {
		name string
		opts join.InnetOptions
	}{
		{"unicast", join.InnetOptions{}},
		{"multicast", join.InnetOptions{Multicast: true}},
		{"multicast+collapse", join.InnetOptions{Multicast: true, PathCollapse: true}},
	} {
		b.Run(bench.name, func(b *testing.B) {
			benchOneQuery(b, "Q1", rates, 3, 50, join.Innet{Opts: bench.opts})
		})
	}
}

// BenchmarkAblationCollapse isolates the path-collapse hysteresis choice:
// with collapsing on vs off at the m:n perimeter query.
func BenchmarkAblationCollapse(b *testing.B) {
	rates := workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1}
	for _, bench := range []struct {
		name string
		opts join.InnetOptions
	}{
		{"cmg", join.InnetOptions{Multicast: true, GroupOpt: true}},
		{"cmpg", join.InnetOptions{Multicast: true, PathCollapse: true, GroupOpt: true}},
	} {
		b.Run(bench.name, func(b *testing.B) {
			benchOneQuery(b, "Q2", rates, 3, 100, join.Innet{Opts: bench.opts})
		})
	}
}

// BenchmarkAblationMerge quantifies Appendix E's opportunistic packet
// merging on the join-at-base data path.
func BenchmarkAblationMerge(b *testing.B) {
	rates := workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1}
	for _, bench := range []struct {
		name  string
		merge bool
	}{{"unmerged", false}, {"merged", true}} {
		b.Run(bench.name, func(b *testing.B) {
			benchOneQuery(b, "Q1", rates, 1, 100, join.Base{Merge: bench.merge})
		})
	}
}

// BenchmarkSingleRun measures one full simulation end to end (substrate
// construction + initiation + 100 cycles) — the unit everything above
// composes.
func BenchmarkSingleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := NewEngine(EngineConfig{Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Submit(QueryJob{Query: Query1, Cycles: 100}); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(100); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Multi-query engine benches (internal/engine) ---------------------------

// benchEngine runs nq concurrent queries — drawn round-robin from
// bench.EngineSQL, the pool the drift gate's engine scenarios use — for 30
// epochs per iteration on the given worker count and reports aggregate
// traffic, so the scheduler and the shared substrate can be timed at 1, 4,
// 16 and 64 live queries — and the Engine16Workers/Engine16 timing ratio
// is the measured intra-epoch parallel speedup (traffic and results are
// byte-identical at any worker count; see engine.TestWorkersByteIdentical).
func benchEngine(b *testing.B, nq, workers int) {
	b.ReportAllocs()
	var bytes int64
	for i := 0; i < b.N; i++ {
		e := engine.New(engine.Options{Seed: uint64(i) + 1, Workers: workers})
		for q := 0; q < nq; q++ {
			if _, err := e.Submit(engine.QueryConfig{SQL: bench.EngineSQL[q%len(bench.EngineSQL)]}); err != nil {
				b.Fatal(err)
			}
		}
		bytes += e.Run(30).AggregateBytes
	}
	b.ReportMetric(float64(bytes)/float64(b.N)/1024, "trafficKB/op")
}

func BenchmarkEngine1(b *testing.B)  { benchEngine(b, 1, 1) }
func BenchmarkEngine4(b *testing.B)  { benchEngine(b, 4, 1) }
func BenchmarkEngine16(b *testing.B) { benchEngine(b, 16, 1) }
func BenchmarkEngine64(b *testing.B) { benchEngine(b, 64, 1) }

// BenchmarkEngine16Workers is BenchmarkEngine16 stepped on a worker pool:
// workers=1 pays only the sequential path, higher counts fan the 16 live
// queries across goroutines, each charging its own network.
func BenchmarkEngine16Workers(b *testing.B) {
	counts := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchEngine(b, 16, workers)
		})
	}
}

// BenchmarkEngine16Observed is BenchmarkEngine16 with the observability
// layer attached, so the enabled-path cost is a recorded number instead
// of a claim: "bare" is the baseline, "metrics" adds a registry (sampled
// once per epoch at the barrier), "metrics+trace" also records per-query
// and per-phase spans. The disabled path is pinned alloc-identical to
// bare by engine.TestObsDisabledAddsNoAllocs; the enabled deltas measured
// here are documented in DESIGN.md ("Observability model"). The registry
// is shared across iterations — instruments re-register idempotently —
// while the tracer is fresh per iteration, since its span log grows with
// every epoch and a shared one would turn the bench into an append
// benchmark.
func BenchmarkEngine16Observed(b *testing.B) {
	for _, workers := range []int{1, 4} {
		for _, mode := range []string{"bare", "metrics", "metrics+trace"} {
			b.Run(fmt.Sprintf("workers=%d/%s", workers, mode), func(b *testing.B) {
				var reg *obs.Registry
				if mode != "bare" {
					reg = obs.NewRegistry()
				}
				b.ReportAllocs()
				var bytes int64
				for i := 0; i < b.N; i++ {
					var tr *obs.Tracer
					if mode == "metrics+trace" {
						tr = obs.NewTracer()
					}
					e := engine.New(engine.Options{Seed: uint64(i) + 1, Workers: workers, Obs: reg, Trace: tr})
					for q := 0; q < 16; q++ {
						if _, err := e.Submit(engine.QueryConfig{SQL: bench.EngineSQL[q%len(bench.EngineSQL)]}); err != nil {
							b.Fatal(err)
						}
					}
					bytes += e.Run(30).AggregateBytes
				}
				b.ReportMetric(float64(bytes)/float64(b.N)/1024, "trafficKB/op")
			})
		}
	}
}

// BenchmarkEngine16Hooked is BenchmarkEngine16 with an OnEpoch hook that
// reads the per-epoch stats — the path that exercises the engine's reused
// NewResults map (cleared each epoch instead of reallocated). The delta
// against BenchmarkEngine16 is the whole cost of per-epoch stats
// delivery.
func BenchmarkEngine16Hooked(b *testing.B) {
	b.ReportAllocs()
	var bytes, results int64
	for i := 0; i < b.N; i++ {
		e := engine.New(engine.Options{Seed: uint64(i) + 1})
		for q := 0; q < 16; q++ {
			if _, err := e.Submit(engine.QueryConfig{SQL: bench.EngineSQL[q%len(bench.EngineSQL)]}); err != nil {
				b.Fatal(err)
			}
		}
		e.OnEpoch = func(s engine.EpochStats) {
			for _, n := range s.NewResults {
				results += int64(n)
			}
		}
		bytes += e.Run(30).AggregateBytes
	}
	b.ReportMetric(float64(bytes)/float64(b.N)/1024, "trafficKB/op")
}

// BenchmarkSweepWorkers measures the parallel sweep runner on a
// multi-figure experiment sweep at 1 worker vs every core: the ratio of
// the two timings is the recorded parallel speedup (identical results —
// see experiments.TestWorkerCountInvariance).
func BenchmarkSweepWorkers(b *testing.B) {
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := experiments.QuickConfig()
			cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				for _, id := range []string{"fig2", "fig4", "fig7"} {
					e := experiments.Lookup(id)
					if rows := e.Run(cfg); len(rows) == 0 {
						b.Fatalf("%s produced no rows", id)
					}
				}
			}
		})
	}
}
