package aspen

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestRunDefaults(t *testing.T) {
	rep, err := Run(Config{Cycles: 30})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Algorithm != string(InnetCMG) {
		t.Fatalf("default algorithm = %q", rep.Algorithm)
	}
	if rep.TotalBytes == 0 || rep.Results == 0 {
		t.Fatalf("degenerate report: %+v", rep)
	}
}

func TestRunEveryAlgorithm(t *testing.T) {
	for _, alg := range Algorithms() {
		rep, err := Run(Config{Algorithm: alg, Query: Query1, Cycles: 20})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if rep.TotalBytes == 0 {
			t.Fatalf("%s: no traffic", alg)
		}
	}
}

func TestRunEveryQuery(t *testing.T) {
	for _, q := range []Query{Query0, Query1, Query2} {
		rep, err := Run(Config{Query: q, Cycles: 20, Algorithm: Innet})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if rep.Results == 0 {
			t.Fatalf("%s: no results", q)
		}
	}
	// Query 3 needs the Intel topology to have adjacent pairs.
	rep, err := Run(Config{Query: Query3, Topology: Intel, Cycles: 20, Algorithm: Innet})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalBytes == 0 {
		t.Fatal("Q3: no traffic")
	}
}

func TestRunEveryTopology(t *testing.T) {
	for _, k := range []TopologyKind{SparseRandom, ModerateRandom, MediumRandom, DenseRandom, Grid, Intel} {
		if _, err := Run(Config{Topology: k, Query: Query0, Pairs: 5, Cycles: 10, Algorithm: Innet}); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
	}
}

func TestRunReproducible(t *testing.T) {
	a, err := Run(Config{Seed: 42, Cycles: 30})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Seed: 42, Cycles: 30})
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("same seed, different reports:\n%+v\n%+v", a, b)
	}
}

func TestRunRejectsUnknown(t *testing.T) {
	if _, err := Run(Config{Topology: "blimp"}); err == nil {
		t.Fatal("unknown topology accepted")
	}
	if _, err := Run(Config{Query: "Q9"}); err == nil {
		t.Fatal("unknown query accepted")
	}
	if _, err := Run(Config{Algorithm: "bogosort"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestLearningRun(t *testing.T) {
	wrong := Rates{SigmaS: 1, SigmaT: 0.1, SigmaST: 0.2}
	rep, err := Run(Config{
		Query:          Query0,
		Rates:          Rates{SigmaS: 0.1, SigmaT: 1, SigmaST: 0.2},
		OptimizerRates: &wrong,
		Algorithm:      InnetLearn,
		Cycles:         150,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Migrations == 0 {
		t.Fatal("learning run never migrated despite wrong estimates")
	}
}

// TestFailureRun: FailJoinNode is a churn event at Cycles/2 on the first
// pair's join node. On this config the single pair joins in-network at a
// node that is neither endpoint, so the failure moves it to the base
// station, and results keep arriving afterwards: the full run delivers more
// than its own first half (the same config at half the cycles).
func TestFailureRun(t *testing.T) {
	cfg := Config{
		Query:     Query0,
		Pairs:     1,
		Rates:     Rates{SigmaS: 1, SigmaT: 1, SigmaST: 0.2},
		Algorithm: Innet,
		Cycles:    60,
		Seed:      2,
	}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.InNetPairs != 1 || plain.AtBasePairs != 0 {
		t.Fatalf("config no longer places its pair in-network: %+v", plain)
	}
	half := cfg
	half.Cycles = cfg.Cycles / 2
	before, err := Run(half)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FailJoinNode = true
	failed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if failed.InNetPairs != 0 || failed.AtBasePairs != plain.AtBasePairs+1 {
		t.Fatalf("victim's pair did not end at the base: %+v", failed)
	}
	if failed.Results <= before.Results {
		t.Fatalf("no results after the failure: %d delivered in all, %d before cycle %d",
			failed.Results, before.Results, half.Cycles)
	}
}

// TestRunIsOneQueryEngine pins Run as NewEngine + Submit + Run(Cycles) with
// one query: its report is the engine's QueryEngineReport plus the engine's
// migration count, for every algorithm on every Table 2 query, under wrong
// optimizer estimates so the learning variants migrate.
func TestRunIsOneQueryEngine(t *testing.T) {
	wrong := Rates{SigmaS: 1, SigmaT: 0.1, SigmaST: 0.2}
	for _, tc := range []struct {
		query Query
		topo  TopologyKind
	}{{Query0, ""}, {Query1, ""}, {Query2, ""}, {Query3, Intel}} {
		for _, alg := range Algorithms() {
			cfg := Config{
				Topology: tc.topo, Query: tc.query, Pairs: 5, Algorithm: alg,
				Rates: Rates{SigmaS: 0.1, SigmaT: 1, SigmaST: 0.2}, OptimizerRates: &wrong,
				Cycles: 40, Seed: 3,
			}
			got, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.query, alg, err)
			}
			e, err := NewEngine(EngineConfig{Topology: cfg.Topology, Seed: cfg.Seed})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Submit(QueryJob{
				Query: cfg.Query, Pairs: cfg.Pairs, Algorithm: cfg.Algorithm,
				Rates: cfg.Rates, OptimizerRates: cfg.OptimizerRates, Cycles: cfg.Cycles,
			}); err != nil {
				t.Fatal(err)
			}
			rep, err := e.Run(cfg.Cycles)
			if err != nil {
				t.Fatal(err)
			}
			if want := (Report{rep.Queries[0], rep.Migrations}); *got != want {
				t.Errorf("%s/%s: Run differs from the one-query engine:\n run    %+v\n engine %+v", tc.query, alg, *got, want)
			}
			if alg == InnetLearn && tc.query == Query0 && got.Migrations == 0 {
				t.Errorf("%s/%s: never migrated, so Migrations is compared at zero only", tc.query, alg)
			}
		}
	}
}

// TestFacadeRejectsOutOfRange: out-of-range numbers come back as aspen:
// errors from the one wiring left (NewEngine and Submit, which Run calls),
// not as panics from the internal packages.
func TestFacadeRejectsOutOfRange(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	for _, tc := range []struct {
		name string
		run  func() error
		ok   bool
	}{
		{"Run one node", func() error { _, err := Run(Config{Nodes: 1}); return err }, false},
		{"Run negative nodes", func() error { _, err := Run(Config{Nodes: -1}); return err }, false},
		{"Run too many Q0 pairs", func() error { _, err := Run(Config{Query: Query0, Pairs: 1000}); return err }, false},
		{"Run loss above 1", func() error { _, err := Run(Config{LossProb: f(1.5)}); return err }, false},
		{"Run negative cycles", func() error { _, err := Run(Config{Cycles: -1}); return err }, false},
		{"NewEngine one node", func() error { _, err := NewEngine(EngineConfig{Nodes: 1}); return err }, false},
		{"NewEngine negative nodes", func() error { _, err := NewEngine(EngineConfig{Nodes: -1}); return err }, false},
		{"NewEngine negative loss", func() error { _, err := NewEngine(EngineConfig{LossProb: f(-0.1)}); return err }, false},
		{"NewEngine negative trees", func() error { _, err := NewEngine(EngineConfig{Trees: -1}); return err }, false},
		{"NewEngine Intel ignores Nodes", func() error { _, err := NewEngine(EngineConfig{Topology: Intel, Nodes: 1}); return err }, true},
		{"NewEngine loss bounds", func() error {
			if _, err := NewEngine(EngineConfig{LossProb: f(0)}); err != nil {
				return err
			}
			_, err := NewEngine(EngineConfig{LossProb: f(1)})
			return err
		}, true},
		{"Faults loss above 1", func() error { return newWithFaults(FaultConfig{LinkLoss: 7}) }, false},
		{"Faults link-fail above 1", func() error { return newWithFaults(FaultConfig{LinkFailRate: 2}) }, false},
		{"Faults NaN dup", func() error { return newWithFaults(FaultConfig{DupProb: math.NaN()}) }, false},
		{"Faults negative revive", func() error { return newWithFaults(FaultConfig{LinkFailRate: 0.1, LinkReviveAfter: -1}) }, false},
		{"Faults negative delay", func() error { return newWithFaults(FaultConfig{DelayMax: -1}) }, false},
		{"Faults region 9", func() error {
			return newWithFaults(FaultConfig{Partitions: []Partition{{From: 0, Until: 5, Kind: Region, Region: 9}}})
		}, false},
		{"Faults empty window", func() error {
			return newWithFaults(FaultConfig{Partitions: []Partition{{From: 5, Until: 5}}})
		}, false},
		{"Faults negative window start", func() error {
			return newWithFaults(FaultConfig{Partitions: []Partition{{From: -1, Until: 5}}})
		}, false},
		{"Faults probability bounds", func() error {
			if err := newWithFaults(FaultConfig{}); err != nil {
				return err
			}
			return newWithFaults(FaultConfig{LinkLoss: 1, LinkFailRate: 1, DupProb: 1, DelayMax: 2,
				Partitions: []Partition{{From: 0, Until: 1, Kind: Region, Region: 3}}})
		}, true},
		{"Submit too many Q0 pairs", func() error { return submitQ0(1000) }, false},
		{"Submit negative Q0 pairs", func() error { return submitQ0(-1) }, false},
		{"Submit Q0 pairs that just fit", func() error { return submitQ0(49) }, true},
		{"Submit negative cycles", func() error { return submitJob(QueryJob{Query: Query1, Cycles: -1}) }, false},
		{"Submit negative admit", func() error { return submitJob(QueryJob{Query: Query1, AdmitAt: -5}) }, false},
		{"Submit sigma above 1", func() error { return submitJob(QueryJob{Query: Query1, Rates: Rates{SigmaS: 2, SigmaT: 0.5}}) }, false},
		{"Submit negative sigma", func() error { return submitJob(QueryJob{Query: Query1, Rates: Rates{SigmaS: 0.5, SigmaT: -1}}) }, false},
		{"Submit NaN sigma", func() error {
			return submitJob(QueryJob{Query: Query1, Rates: Rates{SigmaS: 0.5, SigmaST: math.NaN()}})
		}, false},
		{"Submit optimizer sigma above 1", func() error {
			return submitJob(QueryJob{Query: Query1, OptimizerRates: &Rates{SigmaS: 0.5, SigmaT: 1.5}})
		}, false},
		{"Submit rates at the bounds", func() error {
			return submitJob(QueryJob{Query: Query1, Rates: Rates{SigmaS: 1, SigmaT: 0, SigmaST: 1}, OptimizerRates: &Rates{SigmaS: 0, SigmaT: 1}})
		}, true},
	} {
		err := tc.run()
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case !tc.ok && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case !tc.ok && !strings.HasPrefix(err.Error(), "aspen:"):
			t.Errorf("%s: error %q lacks the aspen: prefix", tc.name, err)
		}
	}
}

// newWithFaults builds a default engine with the given fault plan config.
func newWithFaults(f FaultConfig) error {
	_, err := NewEngine(EngineConfig{Faults: &f})
	return err
}

// submitQ0 submits a Query0 job with the given pair count to a default
// 100-node engine.
func submitQ0(pairs int) error { return submitJob(QueryJob{Query: Query0, Pairs: pairs}) }

// submitJob submits job to a default engine.
func submitJob(job QueryJob) error {
	e, err := NewEngine(EngineConfig{})
	if err != nil {
		return err
	}
	_, err = e.Submit(job)
	return err
}

func TestExperimentRegistry(t *testing.T) {
	ids := Experiments()
	if len(ids) < 20 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	title, err := ExperimentTitle("fig13")
	if err != nil || !strings.Contains(title, "Intel") {
		t.Fatalf("fig13 title = %q, err %v", title, err)
	}
	if _, err := ExperimentTitle("nope"); err == nil {
		t.Fatal("unknown experiment title accepted")
	}
}

func TestRunExperimentQuick(t *testing.T) {
	out, err := RunExperiment("mobility", true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "update traffic") {
		t.Fatalf("experiment output malformed:\n%s", out)
	}
	if _, err := RunExperiment("nope", true); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// engineJobs is the facade test workload: two SQL queries and two Table 2
// queries over one deployment.
func engineJobs() []QueryJob {
	return []QueryJob{
		{ID: "sql", SQL: `SELECT S.id, T.id
FROM S, T [windowsize=3 sampleinterval=100]
WHERE S.id < 25 AND T.id > 50 AND S.x = T.y + 5 AND S.u = T.u`},
		{ID: "perim", Query: Query2, Algorithm: InnetCMPG},
		{ID: "pairs", Query: Query0, Pairs: 5, AdmitAt: 5},
		{ID: "base", Query: Query1, Algorithm: Base, Cycles: 20, AdmitAt: 10},
	}
}

func TestEngineFacade(t *testing.T) {
	e, err := NewEngine(EngineConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range engineJobs() {
		if _, err := e.Submit(job); err != nil {
			t.Fatalf("%s: %v", job.ID, err)
		}
	}
	var epochs int
	e.OnEpoch(func(s EpochStats) { epochs++ })
	rep, err := e.Run(40)
	if err != nil {
		t.Fatal(err)
	}
	if epochs != 40 || rep.Epochs != 40 {
		t.Fatalf("ran %d/%d epochs", epochs, rep.Epochs)
	}
	if rep.SharedBytes <= 0 {
		t.Fatal("no shared infrastructure traffic")
	}
	var sum int64
	for _, q := range rep.Queries {
		if q.State != "retired" {
			t.Fatalf("query %s state %s", q.ID, q.State)
		}
		if q.TotalBytes <= 0 || q.BytesPerNode <= 0 {
			t.Fatalf("query %s reports no traffic", q.ID)
		}
		sum += q.TotalBytes
	}
	if rep.AggregateBytes != rep.SharedBytes+sum {
		t.Fatalf("aggregate %d != %d + %d", rep.AggregateBytes, rep.SharedBytes, sum)
	}
	if e.Report() == nil {
		t.Fatal("Report() nil after Run")
	}
}

// TestEngineObservabilityFacade: EngineConfig.Metrics/Trace expose the
// observability layer without perturbing the run — the metered report is
// byte-identical to TestEngineFacade's unmetered one, the snapshot agrees
// with the report, and both trace export forms produce valid output.
func TestEngineObservabilityFacade(t *testing.T) {
	run := func(cfg EngineConfig) (*Engine, *EngineReport) {
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, job := range engineJobs() {
			if _, err := e.Submit(job); err != nil {
				t.Fatalf("%s: %v", job.ID, err)
			}
		}
		rep, err := e.Run(40)
		if err != nil {
			t.Fatal(err)
		}
		return e, rep
	}
	_, bare := run(EngineConfig{Seed: 2})
	e, rep := run(EngineConfig{Seed: 2, Metrics: true, Trace: true})
	if !reflect.DeepEqual(bare, rep) {
		t.Fatal("metered run's report differs from unmetered")
	}
	snap := e.Snapshot()
	if v, ok := snap.Value("engine.epochs"); !ok || v != int64(rep.Epochs) {
		t.Fatalf("engine.epochs = %d,%v want %d", v, ok, rep.Epochs)
	}
	if v, _ := snap.Value("sim.shared.bytes"); v != rep.SharedBytes {
		t.Fatalf("sim.shared.bytes = %d, want %d", v, rep.SharedBytes)
	}
	if len(snap.Histograms) == 0 {
		t.Fatal("snapshot has no histograms")
	}
	var text strings.Builder
	if err := snap.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "counter engine.epochs") {
		t.Fatalf("text dump malformed:\n%s", text.String())
	}
	var chrome strings.Builder
	if err := e.WriteTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chrome.String(), `"traceEvents"`) {
		t.Fatal("Chrome trace missing envelope")
	}
	var jsonl strings.Builder
	if err := e.WriteTraceJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonl.String(), `"ph":"X"`) {
		t.Fatal("JSONL trace has no spans")
	}

	// Disabled engines answer the same calls with empty output.
	off, _ := run(EngineConfig{Seed: 2})
	if s := off.Snapshot(); len(s.Counters) != 0 {
		t.Fatal("unmetered engine returned metrics")
	}
	var offTrace strings.Builder
	if err := off.WriteTrace(&offTrace); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(offTrace.String(), "[]") {
		t.Fatal("untraced engine's trace not empty")
	}
}

// TestEngineWorkersFacade: the facade-level worker knob preserves the
// byte-identical guarantee — the same workload at Workers 1, 4 and -1
// (all cores) yields identical reports.
func TestEngineWorkersFacade(t *testing.T) {
	run := func(workers int) *EngineReport {
		e, err := NewEngine(EngineConfig{Seed: 2, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, job := range engineJobs() {
			if _, err := e.Submit(job); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := e.Run(40)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := run(1)
	for _, w := range []int{4, -1} {
		if rep := run(w); !reflect.DeepEqual(base, rep) {
			t.Fatalf("Workers=%d report differs from sequential:\n%+v\n%+v", w, base, rep)
		}
	}
}

// TestEngineSharingBeatsSeparateRuns is the tentpole acceptance property
// at the facade level: one deployment serving N queries transmits less
// than N single-query deployments.
func TestEngineSharingBeatsSeparateRuns(t *testing.T) {
	jobs := engineJobs()
	shared, err := NewEngine(EngineConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range jobs {
		if _, err := shared.Submit(job); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := shared.Run(40)
	if err != nil {
		t.Fatal(err)
	}
	var separate int64
	for _, job := range jobs {
		solo, err := NewEngine(EngineConfig{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := solo.Submit(job); err != nil {
			t.Fatal(err)
		}
		r, err := solo.Run(40)
		if err != nil {
			t.Fatal(err)
		}
		separate += r.AggregateBytes
	}
	if rep.AggregateBytes >= separate {
		t.Fatalf("sharing did not win: together %d >= separate %d", rep.AggregateBytes, separate)
	}
}

func TestEngineRejects(t *testing.T) {
	e, err := NewEngine(EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(10); err == nil {
		t.Fatal("empty engine ran")
	}
	if _, err := e.Submit(QueryJob{}); err == nil {
		t.Fatal("job with neither SQL nor Query accepted")
	}
	if _, err := e.Submit(QueryJob{SQL: "x", Query: Query1}); err == nil {
		t.Fatal("job with both SQL and Query accepted")
	}
	if _, err := e.Submit(QueryJob{Query: "Q9"}); err == nil {
		t.Fatal("unknown query accepted")
	}
	if _, err := e.Submit(QueryJob{Query: Query1, Algorithm: "bogosort"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := NewEngine(EngineConfig{Topology: "blimp"}); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestMergeFlag(t *testing.T) {
	plain, err := Run(Config{Algorithm: Base, Query: Query1, Cycles: 30})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Run(Config{Algorithm: Base, Query: Query1, Cycles: 30, Merge: true})
	if err != nil {
		t.Fatal(err)
	}
	if merged.TotalBytes >= plain.TotalBytes {
		t.Fatalf("merge did not reduce traffic: %d vs %d", merged.TotalBytes, plain.TotalBytes)
	}
}

// TestEngineChurnFacade drives the churn schedule through the public API:
// the failure counters surface in the report, the per-epoch stream sees
// the failure, and a base-station event is rejected up front.
func TestEngineChurnFacade(t *testing.T) {
	e, err := NewEngine(EngineConfig{Seed: 1, Churn: []ChurnEvent{{Epoch: 2, Node: 21}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(QueryJob{Query: Query2}); err != nil {
		t.Fatal(err)
	}
	var failed []NodeID
	e.OnEpoch(func(s EpochStats) { failed = append(failed, s.Failed...) })
	rep, err := e.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FailedNodes != 1 || len(failed) != 1 || failed[0] != 21 {
		t.Fatalf("failure not surfaced: report=%d stream=%v", rep.FailedNodes, failed)
	}
	if rep.PathsRepaired+rep.BaseFallbacks+rep.TreesRebuilt == 0 {
		t.Fatal("recovery counters all zero after a churn failure")
	}
	if rep.Results == 0 {
		t.Fatal("no results delivered under churn")
	}
	if _, err := NewEngine(EngineConfig{Churn: []ChurnEvent{{Epoch: 0, Node: 0}}}); err == nil {
		t.Fatal("base-station churn accepted")
	}
	if _, err := NewEngine(EngineConfig{Nodes: 50, Churn: []ChurnEvent{{Epoch: 0, Node: 50}}}); err == nil {
		t.Fatal("out-of-range churn node accepted")
	}
	if len(SeededChurn(3, 100, 30, 0.02, 5)) == 0 {
		t.Fatal("facade SeededChurn produced no events")
	}
}
