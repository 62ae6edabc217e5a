package aspen

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/workload"
)

// runQuery runs job as the only query of an engine built from cfg for the
// given number of epochs.
func runQuery(t *testing.T, cfg EngineConfig, job QueryJob, epochs int) *EngineReport {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("%+v: %v", cfg, err)
	}
	if _, err := e.Submit(job); err != nil {
		t.Fatalf("%+v: %v", job, err)
	}
	rep, err := e.Run(epochs)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestRunDefaults: a job naming only its query runs InnetCMG at
// workload.DefaultRates, and reports exactly what the explicit job does.
func TestRunDefaults(t *testing.T) {
	rep := runQuery(t, EngineConfig{}, QueryJob{Query: Query1}, 30)
	q := rep.Queries[0]
	if q.Algorithm != string(InnetCMG) {
		t.Fatalf("default algorithm = %q", q.Algorithm)
	}
	if q.TotalBytes == 0 || q.Results == 0 {
		t.Fatalf("degenerate report: %+v", q)
	}
	explicit := runQuery(t, EngineConfig{}, QueryJob{Query: Query1, Algorithm: InnetCMG, Rates: workload.DefaultRates}, 30)
	if !reflect.DeepEqual(rep, explicit) {
		t.Fatalf("defaulted job differs from the explicit one:\n%+v\n%+v", rep, explicit)
	}
	sql := runQuery(t, EngineConfig{}, QueryJob{SQL: engineJobs()[0].SQL}, 30)
	sqlExplicit := runQuery(t, EngineConfig{}, QueryJob{SQL: engineJobs()[0].SQL, Algorithm: InnetCMG, Rates: workload.DefaultRates}, 30)
	if !reflect.DeepEqual(sql, sqlExplicit) {
		t.Fatalf("defaulted SQL job differs from the explicit one:\n%+v\n%+v", sql, sqlExplicit)
	}
}

func TestRunEveryAlgorithm(t *testing.T) {
	for _, alg := range Algorithms() {
		rep := runQuery(t, EngineConfig{}, QueryJob{Query: Query1, Algorithm: alg}, 20)
		if rep.Queries[0].TotalBytes == 0 {
			t.Fatalf("%s: no traffic", alg)
		}
	}
}

// TestAlgorithmNamesRoundTrip: every algorithm's report label is its
// Algorithm name, so a label read off a report can be submitted again.
func TestAlgorithmNamesRoundTrip(t *testing.T) {
	for _, alg := range Algorithms() {
		rep := runQuery(t, EngineConfig{}, QueryJob{Query: Query1, Algorithm: alg}, 1)
		label := rep.Queries[0].Algorithm
		if label != string(alg) {
			t.Errorf("Algorithm %q reports as %q", alg, label)
		}
		if err := submitJob(QueryJob{Query: Query1, Algorithm: Algorithm(label)}); err != nil {
			t.Errorf("report label %q cannot be submitted: %v", label, err)
		}
	}
}

func TestRunEveryQuery(t *testing.T) {
	for _, q := range []Query{Query0, Query1, Query2} {
		rep := runQuery(t, EngineConfig{}, QueryJob{Query: q, Algorithm: Innet}, 20)
		if rep.Queries[0].Results == 0 {
			t.Fatalf("%s: no results", q)
		}
	}
	// Query 3 needs the Intel topology to have adjacent pairs.
	rep := runQuery(t, EngineConfig{Topology: Intel}, QueryJob{Query: Query3, Algorithm: Innet}, 20)
	if rep.Queries[0].TotalBytes == 0 {
		t.Fatal("Q3: no traffic")
	}
}

func TestRunEveryTopology(t *testing.T) {
	for _, k := range []TopologyKind{SparseRandom, ModerateRandom, MediumRandom, DenseRandom, Grid, Intel} {
		runQuery(t, EngineConfig{Topology: k}, QueryJob{Query: Query0, Pairs: 5, Algorithm: Innet}, 10)
	}
}

func TestRunReproducible(t *testing.T) {
	a := runQuery(t, EngineConfig{Seed: 42}, QueryJob{Query: Query1}, 30)
	b := runQuery(t, EngineConfig{Seed: 42}, QueryJob{Query: Query1}, 30)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different reports:\n%+v\n%+v", a, b)
	}
}

func TestRunRejectsUnknown(t *testing.T) {
	if _, err := NewEngine(EngineConfig{Topology: "blimp"}); err == nil {
		t.Fatal("unknown topology accepted")
	}
	if err := submitJob(QueryJob{Query: "Q9"}); err == nil {
		t.Fatal("unknown query accepted")
	}
	if err := submitJob(QueryJob{Query: Query1, Algorithm: "bogosort"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestLearningRun(t *testing.T) {
	wrong := Rates{SigmaS: 1, SigmaT: 0.1, SigmaST: 0.2}
	rep := runQuery(t, EngineConfig{Adapt: true}, QueryJob{
		Query:          Query0,
		Rates:          Rates{SigmaS: 0.1, SigmaT: 1, SigmaST: 0.2},
		OptimizerRates: &wrong,
		Algorithm:      InnetCMPG,
	}, 150)
	if rep.Migrations == 0 {
		t.Fatal("learning run never migrated despite wrong estimates")
	}
}

// TestFacadeRejectsOutOfRange: out-of-range numbers come back as aspen:
// errors from NewEngine and Submit, not as panics from the internal
// packages.
func TestFacadeRejectsOutOfRange(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	for _, tc := range []struct {
		name string
		run  func() error
		ok   bool
	}{
		{"NewEngine one node", func() error { _, err := NewEngine(EngineConfig{Nodes: 1}); return err }, false},
		{"NewEngine negative nodes", func() error { _, err := NewEngine(EngineConfig{Nodes: -1}); return err }, false},
		{"NewEngine negative loss", func() error { _, err := NewEngine(EngineConfig{LossProb: f(-0.1)}); return err }, false},
		{"NewEngine negative trees", func() error { _, err := NewEngine(EngineConfig{Trees: -1}); return err }, false},
		{"NewEngine negative churn epoch", func() error {
			_, err := NewEngine(EngineConfig{Churn: []ChurnEvent{{Epoch: -3, Node: 17}}})
			return err
		}, false},
		{"NewEngine churn at epoch 0", func() error {
			_, err := NewEngine(EngineConfig{Churn: []ChurnEvent{{Epoch: 0, Node: 17}}})
			return err
		}, true},
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
