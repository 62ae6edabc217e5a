package engine

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/join"
	"repro/internal/obs"
)

// obsRun executes the mixed workload with a registry and tracer attached
// and returns the report plus the registry.
func obsRun(t *testing.T, workers int) (*Report, *obs.Registry, *obs.Tracer) {
	t.Helper()
	reg, tr := obs.NewRegistry(), obs.NewTracer()
	e := New(Options{Seed: 7, Workers: workers, Obs: reg, Trace: tr})
	for _, qc := range []QueryConfig{
		{ID: "innet", SQL: q1SQL(t), Cycles: 18},
		{ID: "plain", SQL: q2SQL(t), AdmitAt: 2},
	} {
		if _, err := e.Submit(qc); err != nil {
			t.Fatal(err)
		}
	}
	return e.Run(20), reg, tr
}

// TestObsDoesNotChangeOutput is the non-interference invariant: a run with
// metrics and tracing enabled produces a byte-identical report to the same
// run with observability disabled, at sequential and parallel worker
// counts. This is what keeps every committed BENCH_engine.json determinism
// fingerprint valid whether or not the run was observed.
func TestObsDoesNotChangeOutput(t *testing.T) {
	plain := func(workers int) *Report {
		e := New(Options{Seed: 7, Workers: workers})
		for _, qc := range []QueryConfig{
			{ID: "innet", SQL: q1SQL(t), Cycles: 18},
			{ID: "plain", SQL: q2SQL(t), AdmitAt: 2},
		} {
			if _, err := e.Submit(qc); err != nil {
				t.Fatal(err)
			}
		}
		return e.Run(20)
	}
	for _, w := range []int{1, 4} {
		bare := plain(w)
		observed, _, _ := obsRun(t, w)
		if !reflect.DeepEqual(bare, observed) {
			t.Fatalf("workers=%d: observed run's report differs from unobserved", w)
		}
	}
}

// TestObsCountersMatchReport: the registry's lifecycle and byte counters
// must agree exactly with the Report the run produced — the metrics layer
// is a view over the same accounting, not a second bookkeeper that can
// drift.
func TestObsCountersMatchReport(t *testing.T) {
	rep, reg, tr := obsRun(t, 4)
	snap := reg.Snapshot()
	want := map[string]int64{
		"engine.epochs":           int64(rep.Epochs),
		"engine.results":          int64(rep.Results),
		"engine.queries.admitted": 2,
		"engine.queries.retired":  1, // innet retires at epoch 18; plain runs to the horizon
		"sim.shared.bytes":        rep.SharedBytes,
		"sim.query.bytes":         rep.QueryBytes,
	}
	for name, v := range want {
		got, ok := snap.Value(name)
		if !ok {
			t.Fatalf("snapshot missing %s", name)
		}
		if got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
	if steps, _ := snap.Value("worker.steps"); steps == 0 {
		t.Error("worker.steps never flushed")
	}
	if v, _ := snap.Value("join.state.tuples"); v < 0 {
		t.Errorf("join.state.tuples = %d", v)
	}
	// Memory gauges: the routing substrate always holds dense state, and
	// mem.join.bytes is the live steppers' dense per-node state — "plain",
	// the one query live at the last barrier, is an In-Net stepper.
	if v, ok := snap.Value("mem.routing.bytes"); !ok || v <= 0 {
		t.Errorf("mem.routing.bytes = %d (ok=%v), want > 0", v, ok)
	}
	if v, _ := snap.Value("mem.join.bytes"); v != innetNodeBytes*int64(rep.Nodes) {
		t.Errorf("mem.join.bytes = %d, want %d", v, innetNodeBytes*int64(rep.Nodes))
	}
	// Per-class byte gauges partition the total byte gauges.
	var byKind int64
	for _, k := range []string{"control", "data", "result"} {
		v, ok := snap.Value("sim.bytes." + k)
		if !ok {
			t.Fatalf("snapshot missing sim.bytes.%s", k)
		}
		byKind += v
	}
	if byKind != rep.AggregateBytes {
		t.Errorf("per-class bytes %d != aggregate %d", byKind, rep.AggregateBytes)
	}
	// The trace saw scheduler phases and per-query steps.
	evs := tr.Events()
	if len(evs) == 0 {
		t.Fatal("tracer recorded nothing")
	}
	names := map[string]bool{}
	for _, ev := range evs {
		names[ev.Name] = true
	}
	for _, want := range []string{"epoch", "phase:admit", "phase:step", "phase:merge", "innet"} {
		if !names[want] {
			t.Errorf("trace missing %q span", want)
		}
	}
	var sb strings.Builder
	if err := tr.WriteChrome(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"traceEvents"`) {
		t.Error("Chrome export missing traceEvents envelope")
	}

	// mem.join.bytes sums over stepper kinds: one live query of each. The
	// grouped baselines report their route tables, whose size depends on
	// the query, so the gauge is checked against each stepper's own report.
	reg = obs.NewRegistry()
	e := New(Options{Seed: 7, Obs: reg})
	for _, qc := range []QueryConfig{
		{ID: "innet", SQL: q1SQL(t)},
		{ID: "base", SQL: q2SQL(t), Algorithm: join.Base{}},
		{ID: "yang", SQL: q1SQL(t), Algorithm: join.Yang07{}},
	} {
		if _, err := e.Submit(qc); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		e.Step()
	}
	var wantMem int64
	for _, q := range e.Queries() {
		if q.stepper.MemBytes() <= 0 {
			t.Errorf("%s: MemBytes = %d, want > 0", q.ID, q.stepper.MemBytes())
		}
		wantMem += q.stepper.MemBytes()
	}
	if v := e.Queries()[0].stepper.MemBytes(); v != innetNodeBytes*int64(e.Topo.N()) {
		t.Errorf("In-Net MemBytes = %d, want %d", v, innetNodeBytes*int64(e.Topo.N()))
	}
	if v, _ := reg.Snapshot().Value("mem.join.bytes"); v != wantMem {
		t.Errorf("mem.join.bytes over three stepper kinds = %d, want %d", v, wantMem)
	}
}

// innetNodeBytes is the dense per-node state an In-Net stepper reports
// through MemBytes: a slice-header column, four word columns and three
// mark columns.
const innetNodeBytes = 24 + 4*8 + 3

// TestEpochStatsSumRecoveryTotals is the stats-completeness property: over
// the churn-1k workload, the per-epoch Failed/Repaired/Fallbacks/
// TreesRebuilt stream must sum exactly to the final Report's recovery
// totals — no epoch's outcome may be dropped or double-counted — at
// sequential and parallel worker counts. With a registry attached, the
// churn.* counters must land on the same totals.
func TestEpochStatsSumRecoveryTotals(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-node churn run is slow")
	}
	mk, churn := churn1kWorkload(t)
	for _, workers := range []int{1, 4} {
		e := mk(workers, churn)
		reg := obs.NewRegistry()
		e.opts.Obs = reg
		e.inst = newInstruments(reg, e.workers)
		var stream []EpochStats
		e.OnEpoch = captureStats(&stream)
		rep := e.Run(12)
		if rep.FailedNodes == 0 || rep.PathsRepaired == 0 || rep.BaseFallbacks == 0 || rep.TreesRebuilt == 0 {
			t.Fatalf("workers=%d: churn run lost recovery coverage: %+v", workers, rep)
		}
		var failed, repaired, fallbacks, rebuilt int
		for _, s := range stream {
			failed += len(s.Failed)
			repaired += s.Repaired
			fallbacks += s.Fallbacks
			rebuilt += s.TreesRebuilt
		}
		if failed != rep.FailedNodes || repaired != rep.PathsRepaired ||
			fallbacks != rep.BaseFallbacks || rebuilt != rep.TreesRebuilt {
			t.Fatalf("workers=%d: epoch stream sums (failed=%d repaired=%d fallbacks=%d rebuilt=%d) != report totals (%d %d %d %d)",
				workers, failed, repaired, fallbacks, rebuilt,
				rep.FailedNodes, rep.PathsRepaired, rep.BaseFallbacks, rep.TreesRebuilt)
		}
		snap := reg.Snapshot()
		for name, want := range map[string]int{
			"churn.nodes_failed":   rep.FailedNodes,
			"churn.paths_repaired": rep.PathsRepaired,
			"churn.base_fallbacks": rep.BaseFallbacks,
			"churn.trees_rebuilt":  rep.TreesRebuilt,
		} {
			if got, _ := snap.Value(name); got != int64(want) {
				t.Errorf("workers=%d: %s = %d, want %d", workers, name, got, want)
			}
		}
	}
}

// steadyEngine builds a warm engine whose remaining epochs are pure
// steady-state stepping: all queries admitted, no churn, no retirements.
func steadyEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	e := New(opts)
	for i, sql := range []string{q1SQL(t), q2SQL(t)} {
		if _, err := e.Submit(QueryConfig{ID: []string{"a", "b"}[i], SQL: sql}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		e.Step()
	}
	return e
}

// steadyStateAllocBudget is the engine's pre-obs steady-state allocation
// count per sequential Step (measured before internal/obs existed: two
// small allocations inside stepper internals). The tests below pin the obs
// layer to this budget — compiling it in, and even enabling metrics, may
// not add a single allocation to the hot path.
const steadyStateAllocBudget = 2

// TestObsDisabledAddsNoAllocs pins the disabled path: with Obs and Trace
// nil, the instrumented Step allocates no more than it did before the
// observability layer existed.
func TestObsDisabledAddsNoAllocs(t *testing.T) {
	e := steadyEngine(t, Options{Seed: 7})
	if avg := testing.AllocsPerRun(20, func() { e.Step() }); avg > steadyStateAllocBudget {
		t.Fatalf("disabled-obs Step allocates %.1f/epoch, budget %d", avg, steadyStateAllocBudget)
	}
}

// TestObsEnabledMetricsAllocFree: the metrics-only enabled path (registry
// attached, no tracer) stays within the same steady-state budget — dense
// slices and atomics, no per-observation allocation.
func TestObsEnabledMetricsAllocFree(t *testing.T) {
	e := steadyEngine(t, Options{Seed: 7, Obs: obs.NewRegistry()})
	if avg := testing.AllocsPerRun(20, func() { e.Step() }); avg > steadyStateAllocBudget {
		t.Fatalf("metrics-enabled Step allocates %.1f/epoch, budget %d", avg, steadyStateAllocBudget)
	}
}

// TestHookedStepAllocStable: with an OnEpoch hook attached, the reused
// NewResults map keeps the steady-state hooked path within the same
// budget (it used to allocate a fresh map every epoch).
func TestHookedStepAllocStable(t *testing.T) {
	e := steadyEngine(t, Options{Seed: 7})
	sink := 0
	e.OnEpoch = func(s EpochStats) { sink += s.Live + len(s.NewResults) }
	e.Step() // allocate + grow the reused map once
	if avg := testing.AllocsPerRun(20, func() { e.Step() }); avg > steadyStateAllocBudget {
		t.Fatalf("hooked Step allocates %.1f/epoch, budget %d", avg, steadyStateAllocBudget)
	}
	if sink == 0 {
		t.Fatal("hook never ran")
	}
}

// TestSnapshotMidRunSafe: snapshotting from another goroutine while the
// engine steps (the live-endpoint pattern) is race-free and sees
// monotonically non-decreasing counters.
func TestSnapshotMidRunSafe(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Options{Seed: 7, Workers: 4, Obs: reg})
	for i, sql := range []string{q1SQL(t), q2SQL(t)} {
		if _, err := e.Submit(QueryConfig{ID: []string{"a", "b"}[i], SQL: sql}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	var last int64
	go func() {
		defer close(done)
		for {
			snap := e.Snapshot()
			v, _ := snap.Value("engine.epochs")
			if v < last {
				t.Errorf("engine.epochs went backwards: %d -> %d", last, v)
				return
			}
			last = v
			if v >= 30 {
				return
			}
		}
	}()
	e.Run(30)
	<-done
	if last != 30 {
		t.Fatalf("observer last saw epoch %d, want 30", last)
	}
}
