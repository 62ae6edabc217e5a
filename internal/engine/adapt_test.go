// Property battery for the engine-level adaptivity phase (ISSUE 7): the
// section-6 re-optimization pass must migrate exactly when estimates
// diverge past the trigger, never lose or duplicate results across a
// migration, abort cleanly into the base-station fallback when racing a
// failure, and stay byte-identical across worker counts. Lossless runs
// make the oracle comparisons exact: with LossProb=0 the loss process
// never draws, so migration traffic cannot perturb later outcomes.

package engine

import (
	"reflect"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/join"
	"repro/internal/topology"
	"repro/internal/workload"
)

// driftEpoch is the cycle at which the drift workload's true rates flip.
const driftEpoch = 30

// driftConfigs builds the drift workload: two queries whose generators
// start s-heavy and flip to t-heavy at driftEpoch, while the optimizer is
// fed the starting rates — so the initial placement is wrong for the
// second half of the run and only adaptivity can fix it. Both engines in
// an on/off comparison get samplers with identical seeds, making the
// input streams byte-identical regardless of the adapt setting.
func driftConfigs(t *testing.T) []QueryConfig {
	t.Helper()
	start := workload.Rates{SigmaS: 0.9, SigmaT: 0.1, SigmaST: 0.1}
	flip := workload.Rates{SigmaS: 0.1, SigmaT: 0.9, SigmaST: 0.1}
	mk := func(seed uint64) workload.Sampler {
		g := workload.NewGenerator(start, seed)
		g.SetSwitch(driftEpoch, flip)
		return g
	}
	return []QueryConfig{
		{ID: "a", SQL: q1SQL(t), Rates: start, Sampler: mk(11)},
		{ID: "b", SQL: q2SQL(t), Rates: start, Sampler: mk(23)},
	}
}

// driftRun executes the drift workload for epochs epochs.
func driftRun(t *testing.T, adapt bool, workers, epochs int) (*Report, []EpochStats) {
	t.Helper()
	e := New(Options{Seed: 3, LossProb: new(float64), Workers: workers, Adapt: adapt})
	for _, qc := range driftConfigs(t) {
		if _, err := e.Submit(qc); err != nil {
			t.Fatal(err)
		}
	}
	var stream []EpochStats
	e.OnEpoch = captureStats(&stream)
	return e.Run(epochs), stream
}

// resultStream projects an epoch stream down to what the user observes:
// per-epoch delivered results per query. Placement and migration traffic
// are invisible here by design.
func resultStream(stream []EpochStats) []map[string]int {
	out := make([]map[string]int, len(stream))
	for i, s := range stream {
		out[i] = s.NewResults
	}
	return out
}

// TestAdaptDriftMigratesAndCutsTraffic is the headline adaptivity win:
// under rate drift the adaptive run migrates at least once and finishes
// with strictly less total simulated traffic than the frozen-placement
// run — and (property c) delivers the exact same per-epoch result stream,
// since a migration moves window state without losing or duplicating
// matches.
func TestAdaptDriftMigratesAndCutsTraffic(t *testing.T) {
	const epochs = 4 * driftEpoch
	off, offStream := driftRun(t, false, 1, epochs)
	on, onStream := driftRun(t, true, 1, epochs)
	if on.Migrations < 1 {
		t.Fatalf("drift run never migrated: %+v", on)
	}
	if off.Migrations != 0 {
		t.Fatalf("adapt-off run reports %d migrations", off.Migrations)
	}
	if on.AggregateBytes >= off.AggregateBytes {
		t.Fatalf("adaptivity lost its win: on=%d bytes >= off=%d bytes (%d migrations)",
			on.AggregateBytes, off.AggregateBytes, on.Migrations)
	}
	if on.Results == 0 || on.Results != off.Results {
		t.Fatalf("results diverged: on=%d off=%d", on.Results, off.Results)
	}
	if !reflect.DeepEqual(resultStream(onStream), resultStream(offStream)) {
		t.Fatal("per-epoch result streams differ between adapt on and off")
	}
}

// TestAdaptOracleStaticRates is property (b): given static rates, the
// adaptive run's result stream is identical to the migration-free
// oracle's even when estimation noise (or a deliberately wrong optimizer
// hint, as here) fires migrations — moving the join node is invisible in
// the delivered results.
func TestAdaptOracleStaticRates(t *testing.T) {
	wrong := &costmodel.Params{SigmaS: 0.05, SigmaT: 0.9, SigmaST: 0.1}
	run := func(adapt bool) (*Report, []EpochStats) {
		e := New(Options{Seed: 5, LossProb: new(float64), Adapt: adapt})
		for i, sql := range []string{q1SQL(t), q2SQL(t)} {
			_, err := e.Submit(QueryConfig{
				ID:  []string{"a", "b"}[i],
				SQL: sql,
				Opt: wrong,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		var stream []EpochStats
		e.OnEpoch = captureStats(&stream)
		return e.Run(40), stream
	}
	oracle, oracleStream := run(false)
	on, onStream := run(true)
	if on.Migrations < 1 {
		t.Fatalf("wrong optimizer hint never triggered a migration: %+v", on)
	}
	if on.Results != oracle.Results {
		t.Fatalf("results diverged from oracle: %d vs %d", on.Results, oracle.Results)
	}
	if !reflect.DeepEqual(resultStream(onStream), resultStream(oracleStream)) {
		t.Fatal("per-epoch result streams differ from the migration-free oracle")
	}
}

// TestAdaptNoTriggerNoEffect is the engine-level negative of property
// (a): with the estimation clock effectively disabled nothing can
// diverge, so enabling the adapt phase must be free — the full report
// (every byte and counter, under the default lossy network) is identical
// to the adapt-off run.
func TestAdaptNoTriggerNoEffect(t *testing.T) {
	alg := join.Innet{Opts: join.InnetOptions{
		Multicast: true, GroupOpt: true, EstimateInterval: 1 << 30,
	}}
	run := func(adapt bool) *Report {
		e := New(Options{Seed: 9, Adapt: adapt})
		for i, sql := range []string{q1SQL(t), q2SQL(t)} {
			if _, err := e.Submit(QueryConfig{ID: []string{"a", "b"}[i], SQL: sql, Algorithm: alg}); err != nil {
				t.Fatal(err)
			}
		}
		return e.Run(25)
	}
	off := run(false)
	on := run(true)
	if on.Migrations != 0 || on.MigrationsAborted != 0 {
		t.Fatalf("migrations fired without estimate divergence: %+v", on)
	}
	if !reflect.DeepEqual(off, on) {
		t.Fatalf("idle adapt phase perturbed the run:\noff: %+v\non:  %+v", off, on)
	}
}

// TestAdaptStatsSumToReport: the per-epoch Migrations/MigrationsAborted
// deltas streamed through OnEpoch must total the final report's counters,
// so a monitoring hook never under- or over-counts window movement.
func TestAdaptStatsSumToReport(t *testing.T) {
	rep, stream := driftRun(t, true, 1, 4*driftEpoch)
	var migrated, aborted int
	for _, s := range stream {
		migrated += s.Migrations
		aborted += s.MigrationsAborted
	}
	if migrated != rep.Migrations || aborted != rep.MigrationsAborted {
		t.Fatalf("epoch stream sums %d/%d != report %d/%d",
			migrated, aborted, rep.Migrations, rep.MigrationsAborted)
	}
}

// TestAdaptMigrationFailureRace is property (d) at the engine level: a
// migration nominated for a node that the churn schedule kills the same
// epoch must abort into the base-station fallback — counted, with the
// window contents intact, and (under lossless delivery) without
// perturbing a single delivered result relative to the adapt-off oracle
// facing the same failure.
func TestAdaptMigrationFailureRace(t *testing.T) {
	// The optimizer is told the join is nearly cross-product (joins at
	// the base); the true match rate is tiny (in-network optimal). The
	// first estimate interval triggers base-to-in-network migrations —
	// and base-joined pairs keep stale paths across failures, which is
	// exactly the window in which the race can happen.
	wrong := &costmodel.Params{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.95}
	rates := workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.02}
	// specs and queries are the last run's query Specs, read at Submit
	// (retirement drops them), and its handles, the only way to a retired
	// query's Result.
	var specs []*workload.Spec
	var queries []*Query
	run := func(adapt bool, churn []ChurnEvent, epochs int) (*Report, []EpochStats, *Engine) {
		e := New(Options{Seed: 11, LossProb: new(float64), Adapt: adapt, Churn: churn})
		specs, queries = specs[:0], queries[:0]
		for i, sql := range []string{q1SQL(t), q2SQL(t)} {
			q, err := e.Submit(QueryConfig{
				ID: []string{"a", "b"}[i], SQL: sql, Rates: rates, Opt: wrong,
			})
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, q.spec)
			queries = append(queries, q)
		}
		var stream []EpochStats
		e.OnEpoch = captureStats(&stream)
		return e.Run(epochs), stream, e
	}
	// Probe 1: find the first migrating epoch M.
	_, stream, _ := run(true, nil, 40)
	m := -1
	for _, s := range stream {
		if s.Migrations > 0 {
			m = s.Epoch
			break
		}
	}
	if m < 0 {
		t.Fatal("probe run never migrated")
	}
	// Probe 2: stop right after M and read the freshly chosen in-network
	// join nodes — one of them is the node to kill. Prefer a target that
	// is a leaf in every substrate tree: killing it rebuilds nothing, so
	// the churned run's epoch-M optimization sees inputs identical to the
	// probe's and must re-nominate exactly this (now dead) node.
	_, _, probe := run(true, nil, m+1)
	isLeaf := func(id topology.NodeID) bool {
		for _, tree := range probe.Sub.Trees {
			if len(tree.ChildrenOf(id)) > 0 {
				return false
			}
		}
		return true
	}
	// Killing a producer would mark its pairs dead and change the group
	// aggregation itself; the race under test needs the optimization
	// inputs unchanged, so the victim must be a pure relay join node.
	endpoint := make(map[topology.NodeID]bool)
	for _, spec := range specs {
		for _, g := range spec.Groups() {
			for _, pr := range g.Pairs {
				endpoint[pr[0]] = true
				endpoint[pr[1]] = true
			}
		}
	}
	var target, fallback topology.NodeID = -1, -1
	for _, q := range queries {
		res := q.Result()
		for _, j := range res.PairJoinNodes {
			if endpoint[j] {
				continue
			}
			if isLeaf(j) {
				target = j
				break
			}
			if fallback < 0 {
				fallback = j
			}
		}
		if target >= 0 {
			break
		}
	}
	if target < 0 {
		target = fallback
	}
	if target < 0 {
		t.Fatal("probe migrated but every chosen join node is also a producer")
	}
	churn := []ChurnEvent{{Epoch: m, Node: target}}
	on, onStream, _ := run(true, churn, 40)
	if on.MigrationsAborted < 1 {
		t.Fatalf("killing migration target %d at epoch %d aborted nothing: %+v", target, m, on)
	}
	if on.FailedNodes != 1 {
		t.Fatalf("churn schedule misfired: %d failed nodes", on.FailedNodes)
	}
	// The oracle faces the same failure with adaptivity off. Up to the
	// race epoch the two runs are bit-identical; afterwards the adaptive
	// run's committed migrations may legitimately lose deliveries routed
	// near the dead relay while section 7 recovers, but it must never
	// fabricate results (no double-restored window can match twice) and
	// must keep delivering.
	off, offStream, _ := run(false, churn, 40)
	onRes, offRes := resultStream(onStream), resultStream(offStream)
	if !reflect.DeepEqual(onRes[:m], offRes[:m]) {
		t.Fatal("result streams diverged before the race epoch")
	}
	if on.Results > off.Results {
		t.Fatalf("race fabricated results: adapt-on %d vs oracle %d", on.Results, off.Results)
	}
	var preRace, postRace int
	for _, s := range onStream {
		for _, r := range s.NewResults {
			if s.Epoch <= m {
				preRace += r
			} else {
				postRace += r
			}
		}
	}
	if postRace == 0 {
		t.Fatalf("no results delivered after the race epoch (pre-race %d)", preRace)
	}
}

// adaptChurn1kWorkload is the bench adapt-churn-1k shape: the churn-1k
// deployment and schedule with adaptivity enabled, wrong optimizer
// estimates and a short estimate interval, so the 12-epoch horizon
// exercises migrations and section-7 recovery together.
func adaptChurn1kWorkload(t *testing.T) (mk func(workers int, churn []ChurnEvent) *Engine, churn []ChurnEvent) {
	t.Helper()
	return churn1kShape(t, true, QueryConfig{
		Opt: &costmodel.Params{SigmaS: 0.9, SigmaT: 0.1, SigmaST: 0.1},
		Algorithm: join.Innet{Opts: join.InnetOptions{
			Multicast: true, GroupOpt: true, EstimateInterval: 4,
		}},
	})
}

// TestWorkersMigrationByteIdentical: adaptivity runs in the sequential
// phase, each stepper charging its query's own network as it does when
// stepping, so migrations under churn must leave every report
// byte-identical across worker counts.
func TestWorkersMigrationByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-node adapt churn grid is slow")
	}
	mk, churn := adaptChurn1kWorkload(t)
	base := mk(1, churn).Run(12)
	if base.Migrations < 1 {
		t.Fatalf("adapt churn run never migrated: %+v", base)
	}
	if base.FailedNodes == 0 {
		t.Fatalf("adapt churn run lost its failure coverage: %+v", base)
	}
	for _, w := range workerCounts[1:] {
		rep := mk(w, churn).Run(12)
		if !reflect.DeepEqual(base, rep) {
			t.Fatalf("workers=%d adapt churn report differs from sequential:\nmigrations=%d/%d aborted=%d/%d aggregate=%d/%d",
				w, rep.Migrations, base.Migrations, rep.MigrationsAborted, base.MigrationsAborted,
				rep.AggregateBytes, base.AggregateBytes)
		}
	}
}
