// Engine-level properties of the fault-injection subsystem: the zero-plan
// identity, worker-count invariance under a full fault plan, loss
// accounting completeness, and the partition/migration interaction.

package engine

import (
	"reflect"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/workload"
)

// faultMix runs the standard two-query workload at the given worker count
// under a fault plan, capturing the per-epoch stream.
func faultMix(t *testing.T, workers int, fc *faults.Config, epochs int) (*Report, []EpochStats, *Engine) {
	t.Helper()
	e := New(Options{Seed: 11, Workers: workers, Faults: fc})
	for i, sql := range []string{q1SQL(t), q2SQL(t)} {
		if _, err := e.Submit(QueryConfig{ID: []string{"a", "b"}[i], SQL: sql}); err != nil {
			t.Fatal(err)
		}
	}
	var stream []EpochStats
	e.OnEpoch = captureStats(&stream)
	return e.Run(epochs), stream, e
}

// TestFaultPlanZeroMatchesFaultFree is the lossy-oracle identity: a fault
// plan with nothing configured must leave the run byte-identical to no
// plan at all — installing the injector adds no draws and no charges.
func TestFaultPlanZeroMatchesFaultFree(t *testing.T) {
	repOff, streamOff, _ := faultMix(t, 1, nil, 25)
	repOn, streamOn, _ := faultMix(t, 1, &faults.Config{Seed: 5}, 25)
	if !reflect.DeepEqual(repOff, repOn) {
		t.Fatalf("zero fault plan perturbed the report:\noff: %+v\non:  %+v", repOff, repOn)
	}
	if !reflect.DeepEqual(streamOff, streamOn) {
		t.Fatal("zero fault plan perturbed the epoch stream")
	}
	if repOn.ResultsLost != 0 || repOn.LinkRerouted != 0 || repOn.LinkFallbacks != 0 || repOn.PartitionEpochs != 0 {
		t.Fatalf("zero plan reported fault activity: %+v", repOn)
	}
}

// fullFaultConfig is the everything-on plan the determinism properties
// exercise: heterogeneous loss, transient link failures with revival, a
// partition window, duplication and delay.
func fullFaultConfig() *faults.Config {
	return &faults.Config{
		Seed: 9, LinkLoss: 0.15, LinkFailRate: 0.01, LinkReviveAfter: 3,
		DupProb: 0.05, DelayMax: 2,
		Partitions: []faults.Partition{{From: 8, Until: 11, Kind: faults.Bisect}},
	}
}

// TestFaultsWorkersByteIdentical: with the full fault plan active, reports
// and per-epoch streams are byte-identical at every worker count — the
// plan draws only in sequential sections, so parallel stepping cannot
// reorder fault decisions.
func TestFaultsWorkersByteIdentical(t *testing.T) {
	baseRep, baseStream, _ := faultMix(t, 1, fullFaultConfig(), 25)
	if baseRep.Results == 0 {
		t.Fatal("fault run delivered nothing to compare")
	}
	if baseRep.LinkRerouted+baseRep.LinkFallbacks == 0 {
		t.Fatal("fault run exercised no link recovery")
	}
	for _, w := range workerCounts[1:] {
		rep, stream, _ := faultMix(t, w, fullFaultConfig(), 25)
		if !reflect.DeepEqual(baseRep, rep) {
			t.Fatalf("workers=%d fault report differs from sequential:\n%+v\n%+v", w, baseRep, rep)
		}
		if !reflect.DeepEqual(baseStream, stream) {
			t.Fatalf("workers=%d fault epoch stream differs from sequential", w)
		}
	}
}

// TestFaultLossesAccounted: every result that goes missing under injected
// loss is accounted — the per-epoch stream totals the report, the report
// totals the per-query slices, and the faults.losses counter agrees with
// all of them. Nothing silently vanishes from Results.
func TestFaultLossesAccounted(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Options{Seed: 11, Obs: reg, Faults: &faults.Config{
		Seed: 9, LinkLoss: 0.4, LinkFailRate: 0.02, LinkReviveAfter: 2,
	}})
	for i, sql := range []string{q1SQL(t), q2SQL(t)} {
		if _, err := e.Submit(QueryConfig{ID: []string{"a", "b"}[i], SQL: sql}); err != nil {
			t.Fatal(err)
		}
	}
	var stream []EpochStats
	e.OnEpoch = captureStats(&stream)
	rep := e.Run(30)
	if rep.ResultsLost == 0 {
		t.Fatal("heavy link loss lost no results; the property run is vacuous")
	}
	var streamLost int
	for _, s := range stream {
		streamLost += s.ResultsLost
	}
	if streamLost != rep.ResultsLost {
		t.Fatalf("epoch stream sums %d lost results, report says %d", streamLost, rep.ResultsLost)
	}
	var queryLost int
	for _, q := range rep.Queries {
		queryLost += q.ResultsLost
	}
	if queryLost != rep.ResultsLost {
		t.Fatalf("per-query slices sum %d lost results, report says %d", queryLost, rep.ResultsLost)
	}
	snap := reg.Snapshot()
	counter := func(name string) int64 {
		for _, c := range snap.Counters {
			if c.Name == name {
				return c.Value
			}
		}
		t.Fatalf("counter %s not registered", name)
		return 0
	}
	if got := counter("faults.losses"); got != int64(rep.ResultsLost) {
		t.Fatalf("faults.losses = %d, report ResultsLost = %d", got, rep.ResultsLost)
	}
	if got := counter("faults.partition_epochs"); got != int64(rep.PartitionEpochs) {
		t.Fatalf("faults.partition_epochs = %d, report PartitionEpochs = %d", got, rep.PartitionEpochs)
	}
	if got := counter("faults.paths_rerouted"); got != int64(rep.LinkRerouted) {
		t.Fatalf("faults.paths_rerouted = %d, report LinkRerouted = %d", got, rep.LinkRerouted)
	}
	if got := counter("faults.base_fallbacks"); got != int64(rep.LinkFallbacks) {
		t.Fatalf("faults.base_fallbacks = %d, report LinkFallbacks = %d", got, rep.LinkFallbacks)
	}
}

// TestFaultStatsSumToReport: the link-fault recovery deltas streamed
// through OnEpoch total the report's counters.
func TestFaultStatsSumToReport(t *testing.T) {
	rep, stream, _ := faultMix(t, 1, fullFaultConfig(), 25)
	var rerouted, fallbacks int
	for _, s := range stream {
		rerouted += s.LinkRerouted
		fallbacks += s.LinkFallbacks
	}
	if rerouted != rep.LinkRerouted || fallbacks != rep.LinkFallbacks {
		t.Fatalf("epoch stream sums %d/%d != report %d/%d",
			rerouted, fallbacks, rep.LinkRerouted, rep.LinkFallbacks)
	}
	if rep.PartitionEpochs != 3 {
		t.Fatalf("partition window [8,11) counted %d epochs, want 3", rep.PartitionEpochs)
	}
}

// TestPartitionAbortsMidEpochMigration is the regression test for the
// migration/partition interaction: a window migration whose charged
// transfer path is severed by a partition that epoch must abort into the
// base-station fallback — counted in MigrationsAborted, pair parked at the
// base — instead of installing a half-transferred window.
func TestPartitionAbortsMidEpochMigration(t *testing.T) {
	// Same shape as TestAdaptMigrationFailureRace: the optimizer believes
	// the join is nearly cross-product (joins at base), the true rate is
	// tiny, so the first estimate interval triggers base-to-in-network
	// migrations — whose transfer paths a partition can sever.
	wrong := &costmodel.Params{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.95}
	rates := workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.02}
	run := func(fc *faults.Config, epochs int) (*Report, []EpochStats) {
		e := New(Options{Seed: 11, LossProb: new(float64), Adapt: true, Faults: fc})
		for i, sql := range []string{q1SQL(t), q2SQL(t)} {
			if _, err := e.Submit(QueryConfig{
				ID: []string{"a", "b"}[i], SQL: sql, Rates: rates, Opt: wrong,
			}); err != nil {
				t.Fatal(err)
			}
		}
		var stream []EpochStats
		e.OnEpoch = captureStats(&stream)
		return e.Run(epochs), stream
	}
	// Probe: find the first migrating epoch.
	_, stream := run(nil, 40)
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
	// Bisect the deployment for exactly the migration epoch: transfers
	// whose path crosses the median-x line fail with the path reported
	// cut, which must abort those migrations.
	fc := &faults.Config{Seed: 3, Partitions: []faults.Partition{{From: m, Until: m + 1, Kind: faults.Bisect}}}
	rep, pstream := run(fc, m+10)
	if rep.MigrationsAborted < 1 {
		t.Fatalf("partition at migration epoch %d aborted nothing: %+v", m, rep)
	}
	if rep.PartitionEpochs != 1 {
		t.Fatalf("partition active %d epochs, want 1", rep.PartitionEpochs)
	}
	abortEpoch := -1
	for _, s := range pstream {
		if s.MigrationsAborted > 0 {
			aborted := s.Epoch
			if aborted != m {
				t.Fatalf("migration aborted at epoch %d, partition was at %d", aborted, m)
			}
			abortEpoch = aborted
		}
	}
	if abortEpoch != m {
		t.Fatalf("epoch stream never recorded the abort (report says %d)", rep.MigrationsAborted)
	}
	// The aborted pairs stay joined at the base that epoch: the oracle run
	// without the partition has strictly more pairs in-network right after
	// the migration epoch.
	oracle, _ := run(nil, m+1)
	parked, _ := run(fc, m+1)
	var oracleInNet, parkedInNet int
	for _, q := range oracle.Queries {
		oracleInNet += q.InNetPairs
	}
	for _, q := range parked.Queries {
		parkedInNet += q.InNetPairs
	}
	if parkedInNet >= oracleInNet {
		t.Fatalf("aborted migrations did not park pairs at base: %d in-network with partition, %d without",
			parkedInNet, oracleInNet)
	}
	// After the partition heals the engine keeps delivering.
	post := 0
	for _, s := range pstream {
		if s.Epoch > m {
			for _, r := range s.NewResults {
				post += r
			}
		}
	}
	if post == 0 {
		t.Fatal("no results delivered after the partition healed")
	}
}
