package engine

import (
	"reflect"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/join"
	"repro/internal/sim"
	"repro/internal/topology"
)

// workerCounts is the property-test grid: sequential, under-, at- and
// over-subscribed pools.
var workerCounts = []int{1, 2, 4, 8}

// captureStats returns an OnEpoch hook appending to *out. EpochStats and
// its NewResults map are only valid during the callback (the engine
// reuses the map), so retaining hooks like these must clone.
func captureStats(out *[]EpochStats) func(EpochStats) {
	return func(s EpochStats) {
		if len(s.NewResults) > 0 {
			m := make(map[string]int, len(s.NewResults))
			for k, v := range s.NewResults {
				m[k] = v
			}
			s.NewResults = m
		}
		*out = append(*out, s)
	}
}

// mixedSubmissions is mixedRun's query mix.
func mixedSubmissions(t *testing.T) []QueryConfig {
	t.Helper()
	return []QueryConfig{
		{ID: "innet", SQL: q1SQL(t), Cycles: 18},
		{ID: "plain", SQL: q2SQL(t), Algorithm: join.Innet{}, AdmitAt: 2},
		{ID: "naive", SQL: q1SQL(t), Algorithm: join.Naive{}, Cycles: 10, AdmitAt: 1},
		{ID: "base", SQL: q2SQL(t), Algorithm: join.Base{}, AdmitAt: 4},
		{ID: "yang", SQL: q1SQL(t), Algorithm: join.Yang07{}, Cycles: 12, AdmitAt: 3},
		{ID: "cmpg", SQL: q1SQL(t), Algorithm: join.Innet{Opts: join.InnetOptions{
			Multicast: true, PathCollapse: true, GroupOpt: true}}, AdmitAt: 5},
	}
}

// mixedRun executes a mixed workload — every continuous algorithm family,
// staggered admissions, mid-run retirements — at the given worker count
// and returns the report plus the captured per-epoch stream.
func mixedRun(t *testing.T, workers int, churn []ChurnEvent) (*Report, []EpochStats) {
	t.Helper()
	e := New(Options{Seed: 7, Workers: workers, Churn: churn})
	for _, qc := range mixedSubmissions(t) {
		if _, err := e.Submit(qc); err != nil {
			t.Fatal(err)
		}
	}
	var stream []EpochStats
	e.OnEpoch = captureStats(&stream)
	return e.Run(20), stream
}

// TestWorkersByteIdentical is the tentpole's determinism property: the
// same workload stepped at any worker count yields byte-identical reports,
// traffic totals and per-epoch streams.
func TestWorkersByteIdentical(t *testing.T) {
	baseRep, baseStream := mixedRun(t, 1, nil)
	if baseRep.Results == 0 || baseRep.QueryBytes == 0 {
		t.Fatal("baseline run produced no work to compare")
	}
	for _, w := range workerCounts[1:] {
		rep, stream := mixedRun(t, w, nil)
		if !reflect.DeepEqual(baseRep, rep) {
			t.Fatalf("workers=%d report differs from sequential:\n%+v\n%+v", w, baseRep, rep)
		}
		if !reflect.DeepEqual(baseStream, stream) {
			t.Fatalf("workers=%d epoch stream differs from sequential", w)
		}
	}
	// Workers < 0 (all cores) is also on the identity surface.
	rep, _ := mixedRun(t, -1, nil)
	if !reflect.DeepEqual(baseRep, rep) {
		t.Fatal("workers=-1 (NumCPU) report differs from sequential")
	}
}

// churn1kWorkload builds the bench churn-1k workload shape: two queries
// over a 1000-node deployment, a seeded churn schedule, and probe-selected
// victims — one intermediate path hop (repairs in-network) and one join
// node (falls back to the base) — so a 12-epoch run exercises every
// section-7 recovery outcome. Returns the engine factory and the schedule;
// shared by the worker-determinism and stats-completeness properties.
func churn1kWorkload(t *testing.T) (mk func(workers int, churn []ChurnEvent) *Engine, churn []ChurnEvent) {
	t.Helper()
	return churn1kShape(t, false, QueryConfig{})
}

// churn1kShape is churn1kWorkload with adapt as Options.Adapt and each
// query's Opt and Algorithm taken from with. The victims are read off the
// placed pairs of a 6-epoch probe run, through the handles Submit returned.
func churn1kShape(t *testing.T, adapt bool, with QueryConfig) (mk func(workers int, churn []ChurnEvent) *Engine, churn []ChurnEvent) {
	t.Helper()
	const nodes = 1000
	sql := []string{q1SQL(t), q2SQL(t)}
	build := func(workers int, churn []ChurnEvent) (*Engine, []*Query) {
		e := New(Options{Seed: 1, Kind: topology.ModerateRandom, Nodes: nodes,
			Workers: workers, Churn: churn, Adapt: adapt})
		var qs []*Query
		for i, src := range sql {
			q, err := e.Submit(QueryConfig{
				ID: []string{"a", "b"}[i], SQL: src, Opt: with.Opt, Algorithm: with.Algorithm,
			})
			if err != nil {
				t.Fatal(err)
			}
			qs = append(qs, q)
		}
		return e, qs
	}
	probe, queries := build(1, nil)
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
		t.Fatal("probe found no churn victims")
	}
	churn = append(SeededChurn(7, nodes, 12, 0.0005, 0),
		ChurnEvent{Epoch: 3, Node: mid},
		ChurnEvent{Epoch: 6, Node: joinNode})
	mk = func(workers int, churn []ChurnEvent) *Engine {
		e, _ := build(workers, churn)
		return e
	}
	return mk, churn
}

// TestWorkersChurnByteIdentical runs the churn-1k workload at every worker
// count and requires identical recovery accounting. Churn and repair
// mutate shared state, so this is the test that pins them to the
// sequential sections.
func TestWorkersChurnByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-node churn grid is slow")
	}
	mk, churn := churn1kWorkload(t)
	base := mk(1, churn).Run(12)
	if base.FailedNodes == 0 || base.PathsRepaired == 0 || base.BaseFallbacks == 0 {
		t.Fatalf("churn run lost its recovery coverage: %+v", base)
	}
	for _, w := range workerCounts[1:] {
		rep := mk(w, churn).Run(12)
		if !reflect.DeepEqual(base, rep) {
			t.Fatalf("workers=%d churn report differs from sequential:\nfailed=%d/%d repaired=%d/%d shared=%d/%d aggregate=%d/%d",
				w, rep.FailedNodes, base.FailedNodes, rep.PathsRepaired, base.PathsRepaired,
				rep.SharedBytes, base.SharedBytes, rep.AggregateBytes, base.AggregateBytes)
		}
	}
}

// TestWorkersFullMetricsIdentical: worker count cannot move any counter.
// Workers charge each query's own network directly, so the property is
// pinned on the whole sim.Metrics — per-node vectors, ByKind, Attempted/
// Delivered/Drops/CutDrops/Duplicates/DelaySlots — of every query and of
// the shared stream, under churn, the full fault plan and adaptivity with
// one query optimized from wrong estimates.
func TestWorkersFullMetricsIdentical(t *testing.T) {
	const epochs = 20
	// run also returns each query's network, held from Submit: retirement
	// drops it.
	run := func(workers int) (*Engine, *Report, []*sim.Network) {
		e := New(Options{Seed: 7, Workers: workers, Adapt: true, Faults: fullFaultConfig(),
			Churn: SeededChurn(7, 100, epochs, 0.004, 5)})
		var nets []*sim.Network
		for _, qc := range mixedSubmissions(t) {
			if qc.ID == "cmpg" {
				qc.Opt = &costmodel.Params{SigmaS: 0.05, SigmaT: 0.9, SigmaST: 0.1}
			}
			q, err := e.Submit(qc)
			if err != nil {
				t.Fatal(err)
			}
			nets = append(nets, q.net)
		}
		return e, e.Run(epochs), nets
	}
	base, rep, baseNets := run(1)
	if rep.FailedNodes == 0 || rep.Migrations == 0 || rep.LinkRerouted+rep.LinkFallbacks == 0 {
		t.Fatalf("run lost its churn/adaptivity/link-fault coverage: %+v", rep)
	}
	var cut, dup, delay int64
	for _, net := range baseNets {
		m := net.Metrics()
		cut, dup, delay = cut+m.CutDrops, dup+m.Duplicates, delay+m.DelaySlots
	}
	if cut == 0 || dup == 0 || delay == 0 {
		t.Fatalf("fault plan injected cut/dup/delay = %d/%d/%d, want all > 0", cut, dup, delay)
	}
	for _, w := range workerCounts[1:] {
		e, _, nets := run(w)
		if !reflect.DeepEqual(*base.shared.Metrics(), *e.shared.Metrics()) {
			t.Errorf("workers=%d: shared-stream metrics differ from sequential", w)
		}
		for i, q := range rep.Queries {
			if want, got := *baseNets[i].Metrics(), *nets[i].Metrics(); !reflect.DeepEqual(want, got) {
				t.Errorf("workers=%d: query %s metrics differ from sequential:\nseq: %+v\npar: %+v", w, q.ID, want, got)
			}
		}
	}
}

// TestWorkersTrafficExactlyOnce: every charge lands exactly once at any
// worker count — per-query totals and the shared stream agree with the
// sequential run, and the aggregate identity holds.
func TestWorkersTrafficExactlyOnce(t *testing.T) {
	seq, _ := mixedRun(t, 1, nil)
	par, _ := mixedRun(t, 4, nil)
	if seq.SharedBytes != par.SharedBytes {
		t.Fatalf("shared-substrate traffic differs: %d vs %d", seq.SharedBytes, par.SharedBytes)
	}
	for i := range seq.Queries {
		a, b := seq.Queries[i], par.Queries[i]
		if a.TotalBytes != b.TotalBytes || a.TotalMessages != b.TotalMessages {
			t.Fatalf("query %s traffic differs: %d/%d vs %d/%d bytes/messages",
				a.ID, a.TotalBytes, a.TotalMessages, b.TotalBytes, b.TotalMessages)
		}
	}
	var sum int64
	for _, q := range par.Queries {
		sum += q.TotalBytes
	}
	if par.AggregateBytes != par.SharedBytes+sum {
		t.Fatalf("aggregate %d != shared %d + queries %d", par.AggregateBytes, par.SharedBytes, sum)
	}
}

// TestOnEpochHookMidRun: an OnEpoch hook registered mid-run sees exactly
// the epochs it was present for — the NewResults delta of its first epoch
// must match a hook-from-the-start run's, not the whole backlog.
func TestOnEpochHookMidRun(t *testing.T) {
	run := func(hookAt int) []EpochStats {
		e := New(Options{Seed: 7})
		if _, err := e.Submit(QueryConfig{SQL: q1SQL(t)}); err != nil {
			t.Fatal(err)
		}
		var stream []EpochStats
		for i := 0; i < 15; i++ {
			if i == hookAt {
				e.OnEpoch = captureStats(&stream)
			}
			e.Step()
		}
		return stream
	}
	full := run(0)
	late := run(8)
	if len(full) != 15 || len(late) != 7 {
		t.Fatalf("stream lengths %d/%d, want 15/7", len(full), len(late))
	}
	if !reflect.DeepEqual(full[8:], late) {
		t.Fatalf("late-registered hook sees different epochs:\nfull[8:] = %+v\nlate     = %+v", full[8:], late)
	}
}

// patchChurnWorkload builds a churn schedule of interior tree-0 victims —
// alive non-root nodes with children and a small subtree — so the
// substrate's in-place patch (routing.PatchTreeLive) fires on every
// repair. Shared by the worker-determinism property below.
func patchChurnWorkload(t *testing.T, e *Engine) []ChurnEvent {
	t.Helper()
	tree := e.Sub.Trees[0]
	roots := make(map[topology.NodeID]bool)
	for _, tr := range e.Sub.Trees {
		roots[tr.Root] = true
	}
	var churn []ChurnEvent
	epoch := 3
	for id := 0; id < e.Topo.N() && len(churn) < 3; id++ {
		v := topology.NodeID(id)
		if roots[v] || len(tree.ChildrenOf(v)) == 0 {
			continue
		}
		if sub := tree.Subtree(v); len(sub) < 2 || len(sub) > 40 {
			continue
		}
		churn = append(churn, ChurnEvent{Epoch: epoch, Node: v})
		epoch += 2
	}
	if len(churn) == 0 {
		t.Fatal("probe found no interior patch victims")
	}
	return churn
}

// TestWorkersPatchChurnByteIdentical: interior-node failures served by the
// incremental patch path must leave the report byte-identical across
// worker counts, and the patch path must actually have fired
// (TreesPatched > 0) — otherwise the property is vacuous.
func TestWorkersPatchChurnByteIdentical(t *testing.T) {
	const nodes = 300
	mk := func(workers int, churn []ChurnEvent) *Engine {
		e := New(Options{Seed: 11, Kind: topology.ModerateRandom, Nodes: nodes, Workers: workers, Churn: churn})
		for i, src := range []string{q1SQL(t), q2SQL(t)} {
			if _, err := e.Submit(QueryConfig{ID: []string{"a", "b"}[i], SQL: src}); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	churn := patchChurnWorkload(t, mk(1, nil))
	base := mk(1, churn).Run(12)
	if base.TreesPatched == 0 {
		t.Fatalf("no incremental patches fired: %+v", base)
	}
	if base.TreesPatched > base.TreesRebuilt {
		t.Fatalf("patched %d exceeds total repairs %d", base.TreesPatched, base.TreesRebuilt)
	}
	for _, w := range []int{4} {
		rep := mk(w, churn).Run(12)
		if !reflect.DeepEqual(base, rep) {
			t.Fatalf("workers=%d patch-churn report differs from sequential:\npatched=%d/%d rebuilt=%d/%d shared=%d/%d",
				w, rep.TreesPatched, base.TreesPatched, rep.TreesRebuilt, base.TreesRebuilt,
				rep.SharedBytes, base.SharedBytes)
		}
	}
}
