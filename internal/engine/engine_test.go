package engine

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"weak"

	"repro/internal/bench"
	"repro/internal/dht"
	"repro/internal/ght"
	"repro/internal/join"
	"repro/internal/obs"
	"repro/internal/topology"
	"repro/internal/workload"
)

// q1SQL / q2SQL are Table 2's multi-producer queries, submitted as text the
// way a base station would receive them.
func q1SQL(t *testing.T) string {
	t.Helper()
	src, ok := workload.QueryText("Q1")
	if !ok {
		t.Fatal("no Q1 text")
	}
	return src
}

func q2SQL(t *testing.T) string {
	t.Helper()
	src, ok := workload.QueryText("Q2")
	if !ok {
		t.Fatal("no Q2 text")
	}
	return src
}

func TestLifecycle(t *testing.T) {
	e := New(Options{Seed: 1})
	qa, err := e.Submit(QueryConfig{ID: "a", SQL: q1SQL(t), Cycles: 20})
	if err != nil {
		t.Fatal(err)
	}
	qb, err := e.Submit(QueryConfig{ID: "b", SQL: q2SQL(t), Cycles: 20, AdmitAt: 5})
	if err != nil {
		t.Fatal(err)
	}
	qc, err := e.Submit(QueryConfig{ID: "c", SQL: q1SQL(t), Algorithm: join.Base{}})
	if err != nil {
		t.Fatal(err)
	}
	if qa.State() != Pending || qb.State() != Pending || qc.State() != Pending {
		t.Fatal("queries must start pending")
	}

	var admitted, retired []string
	e.OnEpoch = func(s EpochStats) {
		admitted = append(admitted, s.Admitted...)
		retired = append(retired, s.Retired...)
	}
	rep := e.Run(30)

	if qa.State() != Retired || qb.State() != Retired || qc.State() != Retired {
		t.Fatalf("states after run: %v %v %v", qa.State(), qb.State(), qc.State())
	}
	if got := rep.Queries[0]; got.AdmitEpoch != 0 || got.RetireEpoch != 20 {
		t.Fatalf("query a interval [%d,%d), want [0,20)", got.AdmitEpoch, got.RetireEpoch)
	}
	if got := rep.Queries[1]; got.AdmitEpoch != 5 || got.RetireEpoch != 25 {
		t.Fatalf("query b interval [%d,%d), want [5,25)", got.AdmitEpoch, got.RetireEpoch)
	}
	// Cycles == 0 runs until the horizon.
	if got := rep.Queries[2]; got.AdmitEpoch != 0 || got.RetireEpoch != 30 {
		t.Fatalf("query c interval [%d,%d), want [0,30)", got.AdmitEpoch, got.RetireEpoch)
	}
	if !reflect.DeepEqual(admitted, []string{"a", "c", "b"}) {
		t.Fatalf("admissions %v", admitted)
	}
	if !reflect.DeepEqual(retired, []string{"a", "b"}) { // c retires at drain
		t.Fatalf("retirements %v", retired)
	}

	// Accounting identities.
	var sum int64
	results := 0
	for _, q := range rep.Queries {
		sum += q.TotalBytes
		results += q.Results
		if q.TotalBytes <= 0 {
			t.Fatalf("query %s charged no traffic", q.ID)
		}
	}
	if rep.QueryBytes != sum || rep.AggregateBytes != rep.SharedBytes+sum {
		t.Fatalf("aggregate %d != shared %d + queries %d", rep.AggregateBytes, rep.SharedBytes, sum)
	}
	if rep.SharedBytes <= 0 {
		t.Fatal("shared infrastructure traffic not charged")
	}
	if rep.Results != results || results == 0 {
		t.Fatalf("results %d (per-query sum %d)", rep.Results, results)
	}
}

// TestLifecycleKeepsSubmissionOrder: the scheduler's pending and active
// lists are exactly the registry's Pending and Live queries in submission
// order, whatever order the queries are admitted in, so every sequential
// phase still visits queries in submission order. Here the queries
// submitted last are admitted first and all of them retire in one epoch,
// which the OnEpoch stream reports in submission order; a query submitted
// between epochs with a past AdmitAt joins at the next one.
func TestLifecycleKeepsSubmissionOrder(t *testing.T) {
	e := New(Options{Seed: 1})
	var handles []*Query
	submit := func(qc QueryConfig) {
		q, err := e.Submit(qc)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, q)
	}
	for i, id := range []string{"a", "b", "c", "d"} {
		// a..d admit at epochs 3, 2, 1, 0 and all retire after epoch 7.
		submit(QueryConfig{ID: id, SQL: q1SQL(t), AdmitAt: 3 - i, Cycles: 5 + i})
	}
	submit(QueryConfig{ID: "forever", SQL: q2SQL(t), AdmitAt: 2})
	var admitted [][]string
	var retired []string
	e.OnEpoch = func(s EpochStats) {
		admitted = append(admitted, s.Admitted)
		retired = append(retired, s.Retired...)
	}
	inState := func(st State) []*Query {
		var qs []*Query
		for _, q := range handles {
			if q.state == st {
				qs = append(qs, q)
			}
		}
		return qs
	}
	for ep := 0; ep < 10; ep++ {
		if ep == 4 {
			submit(QueryConfig{ID: "late", SQL: q1SQL(t), AdmitAt: 1, Cycles: 2})
		}
		e.Step()
		if !slices.Equal(e.pending, inState(Pending)) || !slices.Equal(e.active, inState(Live)) {
			t.Fatalf("epoch %d: pending/active lists are not the registry's Pending/Live queries in submission order", ep)
		}
	}
	wantAdmitted := [][]string{{"d"}, {"c"}, {"b", "forever"}, {"a"}, {"late"}, nil, nil, nil, nil, nil}
	if !reflect.DeepEqual(admitted, wantAdmitted) {
		t.Fatalf("admissions by epoch %v, want %v", admitted, wantAdmitted)
	}
	if want := []string{"late", "a", "b", "c", "d"}; !reflect.DeepEqual(retired, want) {
		t.Fatalf("retirements %v, want %v", retired, want)
	}
	e.Run(0)
	if len(e.active) != 0 || handles[4].State() != Retired {
		t.Fatal("the drain left a query live")
	}
}

// turnoverMix returns runUntil, which drives the benchmark's turnover-100
// arrival process on e in the fixed order internal/bench's turnover-100
// scenario runs it until e reaches epoch: four arrivals before every Step,
// each living 16 epochs, arrival i running algorithm i%7 of the seven on
// shape i%6 of bench.EngineSQL's four texts, Query1 and Query0 (Query1
// first: the deployment indexes id with the summary kind of the first
// query that asks). keep, when non-nil, is handed each arrival's handle.
func turnoverMix(t *testing.T, e *Engine) (runUntil func(epoch int, keep func(*Query))) {
	rates := workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1}
	algs := []join.Continuous{
		join.Innet{Opts: join.InnetOptions{Multicast: true, GroupOpt: true}},
		join.Innet{},
		join.Base{},
		join.Naive{},
		join.Yang07{},
		join.Hashed{Label: "GHT", Router: ght.NewRouter(e.Topo)},
		join.Hashed{Label: "DHT", Router: dht.NewRing(e.Topo)},
	}
	arrivals := 0
	return func(epoch int, keep func(*Query)) {
		for e.epoch < epoch {
			for k := 0; k < 4; k++ {
				i := arrivals
				qc := QueryConfig{ID: fmt.Sprintf("a%d", i), Algorithm: algs[i%len(algs)], Cycles: 16}
				switch shape := i % 6; shape {
				case 4:
					qc.Spec = workload.Query1(e.Topo, e.Nodes, rates)
				case 5:
					qc.Spec = workload.Query0(e.Topo, e.Nodes, 5, rates, uint64(i))
				default:
					qc.SQL, qc.Rates = bench.EngineSQL[shape], rates
				}
				q, err := e.Submit(qc)
				if err != nil {
					t.Fatal(err)
				}
				if keep != nil {
					keep(q)
				}
				arrivals++
			}
			e.Step()
		}
	}
}

// TestRetiredQueryResidue: a retired query is one frozen report row and an
// ID, and the engine holds no reference to it. Over the turnover mix the
// post-GC heap may grow by at most 320 B per query retired between epochs
// 200 and 1200 at 100 nodes (about 240 B is measured; a query whose
// Result, paths and top loads the engine kept held about 0.96 KB, and one
// that kept its network, sampler and Spec about 5.9 KB), and by the
// per-row bytes of the mem.engine.retired.bytes gauge, within 10%. Once
// the caller drops a handle, no retired Query stays reachable; a handle
// the caller keeps still reaches its Result.
func TestRetiredQueryResidue(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Options{Seed: 3, Kind: topology.ModerateRandom, Nodes: 100, Trees: 3, Obs: reg})
	runUntil := turnoverMix(t, e)
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	gauge := func() int64 {
		v, _ := reg.Snapshot().Value("mem.engine.retired.bytes")
		return v
	}
	retired := func() int { return len(e.ids) - len(e.pending) - len(e.active) }

	// The first 100 arrivals are watched through weak pointers, and the
	// first of them is kept.
	var kept *Query
	watched := make([]weak.Pointer[Query], 0, 100)
	runUntil(200, func(q *Query) {
		if kept == nil {
			kept = q
		}
		if len(watched) < cap(watched) {
			watched = append(watched, weak.Make(q))
		}
	})
	h0, r0 := heap(), retired()
	g0 := gauge()
	runUntil(1200, nil)
	h1, r1 := heap(), retired()
	g1 := gauge()
	per := float64(h1-h0) / float64(r1-r0)
	perRow := float64(g1-g0) / float64(r1-r0)
	t.Logf("%d queries retired between epochs 200 and 1200: %.0f B of heap each, gauge %.0f B a row", r1-r0, per, perRow)
	if per > 320 {
		t.Errorf("%.0f B of live heap per retired query, want <= 320", per)
	}
	if math.Abs(per-perRow) > perRow/10 {
		t.Errorf("mem.engine.retired.bytes grows %.0f B a retired query, the heap %.0f B: off by more than 10%%", perRow, per)
	}
	if kept.state != Retired || kept.Result() == nil {
		t.Fatalf("kept query %s: state %v, Result %v", kept.ID, kept.state, kept.Result())
	}
	if kept.net != nil || kept.sampler != nil || kept.spec != nil || kept.stepper != nil {
		t.Fatalf("retired query %s still holds its network, sampler, Spec or stepper", kept.ID)
	}
	runtime.GC()
	reachable := 0
	for _, w := range watched {
		if q := w.Value(); q != nil && q != kept {
			reachable++
		}
	}
	if reachable > 0 {
		t.Errorf("%d of %d retired queries whose handles were dropped are still reachable", reachable, len(watched)-1)
	}
	runtime.KeepAlive(e)
	runtime.KeepAlive(kept)
}

// TestRetiredRowsMatchHandles: a retired query's report row, frozen at
// retirement, is the row its handle's Result rebuilds, for every query of
// the turnover mix, and the report's totals are the rows' sums.
func TestRetiredRowsMatchHandles(t *testing.T) {
	e := New(Options{Seed: 3, Kind: topology.ModerateRandom, Nodes: 100, Trees: 3})
	var handles []*Query
	turnoverMix(t, e)(60, func(q *Query) { handles = append(handles, q) })
	rep := e.Run(0)
	if len(rep.Queries) != len(handles) {
		t.Fatalf("%d rows for %d submitted queries", len(rep.Queries), len(handles))
	}
	var results int
	var bytes int64
	for i, q := range handles {
		r := q.Result()
		if r == nil {
			t.Fatalf("query %s: no Result after the drain", q.ID)
		}
		want := QueryReport{
			ID: q.ID, Algorithm: q.Alg.Name(), State: "retired",
			AdmitEpoch: q.admitEpoch, RetireEpoch: q.retireEpoch,
			TotalBytes: r.TotalBytes, TotalMessages: r.TotalMessages,
			InitBytes: r.InitBytes, BaseBytes: r.BaseBytes, MaxNodeBytes: r.MaxNodeBytes,
			BytesPerNode: float64(r.TotalBytes) / float64(e.Topo.N()),
			Results:      r.Results, ResultsLost: r.ResultsLost,
			Digest: r.Digest, LostDigest: r.LostDigest, MeanDelay: r.MeanDelay(),
			InNetPairs: r.InNetPairs, AtBasePairs: r.AtBasePairs,
		}
		if got := rep.Queries[i]; got != want {
			t.Fatalf("row %d:\n got %+v\nwant %+v", i, got, want)
		}
		results += r.Results
		bytes += r.TotalBytes
	}
	if rep.Results != results || rep.QueryBytes != bytes || results == 0 {
		t.Fatalf("report totals %d results, %d B; the handles' Results sum to %d, %d B", rep.Results, rep.QueryBytes, results, bytes)
	}
}

// TestInnetHoldsNoNodeColumns: a 4-pair In-Net Query 0 on Dense 100k
// keeps nothing the length of the deployment in its stepper — MemBytes is
// under a byte a node — and a second such query adds at most 1 MB of live
// heap, most of it its network's per-node load column.
func TestInnetHoldsNoNodeColumns(t *testing.T) {
	e := New(Options{Seed: 1, Kind: topology.DenseRandom, Nodes: 100000, Trees: 1})
	rates := workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1}
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	var held []int64
	for seed := uint64(17); seed <= 18; seed++ {
		q, err := e.Submit(QueryConfig{ID: fmt.Sprint(seed), Spec: workload.Query0(e.Topo, e.Nodes, 4, rates, seed)})
		if err != nil {
			t.Fatal(err)
		}
		e.Step()
		if m := q.stepper.MemBytes(); m <= 0 || m >= int64(e.Topo.N()) {
			t.Errorf("query %s: stepper MemBytes = %d, want a positive figure under one byte a node (%d)", q.ID, m, e.Topo.N())
		}
		held = append(held, heap())
	}
	t.Logf("the second query holds %d B of heap", held[1]-held[0])
	if per := held[1] - held[0]; per > 1_000_000 {
		t.Errorf("the second query holds %d B of heap, want <= 1 MB", per)
	}
	runtime.KeepAlive(e)
}

func TestSubmitValidation(t *testing.T) {
	e := New(Options{})
	if _, err := e.Submit(QueryConfig{ID: "x"}); err == nil {
		t.Fatal("no SQL and no Spec accepted")
	}
	if _, err := e.Submit(QueryConfig{ID: "x", SQL: "SELECT nonsense"}); err == nil {
		t.Fatal("bad SQL accepted")
	}
	if _, err := e.Submit(QueryConfig{ID: "x", SQL: q1SQL(t)}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(QueryConfig{ID: "x", SQL: q1SQL(t)}); err == nil {
		t.Fatal("duplicate ID accepted")
	}
}

// TestSubmitRejectsUnbindableDynamicJoin: a join node holds only the two
// readings, so a dynamic join clause over any other attribute cannot be
// evaluated there. Submit must refuse it; admitting it would panic in the
// query's first Step, on a pool goroutine when Workers > 1.
func TestSubmitRejectsUnbindableDynamicJoin(t *testing.T) {
	for _, clause := range []string{"S.temperature = T.temperature", "S.u = T.id"} {
		e := New(Options{Seed: 1, Workers: 2})
		if _, err := e.Submit(QueryConfig{SQL: q1SQL(t) + " AND " + clause}); err == nil {
			t.Fatalf("%s: Submit accepted a clause no join node can evaluate", clause)
		}
		if n := len(e.Report().Queries); n != 0 {
			t.Fatalf("%s: %d queries registered after a failed Submit", clause, n)
		}
		if rep := e.Run(2); len(rep.Queries) != 0 {
			t.Fatalf("%s: a rejected query ran", clause)
		}
	}
}

// TestDeterminism: the engine is a pure function of (Options, submission
// sequence) — two identical runs produce identical reports.
func TestDeterminism(t *testing.T) {
	mk := func() *Report {
		e := New(Options{Seed: 7})
		if _, err := e.Submit(QueryConfig{SQL: q1SQL(t), Cycles: 25}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Submit(QueryConfig{SQL: q2SQL(t), AdmitAt: 3}); err != nil {
			t.Fatal(err)
		}
		spec := workload.Query3(e.Topo, e.Nodes, workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1})
		if _, err := e.Submit(QueryConfig{
			Spec:    spec,
			Sampler: workload.HumiditySampler{H: workload.NewHumidity(e.Topo, 7)},
			AdmitAt: 10,
		}); err != nil {
			t.Fatal(err)
		}
		return e.Run(40)
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("reports differ:\n%+v\n%+v", a, b)
	}
}

// TestLateSubmit: a query submitted mid-run with a stale AdmitAt is
// admitted at the next epoch, not in the past.
func TestLateSubmit(t *testing.T) {
	e := New(Options{})
	if _, err := e.Submit(QueryConfig{SQL: q1SQL(t)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		e.Step()
	}
	q, err := e.Submit(QueryConfig{ID: "late", SQL: q2SQL(t), AdmitAt: 2, Cycles: 5})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(10)
	if q.State() != Retired {
		t.Fatalf("late query state %v", q.State())
	}
	rep := e.Report()
	if got := rep.Queries[1]; got.AdmitEpoch != 10 || got.RetireEpoch != 15 {
		t.Fatalf("late query interval [%d,%d), want [10,15)", got.AdmitEpoch, got.RetireEpoch)
	}
}

// TestSharedTraffic is the tentpole property: one deployment serving N
// queries transmits strictly less than N single-query deployments, because
// routing-tree construction and index dissemination are charged once and
// queries indexing the same attribute share its summaries.
func TestSharedTraffic(t *testing.T) {
	single := func(sql string) *Report {
		e := New(Options{Seed: 3})
		if _, err := e.Submit(QueryConfig{SQL: sql, Cycles: 30}); err != nil {
			t.Fatal(err)
		}
		return e.Run(30)
	}
	ra := single(q1SQL(t))
	rb := single(q2SQL(t))

	e := New(Options{Seed: 3})
	if _, err := e.Submit(QueryConfig{SQL: q1SQL(t), Cycles: 30}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(QueryConfig{SQL: q2SQL(t), Cycles: 30}); err != nil {
		t.Fatal(err)
	}
	both := e.Run(30)

	sumSingles := ra.AggregateBytes + rb.AggregateBytes
	if both.AggregateBytes >= sumSingles {
		t.Fatalf("sharing did not help: together %d >= separate %d", both.AggregateBytes, sumSingles)
	}
	// The shared stream itself must be cheaper than paying infrastructure
	// twice.
	if both.SharedBytes >= ra.SharedBytes+rb.SharedBytes {
		t.Fatalf("shared %d >= %d+%d", both.SharedBytes, ra.SharedBytes, rb.SharedBytes)
	}
}

// TestIndexSharing: two queries indexing the same attribute pay its
// dissemination once — the second admission adds no shared traffic.
func TestIndexSharing(t *testing.T) {
	e := New(Options{Seed: 5})
	if _, err := e.Submit(QueryConfig{SQL: q1SQL(t), Cycles: 2}); err != nil {
		t.Fatal(err)
	}
	e.Step()
	afterFirst := e.Report().SharedBytes
	if _, err := e.Submit(QueryConfig{ID: "twin", SQL: q1SQL(t), Cycles: 2}); err != nil {
		t.Fatal(err)
	}
	e.Step()
	if got := e.Report().SharedBytes; got != afterFirst {
		t.Fatalf("second identical query grew shared traffic: %d -> %d", afterFirst, got)
	}
}

// TestIndexKindSharedAcrossQueries: the first query to index an attribute
// fixes its summary kind for the deployment. Query 0 indexes "id" with a
// Bloom filter, Query 1 wants an interval over it; either admission order
// must run (Q0-first used to panic in Q1's search matcher) and deliver.
func TestIndexKindSharedAcrossQueries(t *testing.T) {
	rates := workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.2}
	for _, order := range [][2]string{{"Q0", "Q1"}, {"Q1", "Q0"}} {
		e := New(Options{Seed: 5})
		for _, name := range order {
			spec := workload.Query1(e.Topo, e.Nodes, rates)
			if name == "Q0" {
				spec = workload.Query0(e.Topo, e.Nodes, 10, rates, 7)
			}
			if _, err := e.Submit(QueryConfig{ID: name, Spec: spec}); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range e.Run(20).Queries {
			if q.Results == 0 {
				t.Errorf("order %v: %s delivered no results", order, q.ID)
			}
		}
	}
}

// TestIndexLifetime: an index column lives while a live query needs it. A
// second, overlapping Query 0 shares the id column at no charge; once both
// have retired the column is gone and mem.routing.bytes is back at its
// value before the first admission; a third Query 0 then pays exactly the
// first one's dissemination on the shared stream.
func TestIndexLifetime(t *testing.T) {
	rates := workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.2}
	reg := obs.NewRegistry()
	e := New(Options{Seed: 5, LossProb: new(float64), Obs: reg})
	gauge := func() int64 {
		v, _ := reg.Snapshot().Value("mem.routing.bytes")
		return v
	}
	admit := func(id string, cycles int, seed uint64) int64 {
		t.Helper()
		if _, err := e.Submit(QueryConfig{ID: id, Spec: workload.Query0(e.Topo, e.Nodes, 10, rates, seed), Cycles: cycles}); err != nil {
			t.Fatal(err)
		}
		shared := e.Report().SharedBytes
		e.Step()
		return e.Report().SharedBytes - shared
	}
	e.Step()
	before := gauge()
	first := admit("a", 4, 7)
	if first <= 0 || !e.Sub.HasIndex("id") {
		t.Fatalf("the first Query 0 paid %d shared bytes, id indexed %v", first, e.Sub.HasIndex("id"))
	}
	if paid := admit("b", 4, 8); paid != 0 {
		t.Fatalf("a second Query 0 overlapping the first paid %d shared bytes", paid)
	}
	if gauge() <= before {
		t.Fatalf("mem.routing.bytes with id indexed = %d, before %d", gauge(), before)
	}
	for e.Step() {
	}
	if e.Sub.HasIndex("id") {
		t.Fatal("id still indexed after both its queries retired")
	}
	if got := gauge(); got != before || e.Sub.MemBytes() != before {
		t.Fatalf("mem.routing.bytes after both retired = %d (MemBytes %d), before admission %d", got, e.Sub.MemBytes(), before)
	}
	if paid := admit("c", 2, 9); paid != first {
		t.Fatalf("a third Query 0 after both retired paid %d shared bytes, the first %d", paid, first)
	}
}

// TestIndexKindAfterDrop: a query that needs an attribute nobody indexes
// any more indexes it on its own summary kind, paying what it would pay
// as the deployment's first query. Query 0 wants a Bloom filter over id,
// Query 1 an interval; either after the other has retired runs, pays its
// own first dissemination, and delivers.
func TestIndexKindAfterDrop(t *testing.T) {
	rates := workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.2}
	spec := func(e *Engine, name string) *workload.Spec {
		if name == "Q0" {
			return workload.Query0(e.Topo, e.Nodes, 10, rates, 7)
		}
		return workload.Query1(e.Topo, e.Nodes, rates)
	}
	// firstCost is what name's admission costs the shared stream as the
	// deployment's only query.
	firstCost := func(name string) int64 {
		e := New(Options{Seed: 5, LossProb: new(float64)})
		built := e.Report().SharedBytes
		if _, err := e.Submit(QueryConfig{ID: name, Spec: spec(e, name), Cycles: 1}); err != nil {
			t.Fatal(err)
		}
		e.Step()
		return e.Report().SharedBytes - built
	}
	for _, order := range [][2]string{{"Q0", "Q1"}, {"Q1", "Q0"}} {
		e := New(Options{Seed: 5, LossProb: new(float64)})
		if _, err := e.Submit(QueryConfig{ID: order[0], Spec: spec(e, order[0]), Cycles: 3}); err != nil {
			t.Fatal(err)
		}
		for e.Step() {
		}
		if e.Sub.HasIndex("id") {
			t.Fatalf("order %v: id still indexed after %s retired", order, order[0])
		}
		if _, err := e.Submit(QueryConfig{ID: order[1], Spec: spec(e, order[1]), Cycles: 20}); err != nil {
			t.Fatal(err)
		}
		shared := e.Report().SharedBytes
		e.Step()
		if paid, want := e.Report().SharedBytes-shared, firstCost(order[1]); paid != want {
			t.Errorf("order %v: %s paid %d shared bytes, %d as the only query", order, order[1], paid, want)
		}
		for _, q := range e.Run(20).Queries {
			if q.Results == 0 {
				t.Errorf("order %v: %s delivered no results", order, q.ID)
			}
		}
	}
}

func TestSweepMatchesSequential(t *testing.T) {
	job := func(i int) int { return i * i }
	want := Sweep(100, 1, job)
	for _, workers := range []int{2, 3, runtime.NumCPU(), 200} {
		got := Sweep(100, workers, job)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d diverged", workers)
		}
	}
	if Sweep(0, 4, job) != nil {
		t.Fatal("n=0 should return nil")
	}
}

// TestForEachCoversEveryIndexOnce: the pool claims every index exactly once
// and never names a worker outside the pool, at empty, single, uneven and
// oversubscribed shapes.
func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		for _, workers := range []int{-1, 1, 3, 16} {
			pool := workers
			if pool <= 0 {
				pool = runtime.NumCPU()
			}
			seen := make([]atomic.Int32, n)
			forEach(n, workers, func(w, i int) {
				seen[i].Add(1)
				if w < 0 || w >= pool {
					t.Errorf("n=%d workers=%d: worker id %d outside the pool of %d", n, workers, w, pool)
				}
			})
			for i := range seen {
				if c := seen[i].Load(); c != 1 {
					t.Fatalf("n=%d workers=%d: index %d claimed %d times", n, workers, i, c)
				}
			}
		}
	}
}

// TestSweepEngineDeterminism runs a real simulation per job and checks
// worker-count independence on the actual workload.
func TestSweepEngineDeterminism(t *testing.T) {
	job := func(i int) int64 {
		e := New(Options{Seed: uint64(i) + 1, Nodes: 50})
		src, _ := workload.QueryText("Q1")
		if _, err := e.Submit(QueryConfig{SQL: src, Cycles: 10}); err != nil {
			t.Error(err)
			return 0
		}
		return e.Run(10).AggregateBytes
	}
	seq := Sweep(8, 1, job)
	par := Sweep(8, runtime.NumCPU(), job)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("sequential %v != parallel %v", seq, par)
	}
}

// TestChurnFailureSharedEverywhere is the tentpole acceptance test: a node
// failed via the engine churn schedule is dead in the shared substrate
// network AND in every query's private network simultaneously — correlated
// failure over one deployment, not a per-query fiction.
func TestChurnFailureSharedEverywhere(t *testing.T) {
	victim := topology.NodeID(17)
	e := New(Options{Seed: 1, Churn: []ChurnEvent{{Epoch: 3, Node: victim}}})
	if _, err := e.Submit(QueryConfig{ID: "a", SQL: q1SQL(t)}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(QueryConfig{ID: "b", SQL: q2SQL(t), Algorithm: join.Base{}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		e.Step()
	}
	for _, q := range e.active {
		if !q.net.Alive(victim) {
			t.Fatalf("query %s sees node %d dead before its churn epoch", q.ID, victim)
		}
	}
	e.Step() // epoch 3: the failure applies
	if e.shared.Alive(victim) {
		t.Fatal("shared substrate network still sees the churned node alive")
	}
	if e.Liveness().Alive(victim) {
		t.Fatal("deployment liveness view still sees the churned node alive")
	}
	for _, q := range e.active {
		if q.net.Alive(victim) {
			t.Fatalf("query %s still sees churned node %d alive", q.ID, victim)
		}
	}
	rep := e.Run(10)
	if rep.FailedNodes != 1 {
		t.Fatalf("FailedNodes = %d, want 1", rep.FailedNodes)
	}
}

// TestChurnRecoveryRepairsAndFallsBack drives the full section 7 recovery
// through the engine: failing an intermediate node of a pair path must
// produce an in-network repair, failing a join node a base fallback, and
// results must keep flowing afterwards.
func TestChurnRecoveryRepairsAndFallsBack(t *testing.T) {
	probe := New(Options{Seed: 1})
	q, err := probe.Submit(QueryConfig{SQL: q2SQL(t)})
	if err != nil {
		t.Fatal(err)
	}
	probe.Run(12)
	res := q.Result()
	if len(res.PairPaths) == 0 {
		t.Fatal("probe run placed no in-network pairs")
	}
	// Victim 1: an intermediate hop (neither endpoint nor join node) of
	// the longest pair path. Victim 2: a join node of a different pair.
	var mid, joinNode topology.NodeID = -1, -1
	for i, p := range res.PairPaths {
		j := res.PairJoinNodes[i]
		for _, id := range p[1 : len(p)-1] {
			if id != j && mid < 0 {
				mid = id
			}
		}
		if mid >= 0 && j != mid {
			joinNode = j
		}
		if mid >= 0 && joinNode >= 0 && joinNode != mid {
			break
		}
	}
	if mid < 0 || joinNode < 0 {
		t.Fatal("could not pick churn victims from the probe run")
	}
	e := New(Options{Seed: 1, Churn: []ChurnEvent{
		{Epoch: 4, Node: mid},
		{Epoch: 7, Node: joinNode},
	}})
	if _, err := e.Submit(QueryConfig{SQL: q2SQL(t)}); err != nil {
		t.Fatal(err)
	}
	var failedSeen int
	e.OnEpoch = func(s EpochStats) { failedSeen += len(s.Failed) }
	rep := e.Run(25)
	if failedSeen != 2 || rep.FailedNodes != 2 {
		t.Fatalf("failed = (%d stream, %d report), want 2", failedSeen, rep.FailedNodes)
	}
	if rep.PathsRepaired < 1 {
		t.Fatalf("PathsRepaired = %d, want >= 1 (intermediate failure must repair in-network)", rep.PathsRepaired)
	}
	if rep.BaseFallbacks < 1 {
		t.Fatalf("BaseFallbacks = %d, want >= 1 (join-node failure must fall back)", rep.BaseFallbacks)
	}
	if rep.Results == 0 {
		t.Fatal("no results delivered despite recovery")
	}
	// Repair exploration is charged once, to the shared stream: shared
	// traffic must exceed a churn-free run's.
	quiet := New(Options{Seed: 1})
	if _, err := quiet.Submit(QueryConfig{SQL: q2SQL(t)}); err != nil {
		t.Fatal(err)
	}
	if qr := quiet.Run(25); rep.SharedBytes <= qr.SharedBytes {
		t.Fatalf("churn run shared=%d not above churn-free shared=%d (repair/rebuild traffic missing)",
			rep.SharedBytes, qr.SharedBytes)
	}
}

// TestChurnDeterminism: a churned run is still a pure function of
// (Options, submissions).
func TestChurnDeterminism(t *testing.T) {
	churn := SeededChurn(11, 100, 20, 0.01, 6)
	if len(churn) == 0 {
		t.Fatal("seeded schedule empty at rate 0.01 over 20 epochs")
	}
	mk := func() *Report {
		e := New(Options{Seed: 7, Churn: churn})
		if _, err := e.Submit(QueryConfig{SQL: q1SQL(t), Cycles: 18}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Submit(QueryConfig{SQL: q2SQL(t), AdmitAt: 2}); err != nil {
			t.Fatal(err)
		}
		return e.Run(20)
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("churned reports differ:\n%+v\n%+v", a, b)
	}
	// And the schedule generator itself is deterministic.
	if !reflect.DeepEqual(churn, SeededChurn(11, 100, 20, 0.01, 6)) {
		t.Fatal("SeededChurn not deterministic")
	}
}

// TestChurnRevive: a fail/revive pair leaves the node alive again, and the
// revival is visible everywhere at once.
func TestChurnRevive(t *testing.T) {
	victim := topology.NodeID(9)
	e := New(Options{Seed: 1, Churn: []ChurnEvent{
		{Epoch: 2, Node: victim},
		{Epoch: 5, Node: victim, Revive: true},
	}})
	if _, err := e.Submit(QueryConfig{SQL: q1SQL(t)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		e.Step()
	}
	if e.live.Alive(victim) {
		t.Fatal("victim alive mid-outage")
	}
	for i := 0; i < 4; i++ {
		e.Step()
	}
	if !e.live.Alive(victim) || !e.active[0].net.Alive(victim) {
		t.Fatal("revival not visible in all networks")
	}
	if rep := e.Report(); rep.FailedNodes != 1 {
		t.Fatalf("FailedNodes = %d, want 1", rep.FailedNodes)
	}
}

// TestChurnReroot: the churn schedule fails the root of substrate tree 1
// mid-run under a live In-Net and a live Base query. The tree re-roots
// through the same patch as any repair, the report is identical at one and
// two workers, and the In-Net query keeps delivering after the re-root.
func TestChurnReroot(t *testing.T) {
	root := New(Options{Seed: 1}).Sub.Trees[1].Root
	const failAt = 8
	run := func(workers int) (*Report, int) {
		e := New(Options{Seed: 1, Workers: workers, Churn: []ChurnEvent{{Epoch: failAt, Node: root}}})
		cmg := join.Innet{Opts: join.InnetOptions{Multicast: true, GroupOpt: true}}
		if _, err := e.Submit(QueryConfig{ID: "innet", SQL: q1SQL(t), Algorithm: cmg}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Submit(QueryConfig{ID: "base", SQL: q2SQL(t), Algorithm: join.Base{}}); err != nil {
			t.Fatal(err)
		}
		after := 0
		e.OnEpoch = func(s EpochStats) {
			if s.Epoch > failAt {
				after += s.NewResults["innet"]
			}
		}
		return e.Run(20), after
	}
	rep, after := run(1)
	if rep.FailedNodes != 1 {
		t.Fatalf("FailedNodes = %d, want 1", rep.FailedNodes)
	}
	if rep.TreesRebuilt <= rep.TreesPatched {
		t.Fatalf("TreesRebuilt = %d, TreesPatched = %d: failing tree 1's root %d re-rooted nothing",
			rep.TreesRebuilt, rep.TreesPatched, root)
	}
	if after == 0 {
		t.Fatal("the In-Net query delivered nothing after the re-root")
	}
	if par, _ := run(2); !reflect.DeepEqual(rep, par) {
		t.Fatalf("re-rooted run differs at 2 workers:\n%+v\n%+v", rep, par)
	}
}

// TestChurnRejectsBaseStation: the base never churns.
func TestChurnRejectsBaseStation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("churn schedule failing the base station did not panic")
		}
	}()
	New(Options{Churn: []ChurnEvent{{Epoch: 0, Node: topology.Base}}})
}

// TestNoChurnUnchanged: an empty schedule leaves the engine's behavior
// byte-identical to a schedule-free engine (the determinism-checksum
// guarantee for all pre-existing scenarios).
func TestNoChurnUnchanged(t *testing.T) {
	mk := func(churn []ChurnEvent) *Report {
		e := New(Options{Seed: 3, Churn: churn})
		if _, err := e.Submit(QueryConfig{SQL: q1SQL(t), Cycles: 15}); err != nil {
			t.Fatal(err)
		}
		return e.Run(15)
	}
	if !reflect.DeepEqual(mk(nil), mk([]ChurnEvent{})) {
		t.Fatal("empty churn schedule perturbed the run")
	}
}

// TestAllAlgorithmsContinuous: every algorithm the facade exposes can run
// under the scheduler.
func TestAllAlgorithmsContinuous(t *testing.T) {
	e := New(Options{Seed: 2})
	algs := []join.Continuous{
		join.Naive{}, join.Base{}, join.Yang07{},
		join.Innet{}, join.Innet{Opts: join.InnetOptions{Multicast: true, GroupOpt: true}},
	}
	for i, alg := range algs {
		if _, err := e.Submit(QueryConfig{SQL: q1SQL(t), Algorithm: alg, Cycles: 5, AdmitAt: i}); err != nil {
			t.Fatal(err)
		}
	}
	rep := e.Run(12)
	for _, q := range rep.Queries {
		if q.State != "retired" {
			t.Fatalf("query %s (%s) not retired", q.ID, q.Algorithm)
		}
	}
}
