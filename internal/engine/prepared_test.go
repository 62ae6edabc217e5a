package engine

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dht"
	"repro/internal/ght"
	"repro/internal/join"
	"repro/internal/workload"
)

// TestWorkersSharePreparedSpec: Submit compiles a SQL text once per engine
// and rates, and the queries sharing that one Spec — every algorithm,
// stepped on parallel workers — run exactly as queries that each hold a
// fresh compile of the text.
func TestWorkersSharePreparedSpec(t *testing.T) {
	rates := workload.Rates{SigmaS: 0.4, SigmaT: 0.6, SigmaST: 0.1}
	e := New(Options{Seed: 5})
	submit := func(sql string, r workload.Rates) *workload.Spec {
		t.Helper()
		q, err := e.Submit(QueryConfig{SQL: sql, Rates: r})
		if err != nil {
			t.Fatal(err)
		}
		return q.spec
	}
	first := submit(q1SQL(t), rates)
	if submit(q1SQL(t), rates) != first {
		t.Fatal("the same text at the same rates compiled twice")
	}
	if submit(q1SQL(t), workload.Rates{SigmaS: 0.6, SigmaT: 0.4, SigmaST: 0.1}) == first {
		t.Fatal("the same text at other rates shares the first rates' Spec")
	}
	if submit(q2SQL(t), rates) == first {
		t.Fatal("another text shares the first text's Spec")
	}

	run := func(workers int, fresh bool) *Report {
		t.Helper()
		e := New(Options{Seed: 5, Workers: workers})
		algs := []join.Continuous{
			join.Innet{Opts: join.InnetOptions{Multicast: true, GroupOpt: true}},
			join.Innet{},
			join.Base{},
			join.Naive{},
			join.Yang07{},
			join.Hashed{Label: "GHT", Router: ght.NewRouter(e.Topo)},
			join.Hashed{Label: "DHT", Router: dht.NewRing(e.Topo)},
			join.Innet{Opts: join.InnetOptions{Multicast: true}},
		}
		var shared *workload.Spec
		for i, alg := range algs {
			qc := QueryConfig{ID: fmt.Sprintf("q%d", i), Algorithm: alg, Cycles: 6 + i, AdmitAt: i % 3}
			if fresh {
				spec, err := workload.SpecFromSQL(q1SQL(t), e.Topo, e.Nodes, rates)
				if err != nil {
					t.Fatal(err)
				}
				qc.Spec = spec
			} else {
				qc.SQL, qc.Rates = q1SQL(t), rates
			}
			q, err := e.Submit(qc)
			if err != nil {
				t.Fatal(err)
			}
			if shared == nil {
				shared = q.spec
			}
			if (q.spec == shared) == fresh && i > 0 {
				t.Fatalf("query %d: shares the first query's Spec %v, want %v", i, fresh, !fresh)
			}
		}
		return e.Run(16)
	}
	want := run(1, true)
	if want.Results == 0 {
		t.Fatal("the fresh-spec run delivered nothing to compare")
	}
	for _, workers := range []int{1, 2} {
		if got := run(workers, false); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: one shared Spec reports\n%+v\nfresh specs\n%+v", workers, got, want)
		}
	}
}

// TestPreparedSpecLeavesWithItsLastQuery: a prepared Spec is shared while
// any query submitted with its text and rates is unretired, and leaves the
// engine with the last of them, so a later submission compiles the text
// again. A query that brings its own Spec prepares nothing.
func TestPreparedSpecLeavesWithItsLastQuery(t *testing.T) {
	e := New(Options{Seed: 5})
	submit := func(qc QueryConfig) *Query {
		t.Helper()
		q, err := e.Submit(qc)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	a := submit(QueryConfig{ID: "a", SQL: q1SQL(t), Cycles: 1})
	b := submit(QueryConfig{ID: "b", SQL: q1SQL(t), Cycles: 3})
	spec := a.spec
	submit(QueryConfig{ID: "own", Spec: workload.Query1(e.Topo, e.Nodes, workload.DefaultRates), Cycles: 3})
	e.Step()
	if a.State() != Retired || b.State() != Live {
		t.Fatalf("after one epoch: a %v, b %v; want retired, live", a.State(), b.State())
	}
	if c := submit(QueryConfig{ID: "c", SQL: q1SQL(t), Cycles: 1}); c.spec != spec {
		t.Fatal("a query submitted while b is live compiled the text again")
	}
	for e.Step() {
	}
	if len(e.prepared) != 0 || len(e.specUses) != 0 {
		t.Fatalf("every query retired, yet %d Specs stay prepared (%d counted)", len(e.prepared), len(e.specUses))
	}
	if d := submit(QueryConfig{ID: "d", SQL: q1SQL(t), Cycles: 1}); d.spec == spec {
		t.Fatal("a query submitted after every sharer retired got the retired Spec")
	}
}
