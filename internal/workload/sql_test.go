package workload

import (
	"testing"

	"repro/internal/query"
	"repro/internal/routing"
	"repro/internal/topology"
)

// compileText compiles a Table 2 query text against the default schema.
func compileText(name string) (*query.Compiled, error) {
	src, _ := QueryText(name)
	return query.Compile(src, query.DefaultSchema())
}

func TestQueryTextsParse(t *testing.T) {
	for _, name := range []string{"Q0", "Q1", "Q2", "Q3"} {
		c, err := compileText(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c == nil {
			t.Fatalf("%s: nil compilation", name)
		}
	}
	if _, ok := QueryText("Q9"); ok {
		t.Fatal("QueryText claims Q9 exists")
	}
}

func TestQ1TextMatchesCompiledSpec(t *testing.T) {
	// The SQL pipeline and the hand-built Spec must agree on (a) window
	// size, (b) eligibility, (c) the static pair predicate, and (d) the
	// routing key — i.e. the text IS the query the engines run.
	topo := topology.Generate(topology.ModerateRandom, 100, 1)
	nodes := BuildNodes(topo, 1)
	spec := Query1(topo, nodes, Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1})
	c, err := compileText("Q1")
	if err != nil {
		t.Fatal(err)
	}
	if c.WindowSize != spec.W {
		t.Fatalf("window %d vs spec %d", c.WindowSize, spec.W)
	}
	if len(c.Primary) != 1 || c.Primary[0].TargetAttr != "y" {
		t.Fatalf("primary = %+v", c.Primary)
	}
	for i := 0; i < topo.N(); i++ {
		id := topology.NodeID(i)
		b := PairBinding{Topo: topo, Nodes: nodes, S: id, T: id}
		// (b) static selections agree with Spec eligibility (modulo the
		// Spec's extra base-station exclusion on the S side).
		selS := c.Parts.SelS.Eval(b)
		if id != topology.Base && selS != spec.EligibleS(id) {
			t.Fatalf("node %d: SQL SelS=%v, spec=%v", i, selS, spec.EligibleS(id))
		}
		if c.Parts.SelT.Eval(b) != spec.EligibleT(id) {
			t.Fatalf("node %d: SelT disagrees", i)
		}
	}
	// (c) pair predicate and (d) routing key on sampled pairs.
	for s := 1; s < topo.N(); s += 3 {
		for tt := 1; tt < topo.N(); tt += 7 {
			if s == tt {
				continue
			}
			b := PairBinding{Topo: topo, Nodes: nodes, S: topology.NodeID(s), T: topology.NodeID(tt)}
			if c.Parts.JoinStatic.Eval(b) != spec.PairMatch(topology.NodeID(s), topology.NodeID(tt)) {
				t.Fatalf("pair (%d,%d): static join disagrees", s, tt)
			}
		}
		key := c.Primary[0].SourceTerm.Eval(PairBinding{Topo: topo, Nodes: nodes, S: topology.NodeID(s), T: topology.NodeID(s)})
		if want := int32(nodes[s].X) - 5; key != want {
			t.Fatalf("node %d: SQL routing key %d, spec key %d", s, key, want)
		}
	}
}

func TestQ2TextMatchesCompiledSpec(t *testing.T) {
	topo := topology.Generate(topology.ModerateRandom, 100, 1)
	nodes := BuildNodes(topo, 1)
	spec := Query2(topo, nodes, Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1})
	c, err := compileText("Q2")
	if err != nil {
		t.Fatal(err)
	}
	if c.WindowSize != 1 || c.WindowSize != spec.W {
		t.Fatal("window size")
	}
	if len(c.Primary) != 1 || c.Primary[0].TargetAttr != "cid" {
		t.Fatalf("primary = %+v", c.Primary)
	}
	if len(c.Secondary) != 1 {
		t.Fatalf("secondary = %v", c.Secondary)
	}
	full := append(query.CNF{}, c.Parts.JoinStatic...)
	for s := 1; s < topo.N(); s += 2 {
		for tt := 2; tt < topo.N(); tt += 5 {
			if s == tt {
				continue
			}
			b := PairBinding{Topo: topo, Nodes: nodes, S: topology.NodeID(s), T: topology.NodeID(tt)}
			if full.Eval(b) != spec.PairMatch(topology.NodeID(s), topology.NodeID(tt)) {
				t.Fatalf("pair (%d,%d): join disagrees", s, tt)
			}
		}
	}
}

func TestQ3TextDynamicPredicateMatchesSpec(t *testing.T) {
	topo := topology.Generate(topology.Intel, 0, 0)
	nodes := BuildNodes(topo, 1)
	spec := Query3(topo, nodes, Rates{SigmaS: 1, SigmaT: 1, SigmaST: 0.2})
	c, err := compileText("Q3")
	if err != nil {
		t.Fatal(err)
	}
	for _, vals := range [][2]int32{{0, 500}, {0, 1000}, {0, 1001}, {5000, 3999}, {3000, 3000}} {
		b := PairBinding{Topo: topo, Nodes: nodes, S: 1, T: 2, SU: vals[0], TU: vals[1], HasDyn: true}
		if c.Parts.JoinDynamic.Eval(b) != spec.DynJoin.Eval(vals[0], vals[1]) {
			t.Fatalf("dyn join disagrees at %v", vals)
		}
	}
}

func TestSpecFromSQLMatchesQuery1(t *testing.T) {
	topo := topology.Generate(topology.ModerateRandom, 100, 1)
	nodes := BuildNodes(topo, 1)
	rates := Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1}
	hand := Query1(topo, nodes, rates)
	src, _ := QueryText("Q1")
	sql, err := SpecFromSQL(src, topo, nodes, rates)
	if err != nil {
		t.Fatal(err)
	}
	if sql.W != hand.W {
		t.Fatalf("W: %d vs %d", sql.W, hand.W)
	}
	for i := 0; i < topo.N(); i++ {
		id := topology.NodeID(i)
		if sql.EligibleS(id) != hand.EligibleS(id) || sql.EligibleT(id) != hand.EligibleT(id) {
			t.Fatalf("eligibility differs at node %d", i)
		}
	}
	// Groups must be identical pair sets.
	pairSet := func(s *Spec) map[[2]topology.NodeID]bool {
		out := map[[2]topology.NodeID]bool{}
		for _, g := range s.Groups() {
			for _, p := range g.Pairs {
				out[p] = true
			}
		}
		return out
	}
	hp, sp := pairSet(hand), pairSet(sql)
	if len(hp) != len(sp) {
		t.Fatalf("pair count: hand %d vs sql %d", len(hp), len(sp))
	}
	for p := range hp {
		if !sp[p] {
			t.Fatalf("sql spec missing pair %v", p)
		}
	}
	// Dynamic join agreement.
	for _, v := range [][2]int32{{1, 1}, {1, 2}, {0, 0}} {
		if sql.DynJoin.Eval(v[0], v[1]) != hand.DynJoin.Eval(v[0], v[1]) {
			t.Fatalf("dyn join differs at %v", v)
		}
	}
}

func TestSpecFromSQLRunsEndToEnd(t *testing.T) {
	// The SQL-built spec must execute and deliver the same results as the
	// hand-built spec under every shared-order engine.
	topo := topology.Generate(topology.ModerateRandom, 100, 1)
	nodes := BuildNodes(topo, 1)
	rates := Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.2}
	src, _ := QueryText("Q1")
	sql, err := SpecFromSQL(src, topo, nodes, rates)
	if err != nil {
		t.Fatal(err)
	}
	sub := routing.NewSubstrate(topo, routing.Options{NumTrees: 3, Indexes: sql.Indexes}, nil)
	for i := 0; i < topo.N(); i++ {
		s := topology.NodeID(i)
		if !sql.EligibleS(s) {
			continue
		}
		found := sub.FindTargets(s, sql.SearchMatcher(s, sub), nil)
		want := 0
		for j := 0; j < topo.N(); j++ {
			tt := topology.NodeID(j)
			if tt != s && sql.EligibleT(tt) && sql.PairMatch(s, tt) {
				want++
			}
		}
		if len(found) != want {
			t.Fatalf("sql spec search from %d found %d, want %d", s, len(found), want)
		}
	}
}

func TestSpecFromSQLRejectsUnroutable(t *testing.T) {
	topo := topology.Generate(topology.Grid, 16, 1)
	nodes := BuildNodes(topo, 1)
	// Inequality join: no routable primary.
	if _, err := SpecFromSQL("SELECT S.id FROM S, T WHERE S.id < T.id AND S.u = T.u",
		topo, nodes, Rates{}); err == nil {
		t.Fatal("unroutable query accepted")
	}
	// Syntax error propagates.
	if _, err := SpecFromSQL("SELEC", topo, nodes, Rates{}); err == nil {
		t.Fatal("syntax error swallowed")
	}
}
