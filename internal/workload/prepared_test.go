package workload_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/query"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TestSpecFromSQLMatchesInterpreter checks every engine pool text, and one
// without selections (where only the base-station exclusion keeps node 0
// from producing), exhaustively on a 100-node deployment: the compiled
// eligibility, pair predicate and group keys agree with the interpreter at
// every node and every pair, and a search keyed by the compiled routing
// key finds exactly the targets the interpreter names (the Bloom summaries
// prune on that key, so a wrong key loses targets).
func TestSpecFromSQLMatchesInterpreter(t *testing.T) {
	topo := topology.Generate(topology.ModerateRandom, 100, 1)
	nodes := workload.BuildNodes(topo, 1)
	n := topo.N()
	texts := append(bench.EngineSQL[:len(bench.EngineSQL):len(bench.EngineSQL)],
		"SELECT S.id, T.id FROM S, T [windowsize=1 sampleinterval=100] WHERE S.x = T.y + 5 AND S.u = T.u")
	for qi, src := range texts {
		c, err := query.Compile(src, query.DefaultSchema())
		if err != nil {
			t.Fatal(err)
		}
		spec, err := workload.SpecFromSQL(src, topo, nodes, workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		primary := c.Primary[0]
		grouped := len(c.Secondary) == 0 && len(c.Parts.JoinStatic) == 1
		for i := 0; i < n; i++ {
			id := topology.NodeID(i)
			self := workload.PairBinding{Topo: topo, Nodes: nodes, S: id, T: id}
			if want := id != topology.Base && c.Parts.SelS.Eval(self); spec.EligibleS(id) != want {
				t.Fatalf("query %d, node %d: EligibleS %v, interpreter %v", qi, i, !want, want)
			}
			if want := id != topology.Base && c.Parts.SelT.Eval(self); spec.EligibleT(id) != want {
				t.Fatalf("query %d, node %d: EligibleT %v, interpreter %v", qi, i, !want, want)
			}
			ks, okS := spec.GroupKeyS(id)
			kt, okT := spec.GroupKeyT(id)
			if okS != grouped || okT != grouped {
				t.Fatalf("query %d: group keys offered %v/%v, want %v", qi, okS, okT, grouped)
			}
			if grouped && (ks != int64(primary.SourceTerm.Eval(self)) || kt != int64(self.Value(query.T, primary.TargetAttr))) {
				t.Fatalf("query %d, node %d: group keys %d/%d disagree with the interpreter", qi, i, ks, kt)
			}
			for j := 0; j < n; j++ {
				pair := workload.PairBinding{Topo: topo, Nodes: nodes, S: id, T: topology.NodeID(j)}
				if want := c.Parts.JoinStatic.Eval(pair); spec.PairMatch(id, topology.NodeID(j)) != want {
					t.Fatalf("query %d, pair (%d, %d): PairMatch %v, interpreter %v", qi, i, j, !want, want)
				}
			}
		}
		if g := spec.Groups(); len(g) == 0 || &spec.Groups()[0] != &g[0] {
			t.Fatalf("query %d: %d groups, recomputed on the second call", qi, len(g))
		}
		sub := routing.NewSubstrate(topo, routing.Options{NumTrees: 3, Indexes: spec.Indexes}, nil)
		for i := 0; i < n; i++ {
			s := topology.NodeID(i)
			if !spec.EligibleS(s) {
				continue
			}
			found := sub.FindTargets(s, spec.SearchMatcher(s, sub), nil)
			want := 0
			for j := 0; j < n; j++ {
				tt := topology.NodeID(j)
				pair := workload.PairBinding{Topo: topo, Nodes: nodes, S: s, T: tt}
				if tt == s || tt == topology.Base || !c.Parts.SelT.Eval(pair) || !c.Parts.JoinStatic.Eval(pair) {
					continue
				}
				want++
				if _, ok := found[tt]; !ok {
					t.Fatalf("query %d: the search from %d misses target %d", qi, i, j)
				}
			}
			if len(found) != want {
				t.Fatalf("query %d: the search from %d finds %d targets, the interpreter %d", qi, i, len(found), want)
			}
		}
	}
}
