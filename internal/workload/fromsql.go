package workload

import (
	"fmt"

	"repro/internal/query"
	"repro/internal/routing"
	"repro/internal/summary"
	"repro/internal/topology"
)

// SpecFromSQL builds an executable Spec from a StreamSQL query text: the
// full Appendix B pipeline — parse, CNF, classify, pattern-match — wired
// to the node attributes, with the primary routable predicate driving both
// the substrate index and the exploration matcher. This is the path a
// query posed at the base station takes; the hand-built constructors
// (Query1, Query2, ...) are its pre-compiled equivalents, and the tests
// assert they agree.
//
// Like the paper's base station, it pre-processes the query once: the
// static selections, the static join clauses and the primary routing key
// compile against the deployment's node attributes (NodeColumns), and the
// per-node selections — eligibility — are evaluated here for every node.
// The routing key and the indexed target attribute are read through their
// compiled terms, not copied. Nothing is interpreted afterwards, and the
// Spec holds no mutable state.
//
// Requirements: every static clause may reference only attributes a node
// carries (NodeColumns), the query's dynamic join clauses only the readings
// u and v (query.CompileDyn), and at least one primary routable predicate
// must exist — otherwise only the grouped algorithms could run it, and the
// caller should say so explicitly rather than silently flooding.
func SpecFromSQL(src string, topo *topology.Topology, nodes []NodeInfo, rates Rates) (*Spec, error) {
	c, err := query.Compile(src, query.DefaultSchema())
	if err != nil {
		return nil, err
	}
	if len(c.Primary) == 0 {
		return nil, fmt.Errorf("workload: query has no routable join predicate; only join-at-base strategies apply")
	}
	primary := c.Primary[0]
	dyn, err := query.CompileDyn(c.Parts.JoinDynamic)
	if err != nil {
		return nil, err
	}
	col := NodeColumns(topo, nodes)
	var preds [3]func(s, t int32) bool
	for i, f := range []query.CNF{c.Parts.SelS, c.Parts.SelT, c.Parts.JoinStatic} {
		if preds[i], err = query.CompilePair(f, col); err != nil {
			return nil, err
		}
	}
	selS, selT, pairMatch := preds[0], preds[1], preds[2]
	// The routing key: the S side's source term, sought in the T side's
	// indexed target attribute.
	var terms [2]func(s, t int32) int32
	for i, term := range []query.Term{primary.SourceTerm, query.Attr{Rel: query.T, Attr: primary.TargetAttr}} {
		if terms[i], err = query.CompileTerm(term, col); err != nil {
			return nil, err
		}
	}
	n := topo.N()
	eligS, eligT := make([]bool, n), make([]bool, n)
	for i := range n {
		id := int32(i)
		base := topology.NodeID(i) == topology.Base // the base station never produces
		eligS[i] = !base && selS(id, id)
		eligT[i] = !base && selT(id, id)
	}
	key := func(id topology.NodeID) int32 { return terms[0](int32(id), int32(id)) }
	value := func(id topology.NodeID) int32 { return terms[1](int32(id), int32(id)) }

	spec := &Spec{
		Name:      "SQL",
		W:         c.WindowSize,
		Nodes:     nodes,
		EligibleS: func(id topology.NodeID) bool { return eligS[id] },
		EligibleT: func(id topology.NodeID) bool { return eligT[id] },
		PairMatch: func(s, t topology.NodeID) bool { return pairMatch(int32(s), int32(t)) },
		DynJoin:   dyn,
		Indexes: []routing.IndexSpec{{
			Attr:  primary.TargetAttr,
			Kind:  routing.BloomSummary,
			Value: value,
		}},
		Rates: rates,
	}
	// Grouping: with a single primary equality the join groups are keyed
	// by the routing key; secondary clauses break transitivity, so
	// grouping is only exposed when none exist.
	if len(c.Secondary) == 0 && len(c.Parts.JoinStatic) == 1 {
		spec.GroupKeyS = func(id topology.NodeID) (int64, bool) { return int64(key(id)), true }
		spec.GroupKeyT = func(id topology.NodeID) (int64, bool) { return int64(value(id)), true }
	} else {
		spec.GroupKeyS = func(topology.NodeID) (int64, bool) { return 0, false }
		spec.GroupKeyT = func(topology.NodeID) (int64, bool) { return 0, false }
	}
	spec.SearchMatcher = func(s topology.NodeID, sub *routing.Substrate) routing.Matcher {
		want := summary.NewKey(key(s))
		col := sub.ColumnIndex(primary.TargetAttr)
		return &specMatcher{spec: spec, s: s, mayMatch: func(e routing.Entry) bool {
			return e.MayContain(col, want)
		}}
	}
	return spec, nil
}
