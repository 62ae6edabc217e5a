package workload

import (
	"fmt"

	"repro/internal/query"
	"repro/internal/routing"
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
// Requirements: the query's dynamic join clauses may reference only the
// readings u and v (query.CompileDyn), and at least one primary routable
// predicate must exist — otherwise only the grouped algorithms could run
// it, and the caller should say so explicitly rather than silently
// flooding.
func SpecFromSQL(src string, topo *topology.Topology, nodes []NodeInfo, rates Rates) (*Spec, error) {
	schema := query.DefaultSchema()
	c, err := query.Compile(src, schema)
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

	// The static predicates are evaluated once per node or per candidate
	// pair on every exploration probe, so the bindings are two reusable
	// heap cells mutated in place rather than fresh values boxed into the
	// Binding interface on every call. A spec belongs to one query, and no
	// query's work ever runs on two goroutines at once, which makes the
	// reuse safe.
	pairCell := &PairBinding{}
	bindingFor := func(s, t topology.NodeID) query.Binding {
		pairCell.S, pairCell.T = &nodes[s], &nodes[t]
		return pairCell
	}
	selfCell := &PairBinding{}
	selfBinding := func(id topology.NodeID) query.Binding {
		selfCell.S, selfCell.T = &nodes[id], &nodes[id]
		return selfCell
	}

	// The substrate indexes the primary target attribute; values come from
	// the node statics through the same binding the evaluator uses.
	values := make([]int32, topo.N())
	for i := range values {
		values[i] = PairBinding{S: &nodes[i], T: &nodes[i]}.Value(query.T, primary.TargetAttr)
	}

	spec := &Spec{
		Name:  "SQL",
		W:     c.WindowSize,
		Nodes: nodes,
		EligibleS: func(id topology.NodeID) bool {
			return id != topology.Base && c.Parts.SelS.Eval(selfBinding(id))
		},
		EligibleT: func(id topology.NodeID) bool {
			return id != topology.Base && c.Parts.SelT.Eval(selfBinding(id))
		},
		PairMatch: func(s, t topology.NodeID) bool {
			return c.Parts.JoinStatic.Eval(bindingFor(s, t))
		},
		DynJoin: dyn,
		Indexes: []routing.IndexSpec{{
			Attr:   primary.TargetAttr,
			Kind:   routing.BloomSummary,
			Values: values,
		}},
		Rates: rates,
	}
	// Grouping: with a single primary equality the join groups are keyed
	// by the routing key; secondary clauses break transitivity, so
	// grouping is only exposed when none exist.
	if len(c.Secondary) == 0 && len(c.Parts.JoinStatic) == 1 {
		spec.GroupKeyS = func(id topology.NodeID) (int64, bool) {
			return int64(primary.SourceTerm.Eval(selfBinding(id))), true
		}
		spec.GroupKeyT = func(id topology.NodeID) (int64, bool) {
			return int64(values[id]), true
		}
	} else {
		spec.GroupKeyS = func(topology.NodeID) (int64, bool) { return 0, false }
		spec.GroupKeyT = func(topology.NodeID) (int64, bool) { return 0, false }
	}
	spec.SearchMatcher = func(s topology.NodeID, sub *routing.Substrate) routing.Matcher {
		key := primary.SourceTerm.Eval(selfBinding(s))
		col := sub.ColumnIndex(primary.TargetAttr)
		return &specMatcher{spec: spec, s: s, mayMatch: func(e routing.Entry) bool {
			return e.Scalar(col).MayContain(key)
		}}
	}
	return spec, nil
}
