package join

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/mpo"
	"repro/internal/query"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/workload"
)

// cliqueSpec is a symmetric self-join: the nodes of each class join every
// other node of the class (s < t), so every member is both an S and a T
// producer of its class's one group.
func cliqueSpec(nodes []workload.NodeInfo, classes [][]topology.NodeID, rates workload.Rates) *workload.Spec {
	class := map[topology.NodeID]int64{}
	for ci, members := range classes {
		for _, id := range members {
			class[id] = int64(ci) + 1
		}
	}
	member := func(id topology.NodeID) bool { return class[id] != 0 }
	key := func(id topology.NodeID) (int64, bool) { return class[id], true }
	spec := &workload.Spec{
		Name:      "clique",
		W:         3,
		Nodes:     nodes,
		EligibleS: member,
		EligibleT: member,
		PairMatch: func(s, t topology.NodeID) bool { return s < t && class[s] == class[t] },
		DynJoin:   query.Dyn{Kind: query.Eq},
		GroupKeyS: key,
		GroupKeyT: key,
		Rates:     rates,
	}
	spec.SearchMatcher = func(s topology.NodeID, _ *routing.Substrate) routing.Matcher {
		targets := map[topology.NodeID]bool{}
		for id := range class {
			if spec.PairMatch(s, id) {
				targets[id] = true
			}
		}
		return routing.MatchAll{Targets: targets}
	}
	return spec
}

// cliqueHarness is the workload both group-decision tests run: ten small
// cliques on 400 nodes, chosen (by search) so that one producer reaches
// one join node over two pairs at different hop distances.
func cliqueHarness() *harness {
	topo := topology.Generate(topology.ModerateRandom, 400, 2)
	nodes := workload.BuildNodes(topo, 1)
	classes := [][]topology.NodeID{
		{23, 103, 183, 263},
		{40, 120, 200, 280, 360},
		{57, 137, 217, 297},
		{74, 154, 234, 314, 394},
		{91, 171, 251, 331},
		{108, 188, 268, 348, 29},
		{125, 205, 285, 365},
		{142, 222, 302, 382, 63},
		{159, 239, 319, 399},
		{176, 256, 336, 17, 97},
	}
	rates := workload.Rates{SigmaS: 0.3, SigmaT: 0.3, SigmaST: 0.02}
	return &harness{topo: topo, nodes: nodes, spec: cliqueSpec(nodes, classes, rates), rates: rates}
}

// refProducerCosts is the map-backed assembly producerCosts replaced, kept
// as the reference: nested maps per producer and join node, first-noted
// D_pj wins, keys sorted afterwards.
func refProducerCosts(e *engine, group []*pairState, opt costmodel.Params) (costs []mpo.ProducerCost, conflicts int) {
	perProducer := map[producerKey]map[topology.NodeID]*costmodel.GroupJoinNode{}
	note := func(key producerKey, j topology.NodeID, dPJ int) {
		if perProducer[key] == nil {
			perProducer[key] = map[topology.NodeID]*costmodel.GroupJoinNode{}
		}
		n, ok := perProducer[key][j]
		if !ok {
			n = &costmodel.GroupJoinNode{DPJ: dPJ, DJR: e.cfg.Sub.DepthToBase(j)}
			perProducer[key][j] = n
		} else if n.DPJ != dPJ {
			conflicts++
		}
		n.NPJ++
	}
	for _, p := range group {
		if p.dead {
			continue
		}
		jIdx := p.jIdx
		if jIdx < 0 {
			depths := make([]int, len(p.path))
			for i, n := range p.path {
				depths[i] = e.cfg.Sub.DepthToBase(n)
			}
			if pl := costmodel.BestPlacement(e.placementParams(opt), depths); pl.AtBase {
				jIdx = len(p.path) / 2
			} else {
				jIdx = pl.Index
			}
		}
		note(producerKey{p.s, query.S}, p.path[jIdx], jIdx)
		note(producerKey{p.t, query.T}, p.path[jIdx], len(p.path)-1-jIdx)
	}
	keys := make([]producerKey, 0, len(perProducer))
	for key := range perProducer {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].id != keys[b].id {
			return keys[a].id < keys[b].id
		}
		return keys[a].role < keys[b].role
	})
	for _, key := range keys {
		sigma := opt.SigmaS
		if key.role == query.T {
			sigma = opt.SigmaT
		}
		pc := mpo.ProducerCost{Producer: key.id, SigmaP: sigma, DPR: e.cfg.Sub.DepthToBase(key.id)}
		js := make([]topology.NodeID, 0, len(perProducer[key]))
		for j := range perProducer[key] {
			js = append(js, j)
		}
		routing.SortNodeIDs(js)
		for _, j := range js {
			pc.JoinNodes = append(pc.JoinNodes, *perProducer[key][j])
		}
		costs = append(costs, pc)
	}
	return costs, conflicts
}

// TestProducerCostsMatchMapReference: the sort-and-fold assembly hands
// GROUPOPT exactly the producers, join nodes and counts the nested maps
// did — in the same order, which fixes the delta summation order and the
// coordination transfers' loss draws — on dual-role groups, on a producer
// with conflicting D_pj notes, with pairs at the base and with dead pairs,
// at initiation and while learning re-places pairs.
func TestProducerCostsMatchMapReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		h    *harness
	}{
		{"clique", cliqueHarness()},
		{"Q1", newHarness(t, "Q1", workload.Rates{SigmaS: 0.5, SigmaT: 0.2, SigmaST: 0.1})},
		{"Q2", newHarness(t, "Q2", workload.Rates{SigmaS: 0.2, SigmaT: 0.5, SigmaST: 0.1})},
	} {
		name, h := tc.name, tc.h
		cfg := h.config(40, 0)
		cfg.Adapt = true
		e := Innet{Opts: InnetOptions{Multicast: true, GroupOpt: true}}.Start(cfg).(*engine)
		dualRole, conflicts, compared := false, 0, 0
		compare := func(when string, opt costmodel.Params) {
			t.Helper()
			for gi, group := range e.groups {
				want, c := refProducerCosts(e, group, opt)
				conflicts += c
				got := e.producerCosts(group, opt)
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				compared++
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, %s, group %d:\n got  %+v\n want %+v", name, when, gi, got, want)
				}
			}
		}
		for _, p := range e.pairs {
			// p.t fills both roles when it is also some pair's s.
			dualRole = dualRole || slices.ContainsFunc(e.producers, func(ps *producerState) bool {
				return ps.key == producerKey{p.t, query.S}
			})
		}
		compare("after initiation", cfg.Opt)
		// Flipped estimates pull base pairs to hypothetical in-network
		// join nodes and move the rest.
		flipped := costmodel.Params{SigmaS: cfg.Opt.SigmaT, SigmaT: cfg.Opt.SigmaS, SigmaST: cfg.Opt.SigmaST / 4, W: cfg.Opt.W}
		compare("flipped estimates", flipped)
		for cycle := 0; cycle < 20; cycle++ {
			e.Step(cycle)
			e.Adapt(cycle)
		}
		compare("after learning", flipped)
		e.pairs[0].dead = true
		e.pairs[len(e.pairs)/2].dead = true
		compare("with dead pairs", cfg.Opt)
		if compared == 0 {
			t.Fatalf("%s: no group produced any producer cost", name)
		}
		if name == "clique" && (!dualRole || conflicts == 0) {
			t.Fatalf("clique workload lost its point: dual-role producer %v, conflicting D_pj notes %d", dualRole, conflicts)
		}
	}
}

// TestGroupDecisionPinned pins the grouped In-Net variants end to end, byte
// for byte, to what the map-backed groupDecision and the path-per-tree
// BestTreePath produced on the clique workload (whose order-sensitive
// properties TestProducerCostsMatchMapReference asserts).
func TestGroupDecisionPinned(t *testing.T) {
	h := cliqueHarness()
	for _, tc := range []struct {
		name          string
		opts          InnetOptions
		learn         bool
		loss          float64
		wrongEstimate bool
		want          string
	}{
		// Recorded at the commit before the dense groupDecision (PR 14).
		{name: "cmg", opts: InnetOptions{Multicast: true, GroupOpt: true},
			want: "bytes 1519551/1680019 msgs 57116/68572 results 157 migrations 0 pairs 6+74 join nodes [100 29 29 29 29 331]"},
		{name: "cmg lossy", opts: InnetOptions{Multicast: true, GroupOpt: true}, loss: 0.05,
			want: "bytes 1601052/1770654 msgs 60200/72308 results 157 migrations 0 pairs 6+74 join nodes [100 29 29 29 29 331]"},
		{name: "cmg learn oracle", opts: InnetOptions{Multicast: true, GroupOpt: true}, learn: true,
			want: "bytes 1519551/1830625 msgs 57116/78948 results 151 migrations 106 pairs 0+80 join nodes []"},
		{name: "cmg learn", opts: InnetOptions{Multicast: true, GroupOpt: true}, learn: true, wrongEstimate: true,
			want: "bytes 1509835/1820815 msgs 56422/78270 results 151 migrations 100 pairs 0+80 join nodes []"},
		{name: "cmg learn lossy", opts: InnetOptions{Multicast: true, GroupOpt: true}, learn: true, loss: 0.05, wrongEstimate: true,
			want: "bytes 1590806/1919056 msgs 59473/82530 results 151 migrations 100 pairs 0+80 join nodes []"},
	} {
		cfg := h.config(60, tc.loss)
		cfg.Adapt = tc.learn
		if tc.wrongEstimate {
			cfg.Opt = costmodel.Params{SigmaS: 1, SigmaT: 0.05, SigmaST: 0.9, W: h.spec.W}
		}
		r := drive(Innet{Opts: tc.opts}, cfg)
		got := fmt.Sprintf("bytes %d/%d msgs %d/%d results %d migrations %d pairs %d+%d join nodes %v",
			r.InitBytes, r.TotalBytes, r.InitMessages, r.TotalMessages, r.Results, r.Migrations,
			r.InNetPairs, r.AtBasePairs, r.PairJoinNodes)
		if got != tc.want {
			t.Errorf("%s:\n got  %s\n want %s", tc.name, got, tc.want)
		}
	}
}
