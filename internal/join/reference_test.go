package join

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/window"
	"repro/internal/workload"
)

// turn is one producer's reading in a cycle: the node, the role it samples
// as, and whether the one reading serves both roles (a node filling both
// under Naive and Base).
type turn struct {
	id   topology.NodeID
	role query.Rel
	both bool
}

// turnOrder is alg's cycle order over spec's producers, taken from the
// algorithm's definition (DESIGN.md, "One join kernel"), not from its
// route table: node order for Naive (every eligible producer), Base (the
// producers in some pair) and In-Net (the pairs' producers, by ID then
// role); targets and then sources for Yang+07; group by group, S members
// before T members, for the hashed substrates.
func turnOrder(alg Continuous, spec *workload.Spec, n int) []turn {
	var turns []turn
	var inPair [2]map[topology.NodeID]bool
	inPair[query.S], inPair[query.T] = map[topology.NodeID]bool{}, map[topology.NodeID]bool{}
	for _, pr := range specPairs(spec) {
		inPair[query.S][pr[0]], inPair[query.T][pr[1]] = true, true
	}
	byNode := func(participants bool) {
		for i := 0; i < n; i++ {
			id := topology.NodeID(i)
			if participants && !inPair[query.S][id] && !inPair[query.T][id] {
				continue
			}
			switch s, t := spec.EligibleS(id), spec.EligibleT(id); {
			case s && t:
				turns = append(turns, turn{id, query.S, true})
			case s:
				turns = append(turns, turn{id, query.S, false})
			case t:
				turns = append(turns, turn{id, query.T, false})
			}
		}
	}
	switch alg.(type) {
	case Naive:
		byNode(false)
	case Base:
		byNode(true)
	case Yang07:
		for _, role := range []query.Rel{query.T, query.S} {
			for _, id := range slices.Sorted(maps.Keys(inPair[role])) {
				turns = append(turns, turn{id, role, false})
			}
		}
	case Hashed:
		for _, g := range spec.Groups() {
			for role, ids := range [2][]topology.NodeID{g.S, g.T} {
				for _, id := range ids {
					turns = append(turns, turn{id, query.Rel(role), false})
				}
			}
		}
	default:
		for i := 0; i < n; i++ {
			for _, role := range []query.Rel{query.S, query.T} {
				if inPair[role][topology.NodeID(i)] {
					turns = append(turns, turn{topology.NodeID(i), role, false})
				}
			}
		}
	}
	return turns
}

// specPairs lists spec's pairs once each, in group order.
func specPairs(spec *workload.Spec) [][2]topology.NodeID {
	var pairs [][2]topology.NodeID
	for _, g := range spec.Groups() {
		for _, pr := range g.Pairs {
			if !slices.Contains(pairs, pr) {
				pairs = append(pairs, pr)
			}
		}
	}
	return pairs
}

// referenceJoin is the network-free ground truth of a lossless run of
// spec: a nested-loop join over the spec's pairs and sampler's readings
// for cycles sampling cycles, with no routes, sites or window.State. Each
// producer keeps a FIFO of its last w sent readings, one window for all
// its pairs. Every cycle the producers take the turns of turns in order:
// each samples one reading, joins it against the window of every partner
// in its role (in both roles for a both turn), and only then buffers it.
// visit, when set, sees every turn with whether its producer sent and the
// matches it made, valid until the next call. It returns the matches as
// the recorder tallies them.
func referenceJoin(spec *workload.Spec, sampler workload.Sampler, cycles int, turns []turn, visit func(cycle int, tu turn, sent bool, ms []window.Match)) tally {
	pairs := specPairs(spec)
	win := map[topology.NodeID][]window.Tuple{}
	var out tally
	var ms []window.Match
	for cycle := 0; cycle < cycles; cycle++ {
		for _, tu := range turns {
			v, ok := sampler.Sample(tu.id, tu.role, cycle)
			ms = ms[:0]
			for _, pr := range pairs {
				if !ok {
					break
				}
				if pr[0] == tu.id && (tu.both || tu.role == query.S) {
					for _, old := range win[pr[1]] {
						if spec.DynJoin.Eval(v, old.Value) {
							ms = append(ms, window.Match{S: tu.id, T: pr[1], SV: v, TV: old.Value, Cycle: cycle, OldCycle: old.Cycle})
						}
					}
				}
				if pr[1] == tu.id && (tu.both || tu.role == query.T) {
					for _, old := range win[pr[0]] {
						if spec.DynJoin.Eval(old.Value, v) {
							ms = append(ms, window.Match{S: pr[0], T: tu.id, SV: old.Value, TV: v, Cycle: cycle, OldCycle: old.Cycle})
						}
					}
				}
			}
			if visit != nil {
				visit(cycle, tu, ok, ms)
			}
			if !ok {
				continue
			}
			out.add(ms)
			if w := append(win[tu.id], window.Tuple{Producer: tu.id, Value: v, Cycle: cycle}); len(w) > spec.W {
				win[tu.id] = w[1:]
			} else {
				win[tu.id] = w
			}
		}
	}
	return out
}

// table3 is one algorithm's row of Table 3 (Appendix D) in realized
// quantities, built from what the algorithm is defined by and never from
// its route table: hops is the hop term one sent reading of a turn
// travels, joinAt names the node where pair (s, t) joins and its join
// site's key (sites at the base cost nothing), and perArrival says the
// algorithm ships a site's batch after every arrival at it (Yang+07), not
// once a cycle. merged charges Appendix E's packets instead of hops.
type table3 struct {
	hops       func(tu turn) int
	joinAt     func(s, t topology.NodeID) (j topology.NodeID, site int)
	perArrival bool
	merged     bool
}

// table3Row builds alg's row over st, the stepper alg.Start returned on
// cfg. Naive and Base pay D_sr; Yang+07 a source's D_sr plus D_tr for each
// of its targets; GHT/DHT the routed hops to the group's home node;
// In-Net, per producer, D_sj or D_tj for each distinct join node (the
// first of its pairs joined there), or its multicast tree's edge count,
// plus D_sr when some pair joins at the base.
func table3Row(alg Continuous, st Stepper, cfg *Config) table3 {
	depth := cfg.Sub.DepthToBase
	atBase := func(s, t topology.NodeID) (topology.NodeID, int) { return topology.Base, 0 }
	switch a := alg.(type) {
	case Naive:
		return table3{hops: func(tu turn) int { return depth(tu.id) }, joinAt: atBase, merged: a.Merge}
	case Base:
		return table3{hops: func(tu turn) int { return depth(tu.id) }, joinAt: atBase, merged: a.Merge}
	case Yang07:
		pairs := specPairs(cfg.Spec)
		return table3{
			hops: func(tu turn) int {
				if tu.role == query.T {
					return 0
				}
				h := depth(tu.id)
				for _, pr := range pairs {
					if pr[0] == tu.id {
						h += depth(pr[1])
					}
				}
				return h
			},
			joinAt:     func(s, t topology.NodeID) (topology.NodeID, int) { return t, int(t) },
			perArrival: true,
		}
	case Hashed:
		groups := cfg.Spec.Groups()
		home := func(g int) topology.NodeID { return a.Router.HomeNode(int32(groups[g].Key ^ (groups[g].Key >> 31))) }
		member := map[turn]int{} // each member's group
		for g := range groups {
			for role, ids := range [2][]topology.NodeID{groups[g].S, groups[g].T} {
				for _, id := range ids {
					member[turn{id, query.Rel(role), false}] = g
				}
			}
		}
		return table3{
			hops: func(tu turn) int { return len(a.Router.Route(tu.id, home(member[tu]))) - 1 },
			joinAt: func(s, t topology.NodeID) (topology.NodeID, int) {
				g := member[turn{s, query.S, false}]
				return home(g), g
			},
		}
	}
	e := st.(*engine)
	pairOf := func(s, t topology.NodeID) *pairState {
		for _, p := range e.pairs {
			if p.s == s && p.t == t {
				return p
			}
		}
		panic("no such pair")
	}
	return table3{
		hops: func(tu turn) int {
			h, base := 0, false
			var seen []topology.NodeID
			for _, p := range e.pairs {
				if tu.role == query.S && p.s != tu.id || tu.role == query.T && p.t != tu.id {
					continue
				}
				j := p.joinNode()
				switch {
				case p.jIdx < 0:
					base = true
				case e.opts.Multicast || slices.Contains(seen, j):
				default:
					seen = append(seen, j)
					if tu.role == query.S {
						h += p.jIdx
					} else {
						h += len(p.path) - 1 - p.jIdx
					}
				}
			}
			if e.opts.Multicast {
				for _, ps := range e.producers {
					if ps.key == (producerKey{tu.id, tu.role}) && ps.tree != nil {
						h += ps.tree.Edges()
					}
				}
			}
			if base {
				h += depth(tu.id)
			}
			return h
		},
		joinAt: func(s, t topology.NodeID) (topology.NodeID, int) {
			j := pairOf(s, t).joinNode()
			return j, int(j)
		},
	}
}

// charges returns what row says a lossless, fault-free run of cycles
// sampling cycles over turns sends, in bytes of each kind: data, and
// results shipped to the base. Data is (HeaderBytes + TupleBytes) per hop
// of every sent reading; merged, it is one packet per tree edge a cycle's
// readings cross, HeaderBytes + c*TupleBytes for the c readings that cross
// it. Results are ResultBytes per hop from the join node to the base for
// each match, plus HeaderBytes per hop for each batch: one per join site
// and cycle, or per arrival when row ships every arrival.
func (row table3) charges(cfg *Config, turns []turn) (data, result int64) {
	tree := cfg.Sub.Trees[0]
	count := make([]int64, cfg.Topo.N()) // merged: readings crossing each node's up edge this cycle
	batch := map[int]bool{}              // the sites with a batch this cycle
	cur := 0
	endCycle := func() {
		for n, c := range count {
			if c > 0 {
				data += sim.HeaderBytes + c*sim.TupleBytes
				count[n] = 0
			}
		}
		clear(batch)
	}
	referenceJoin(cfg.Spec, cfg.Sampler, cfg.Cycles, turns, func(cycle int, tu turn, sent bool, ms []window.Match) {
		if cycle != cur {
			endCycle()
			cur = cycle
		}
		if !sent {
			return
		}
		if row.merged {
			for n := tu.id; n != tree.Root; n = tree.Parent[n] {
				count[n]++
			}
		} else {
			data += int64(row.hops(tu)) * (sim.HeaderBytes + sim.TupleBytes)
		}
		if row.perArrival {
			clear(batch)
		}
		for _, m := range ms {
			j, site := row.joinAt(m.S, m.T)
			d := int64(cfg.Sub.DepthToBase(j))
			result += d * sim.ResultBytes
			if !batch[site] {
				batch[site] = true
				result += d * sim.HeaderBytes
			}
		}
	})
	endCycle()
	return data, result
}

// TestTable3Identity checks Table 3's hop terms as an exact identity on
// every algorithm whose placement holds still (the learning variants move
// join nodes mid-run; TestAllAlgorithmsDeliverIdenticalResults covers
// them): on a lossless, fault-free network each kind of traffic the run
// measured equals what its row of the table charges, to the byte.
func TestTable3Identity(t *testing.T) {
	for _, q := range []string{"Q0", "Q1", "Q2"} {
		h := newHarness(t, q, workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.2})
		fixed := allAlgorithms(h)[:9:9] // all but the three learning variants
		for i, alg := range append(fixed, Naive{Merge: true}, Base{Merge: true}) {
			name := alg.Name()
			if i >= len(fixed) {
				name += "+merge"
			}
			cfg := h.config(40, 0)
			st := alg.Start(cfg)
			driveCycles(st, 0, cfg.Cycles)
			got := cfg.Net.Metrics()
			data, result := table3Row(alg, st, cfg).charges(h.config(40, 0), turnOrder(alg, h.spec, h.topo.N()))
			if got.ByKind[sim.Data] != data || got.ByKind[sim.Result] != result {
				t.Errorf("%s %s: measured data %d B, result %d B; Table 3 charges %d B and %d B (residuals %d, %d)",
					q, name, got.ByKind[sim.Data], got.ByKind[sim.Result], data, result,
					got.ByKind[sim.Data]-data, got.ByKind[sim.Result]-result)
			}
		}
	}
}
