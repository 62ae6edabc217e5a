package workload

import (
	"fmt"
	"sync"

	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/summary"
	"repro/internal/topology"
)

// Spec is a compiled query ready for execution by the join engines: the
// Table 2 predicates pre-processed per section 2 into eligibility tests,
// the static pair predicate, a substrate search matcher, the dynamic join
// predicate, and grouping/hash keys for the grouped algorithms.
//
// A Spec is immutable once its fields are set: every function field is
// pure, and Groups computes its result once. One Spec may therefore serve
// any number of queries, stepped concurrently (the engine shares one per
// SQL text and rates). Set every field before the first Groups call.
type Spec struct {
	// Name labels the query ("Q0".."Q3").
	Name string
	// W is the join window size in tuples per producer pair.
	W int
	// Nodes carries every node's static attributes.
	Nodes []NodeInfo

	// EligibleS / EligibleT are the pre-evaluated static selections: may
	// this node produce for S (resp. T)?
	EligibleS, EligibleT func(id topology.NodeID) bool
	// PairMatch is the full static join predicate over a candidate pair
	// (primary + secondary clauses, including region predicates).
	PairMatch func(s, t topology.NodeID) bool
	// SearchMatcher builds the substrate matcher that discovers s's join
	// candidates during initiation.
	SearchMatcher func(s topology.NodeID, sub *routing.Substrate) routing.Matcher
	// DynJoin is the compiled dynamic join predicate over two readings.
	DynJoin query.Dyn

	// GroupKeyS / GroupKeyT map producers to join-group keys. ok is false
	// when the query's join predicate is not commutative-transitive
	// (section 5.2) and no grouping beyond single pairs exists.
	GroupKeyS, GroupKeyT func(id topology.NodeID) (int64, bool)

	// Indexes and IndexPositions describe the substrate the query needs.
	Indexes        []routing.IndexSpec
	IndexPositions bool

	// Rates are the data-generation ground truth (what an oracle
	// optimizer would be told).
	Rates Rates

	groupsOnce sync.Once
	groups     []Group
}

// Group is one join group: a maximal set of producers joining on the same
// key (a complete bipartite subgraph for transitive predicates, or a
// single pair otherwise).
type Group struct {
	Key   int64
	S, T  []topology.NodeID
	Pairs [][2]topology.NodeID
}

// Groups enumerates the query's join groups in deterministic key order.
// The groups are computed on the first call; every call returns that one
// slice, which callers only read.
func (q *Spec) Groups() []Group {
	q.groupsOnce.Do(func() { q.groups = q.computeGroups() })
	return q.groups
}

func (q *Spec) computeGroups() []Group {
	type bucket struct {
		s, t []topology.NodeID
	}
	n := len(q.Nodes)
	byKey := map[int64]*bucket{}
	var keys []int64
	add := func(key int64, id topology.NodeID, isS bool) {
		b, ok := byKey[key]
		if !ok {
			b = &bucket{}
			byKey[key] = b
			keys = append(keys, key)
		}
		if isS {
			b.s = append(b.s, id)
		} else {
			b.t = append(b.t, id)
		}
	}
	grouped := true
	for i := 0; i < n && grouped; i++ {
		id := topology.NodeID(i)
		if q.EligibleS(id) {
			if key, ok := q.GroupKeyS(id); ok {
				add(key, id, true)
			} else {
				grouped = false
			}
		}
		if q.EligibleT(id) {
			if key, ok := q.GroupKeyT(id); ok {
				add(key, id, false)
			} else {
				grouped = false
			}
		}
	}
	if grouped {
		out := make([]Group, 0, len(keys))
		sortInt64(keys)
		for _, key := range keys {
			b := byKey[key]
			if len(b.s) == 0 || len(b.t) == 0 {
				continue
			}
			g := Group{Key: key, S: b.s, T: b.t}
			for _, s := range b.s {
				for _, t := range b.t {
					if q.PairMatch(s, t) {
						g.Pairs = append(g.Pairs, [2]topology.NodeID{s, t})
					}
				}
			}
			if len(g.Pairs) > 0 {
				out = append(out, g)
			}
		}
		return out
	}
	// Non-transitive predicate: every matching pair is its own group.
	var out []Group
	for i := 0; i < n; i++ {
		s := topology.NodeID(i)
		if !q.EligibleS(s) {
			continue
		}
		for j := 0; j < n; j++ {
			t := topology.NodeID(j)
			if s == t || !q.EligibleT(t) || !q.PairMatch(s, t) {
				continue
			}
			out = append(out, Group{
				Key:   int64(i)<<20 | int64(j),
				S:     []topology.NodeID{s},
				T:     []topology.NodeID{t},
				Pairs: [][2]topology.NodeID{{s, t}},
			})
		}
	}
	return out
}

func sortInt64(xs []int64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// specMatcher adapts a Spec to routing.Matcher for one source node: the
// subtree test prunes on the primary predicate's summary, the node test
// applies the full static join predicate plus target eligibility. The
// mayMatch closures resolve their attribute columns
// (routing.Substrate.ColumnIndex) and hash their probed values
// (summary.NewKey) once at matcher construction, so the per-edge pruning
// test inside FindTargets is a few bit tests on one row of a column.
type specMatcher struct {
	spec       *Spec
	s          topology.NodeID
	mayMatch   func(e routing.Entry) bool
	matchesAll bool
}

func (m *specMatcher) MatchNode(id topology.NodeID) bool {
	return m.spec.EligibleT(id) && id != m.s && m.spec.PairMatch(m.s, id)
}

func (m *specMatcher) MayMatchSubtree(e routing.Entry) bool {
	if m.matchesAll || m.mayMatch == nil {
		return true
	}
	return m.mayMatch(e)
}

// Named builds the Table 2 query called name ("Q0".."Q3"). Query 0 draws
// pairs disjoint endpoint pairs (0 means 10) from seed, and it is an error
// when the deployment's non-base nodes cannot hold them; the other queries
// ignore pairs and seed.
func Named(name string, topo *topology.Topology, nodes []NodeInfo, pairs int, rates Rates, seed uint64) (*Spec, error) {
	switch name {
	case "Q0":
		if pairs == 0 {
			pairs = 10
		}
		if pairs < 0 || 2*pairs > topo.N()-1 {
			return nil, fmt.Errorf("workload: Query0 with %d pairs needs %d non-base nodes, the deployment has %d", pairs, 2*pairs, topo.N()-1)
		}
		return Query0(topo, nodes, pairs, rates, seed), nil
	case "Q1":
		return Query1(topo, nodes, rates), nil
	case "Q2":
		return Query2(topo, nodes, rates), nil
	case "Q3":
		return Query3(topo, nodes, rates), nil
	default:
		return nil, errUnknownQuery(name)
	}
}

// Query0 is Table 2's 1:1 join with random endpoints: nPairs disjoint
// (s, t) pairs drawn uniformly, joining on S.u = T.u. The static pairing is
// imposed through the id attribute (sigma_{id=random}), so routing searches
// for the partner's id.
func Query0(topo *topology.Topology, nodes []NodeInfo, nPairs int, rates Rates, seed uint64) *Spec {
	src := rng.New(seed).Split(0x40)
	perm := src.Perm(topo.N() - 1) // exclude the base station (node 0)
	if 2*nPairs > len(perm) {
		panic(fmt.Sprintf("workload: %d pairs need %d nodes, have %d", nPairs, 2*nPairs, len(perm)))
	}
	pairs := map[[2]topology.NodeID]bool{}
	partner := map[topology.NodeID]topology.NodeID{}
	sSet := map[topology.NodeID]bool{}
	tSet := map[topology.NodeID]bool{}
	for i := 0; i < nPairs; i++ {
		s := topology.NodeID(perm[2*i] + 1)
		t := topology.NodeID(perm[2*i+1] + 1)
		pairs[[2]topology.NodeID{s, t}] = true
		partner[s], partner[t] = t, s
		sSet[s], tSet[t] = true, true
	}
	spec := &Spec{
		Name:      "Q0",
		W:         3,
		Nodes:     nodes,
		EligibleS: func(id topology.NodeID) bool { return sSet[id] },
		EligibleT: func(id topology.NodeID) bool { return tSet[id] },
		PairMatch: func(s, t topology.NodeID) bool { return pairs[[2]topology.NodeID{s, t}] },
		DynJoin:   query.Dyn{Kind: query.Eq},
		// 1:1 pairing is not transitive in any useful sense, but every
		// pair is trivially a group keyed by its S endpoint.
		GroupKeyS: func(id topology.NodeID) (int64, bool) { return int64(id), true },
		GroupKeyT: func(id topology.NodeID) (int64, bool) { return int64(partner[id]), true },
		Indexes:   []routing.IndexSpec{{Attr: "id", Kind: routing.BloomSummary, Value: attr("id", topo, nodes)}},
		Rates:     rates,
	}
	spec.SearchMatcher = func(s topology.NodeID, sub *routing.Substrate) routing.Matcher {
		want := summary.NewKey(int32(partner[s]))
		idCol := sub.ColumnIndex("id")
		return &specMatcher{spec: spec, s: s, mayMatch: func(e routing.Entry) bool {
			return e.MayContain(idCol, want)
		}}
	}
	return spec
}

// Query1 is Table 2's non-1:1 join with uniform endpoints:
// S.id < 25, T.id > 50, S.x = T.y + 5, S.u = T.u.
func Query1(topo *topology.Topology, nodes []NodeInfo, rates Rates) *Spec {
	x, y := attr("x", topo, nodes), attr("y", topo, nodes)
	spec := &Spec{
		Name:      "Q1",
		W:         3,
		Nodes:     nodes,
		EligibleS: func(id topology.NodeID) bool { return id < 25 && id != topology.Base },
		EligibleT: func(id topology.NodeID) bool { return id > 50 },
		PairMatch: func(s, t topology.NodeID) bool { return x(s) == y(t)+5 },
		DynJoin:   query.Dyn{Kind: query.Eq},
		GroupKeyS: func(id topology.NodeID) (int64, bool) { return int64(x(id)) - 5, true },
		GroupKeyT: func(id topology.NodeID) (int64, bool) { return int64(y(id)), true },
		Indexes: []routing.IndexSpec{
			{Attr: "y", Kind: routing.BloomSummary, Value: y},
			{Attr: "id", Kind: routing.IntervalSummary, Value: attr("id", topo, nodes)},
		},
		Rates: rates,
	}
	spec.SearchMatcher = func(s topology.NodeID, sub *routing.Substrate) routing.Matcher {
		key := summary.NewKey(x(s) - 5) // pattern matcher inversion of S.x = T.y+5
		yCol, idCol := sub.ColumnIndex("y"), sub.ColumnIndex("id")
		return &specMatcher{spec: spec, s: s, mayMatch: func(e routing.Entry) bool {
			// Prune by the join key AND by the target selection
			// (T.id > 50): a subtree with no eligible targets is skipped.
			// The id column is shared deployment state: when an earlier
			// query indexed it with a summary that cannot answer a range
			// overlap (Query 0's Bloom filter), Overlaps stays
			// conservative.
			return e.Overlaps(idCol, 51, 1<<15) && e.MayContain(yCol, key)
		}}
	}
	return spec
}

// Query2 is Table 2's perimeter join (Query P): S.rid = 0, T.rid = 3,
// S.cid = T.cid, S.id % 4 = T.id % 4, S.u = T.u. The cid equality is the
// primary (routable) clause; the id-residue equality is secondary.
func Query2(topo *topology.Topology, nodes []NodeInfo, rates Rates) *Spec {
	cid, rid := attr("cid", topo, nodes), attr("rid", topo, nodes)
	match := func(s, t topology.NodeID) bool {
		return cid(s) == cid(t) && s%4 == t%4
	}
	key := func(id topology.NodeID) (int64, bool) { return int64(cid(id))<<8 | int64(id%4), true }
	spec := &Spec{
		Name:      "Q2",
		W:         1,
		Nodes:     nodes,
		EligibleS: func(id topology.NodeID) bool { return rid(id) == 0 && id != topology.Base },
		EligibleT: func(id topology.NodeID) bool { return rid(id) == 3 && id != topology.Base },
		PairMatch: match,
		DynJoin:   query.Dyn{Kind: query.Eq},
		GroupKeyS: key,
		GroupKeyT: key,
		Indexes: []routing.IndexSpec{
			{Attr: "cid", Kind: routing.BloomSummary, Value: cid},
			{Attr: "rid", Kind: routing.BloomSummary, Value: rid},
		},
		Rates: rates,
	}
	spec.SearchMatcher = func(s topology.NodeID, sub *routing.Substrate) routing.Matcher {
		key, rid3 := summary.NewKey(cid(s)), summary.NewKey(3)
		cidCol, ridCol := sub.ColumnIndex("cid"), sub.ColumnIndex("rid")
		return &specMatcher{spec: spec, s: s, mayMatch: func(e routing.Entry) bool {
			// Prune by the join key AND the target selection (T.rid = 3).
			return e.MayContain(cidCol, key) && e.MayContain(ridCol, rid3)
		}}
	}
	return spec
}

// Query3Radius is the region join's distance threshold (Query R: readings
// from adjacent sensors; Table 2 uses Dst < 5m).
const Query3Radius = 5.0

// Query3EventThreshold is the dynamic event condition |s.v-t.v| > 1000.
const Query3EventThreshold = 1000

// Query3 is Table 2's region-based join (Query R): every pair of distinct
// nodes within 5 metres with s.id < t.id, joining when their humidity
// readings differ by more than 1000 counts. The region predicate is
// primary (routed via the R-tree); the id ordering is secondary. The
// predicate is not transitive, so no grouping applies.
func Query3(topo *topology.Topology, nodes []NodeInfo, rates Rates) *Spec {
	spec := &Spec{
		Name:      "Q3",
		W:         3,
		Nodes:     nodes,
		EligibleS: func(id topology.NodeID) bool { return id != topology.Base },
		EligibleT: func(id topology.NodeID) bool { return id != topology.Base },
		PairMatch: func(s, t topology.NodeID) bool {
			return s < t && topo.Pos(s).Dist(topo.Pos(t)) < Query3Radius
		},
		DynJoin:        query.Dyn{Kind: query.AbsDiffGT, C: Query3EventThreshold},
		GroupKeyS:      func(topology.NodeID) (int64, bool) { return 0, false },
		GroupKeyT:      func(topology.NodeID) (int64, bool) { return 0, false },
		IndexPositions: true,
		Rates:          rates,
	}
	spec.SearchMatcher = func(s topology.NodeID, sub *routing.Substrate) routing.Matcher {
		pos := topo.Pos(s)
		return &specMatcher{spec: spec, s: s, mayMatch: func(e routing.Entry) bool {
			r := e.Region()
			return r != nil && r.MayContainWithin(pos, Query3Radius)
		}}
	}
	return spec
}
