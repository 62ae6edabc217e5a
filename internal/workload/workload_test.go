package workload

import (
	"math"
	"testing"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
)

func setup(t *testing.T) (*topology.Topology, []NodeInfo) {
	t.Helper()
	topo := topology.Generate(topology.ModerateRandom, 100, 1)
	return topo, BuildNodes(topo, 1)
}

func TestBuildNodesAttributes(t *testing.T) {
	topo, nodes := setup(t)
	if len(nodes) != topo.N() {
		t.Fatal("node count mismatch")
	}
	for i, n := range nodes {
		id := topology.NodeID(i)
		if got := nodeAttrs["id"](topo, nodes, id); got != int32(i) {
			t.Fatalf("node %d has id %d", i, got)
		}
		if n.X < 7 || n.X > 60 {
			t.Fatalf("x = %d outside [7,60]", n.X)
		}
		if n.Y >= 10 {
			t.Fatalf("y = %d outside [0,10)", n.Y)
		}
		if cid, rid := cell(topo, id); cid < 0 || cid > 3 || rid < 0 || rid > 3 {
			t.Fatalf("grid cell (%d,%d) outside 4x4", cid, rid)
		}
	}
}

func TestBuildNodesXSpatialSkew(t *testing.T) {
	// Table 1: "center has higher values". Compare mean x near centre vs
	// near the border.
	topo, nodes := setup(t)
	centre := topology.Field / 2.0
	var inSum, inN, outSum, outN float64
	for i, n := range nodes {
		p := topo.Pos(topology.NodeID(i))
		d := math.Hypot(p.X-centre, p.Y-centre)
		if d < topology.Field/4 {
			inSum += float64(n.X)
			inN++
		} else if d > topology.Field/2.5 {
			outSum += float64(n.X)
			outN++
		}
	}
	if inN == 0 || outN == 0 {
		t.Skip("degenerate layout")
	}
	if inSum/inN <= outSum/outN {
		t.Fatalf("central mean x %.1f not above border mean %.1f", inSum/inN, outSum/outN)
	}
}

func TestBuildNodesDeterministic(t *testing.T) {
	topo := topology.Generate(topology.ModerateRandom, 100, 1)
	a := BuildNodes(topo, 5)
	b := BuildNodes(topo, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("BuildNodes not deterministic")
		}
	}
}

func TestPairBinding(t *testing.T) {
	topo, nodes := setup(t)
	b := PairBinding{Topo: topo, Nodes: nodes, S: 1, T: 2, SU: 7, TU: 9, HasDyn: true}
	if b.Value(query.S, "id") != 1 || b.Value(query.T, "id") != 2 {
		t.Fatal("id binding wrong")
	}
	if b.Value(query.S, "u") != 7 || b.Value(query.T, "u") != 9 {
		t.Fatal("dynamic binding wrong")
	}
	if cid, _ := topology.Cell(topo.Pos(1)); b.Value(query.S, "cid") != int32(cid) {
		t.Fatal("cid binding wrong")
	}
	if b.Value(query.T, "y") != int32(nodes[2].Y) {
		t.Fatal("y binding wrong")
	}
}

func TestPairBindingPanicsWithoutDyn(t *testing.T) {
	topo, nodes := setup(t)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic reading u without dynamic binding")
		}
	}()
	PairBinding{Topo: topo, Nodes: nodes, S: 1, T: 2}.Value(query.S, "u")
}

func TestGeneratorSelectivities(t *testing.T) {
	g := NewGenerator(Rates{SigmaS: 0.5, SigmaT: 0.1, SigmaST: 0.2}, 3)
	const cycles = 20000
	var sends, tsends int
	for c := 0; c < cycles; c++ {
		if _, ok := g.Sample(5, query.S, c); ok {
			sends++
		}
		if _, ok := g.Sample(5, query.T, c); ok {
			tsends++
		}
	}
	if r := float64(sends) / cycles; math.Abs(r-0.5) > 0.02 {
		t.Fatalf("sigma_s measured %.3f, want 0.5", r)
	}
	if r := float64(tsends) / cycles; math.Abs(r-0.1) > 0.02 {
		t.Fatalf("sigma_t measured %.3f, want 0.1", r)
	}
}

func TestGeneratorJoinSelectivity(t *testing.T) {
	for _, sst := range JoinSelectivities {
		g := NewGenerator(Rates{SigmaS: 1, SigmaT: 1, SigmaST: sst}, 9)
		matches := 0
		const n = 30000
		for c := 0; c < n; c++ {
			sv, _ := g.Sample(1, query.S, c)
			tv, _ := g.Sample(2, query.T, c)
			if sv == tv {
				matches++
			}
		}
		got := float64(matches) / n
		if math.Abs(got-sst) > 0.02 {
			t.Fatalf("sigma_st measured %.3f, want %.2f", got, sst)
		}
	}
}

func TestGeneratorDeterministicPerCycle(t *testing.T) {
	g := NewGenerator(Rates{SigmaS: 1, SigmaT: 1, SigmaST: 0.2}, 7)
	v1, s1 := g.Sample(3, query.S, 10)
	v2, s2 := g.Sample(3, query.S, 10)
	if v1 != v2 || s1 != s2 {
		t.Fatal("re-sampling the same (node,cycle) differed")
	}
}

func TestGeneratorPerNodeOverride(t *testing.T) {
	g := NewGenerator(Rates{SigmaS: 1, SigmaT: 1, SigmaST: 0.2}, 7)
	g.SetNodeRates(4, Rates{SigmaS: 0, SigmaT: 0, SigmaST: 0.2})
	for c := 0; c < 100; c++ {
		if _, send := g.Sample(4, query.S, c); send {
			t.Fatal("overridden node sent despite sigma_s = 0")
		}
		if _, send := g.Sample(5, query.S, c); !send {
			t.Fatal("default node silent despite sigma_s = 1")
		}
	}
}

func TestGeneratorTemporalSwitch(t *testing.T) {
	g := NewGenerator(Rates{SigmaS: 1, SigmaT: 1, SigmaST: 0.2}, 7)
	g.SetSwitch(50, Rates{SigmaS: 0, SigmaT: 0, SigmaST: 0.2})
	if _, send := g.Sample(3, query.S, 49); !send {
		t.Fatal("pre-switch rate not in effect")
	}
	for c := 50; c < 150; c++ {
		if _, send := g.Sample(3, query.S, c); send {
			t.Fatal("post-switch rate not in effect")
		}
	}
	r := g.RatesAt(3, 50)
	if r.SigmaS != 0 {
		t.Fatal("RatesAt ignores switch")
	}
}

func TestUDomain(t *testing.T) {
	cases := []struct {
		sst  float64
		want int
	}{{0.2, 5}, {0.1, 10}, {0.05, 20}, {1, 1}, {1.5, 1}}
	for _, c := range cases {
		if got := uDomain(c.sst); got != c.want {
			t.Fatalf("uDomain(%v) = %d, want %d", c.sst, got, c.want)
		}
	}
	if uDomain(0) != math.MaxInt32 {
		t.Fatal("uDomain(0) must make joins impossible")
	}
}

func TestHumiditySpatialCorrelation(t *testing.T) {
	topo := topology.Generate(topology.Intel, 0, 0)
	h := NewHumidity(topo, 1)
	// Average |v_a - v_b| for adjacent nodes must be well below that of
	// distant nodes — the property Query 3 depends on.
	var nearSum, nearN, farSum, farN float64
	for c := 0; c < 200; c++ {
		for a := 0; a < topo.N(); a++ {
			va := h.Value(topology.NodeID(a), c)
			for b := a + 1; b < topo.N(); b += 5 {
				vb := h.Value(topology.NodeID(b), c)
				d := topo.Dist(topology.NodeID(a), topology.NodeID(b))
				diff := math.Abs(float64(va - vb))
				if d < 7 {
					nearSum += diff
					nearN++
				} else if d > 25 {
					farSum += diff
					farN++
				}
			}
		}
	}
	near, far := nearSum/nearN, farSum/farN
	if near >= far {
		t.Fatalf("near diff %.0f not below far diff %.0f — no spatial correlation", near, far)
	}
}

func TestHumidityEventRate(t *testing.T) {
	// |v_s - v_t| > 1000 between nearby nodes should fire on a minority
	// of cycles but not never (the paper measures sigma_st ~ 20%).
	topo := topology.Generate(topology.Intel, 0, 0)
	h := NewHumidity(topo, 1)
	events, total := 0, 0
	for c := 0; c < 500; c++ {
		for a := 0; a < topo.N(); a++ {
			for _, b := range topo.Neighbors(topology.NodeID(a)) {
				if topology.NodeID(a) >= b {
					continue
				}
				total++
				if d := h.Value(topology.NodeID(a), c) - h.Value(b, c); d > 1000 || d < -1000 {
					events++
				}
			}
		}
	}
	rate := float64(events) / float64(total)
	if rate < 0.03 || rate > 0.60 {
		t.Fatalf("event rate %.3f outside plausible range", rate)
	}
}

func TestHumidityRange(t *testing.T) {
	topo := topology.Generate(topology.Intel, 0, 0)
	h := NewHumidity(topo, 2)
	for c := 0; c < 300; c++ {
		v := h.Value(5, c)
		if v < 0 || v > 65535 {
			t.Fatalf("humidity %d outside 16-bit range", v)
		}
	}
}

func TestQuery0Pairs(t *testing.T) {
	topo, nodes := setup(t)
	spec := Query0(topo, nodes, 10, Rates{SigmaS: 1, SigmaT: 1, SigmaST: 0.2}, 7)
	groups := spec.Groups()
	if len(groups) != 10 {
		t.Fatalf("Q0 has %d groups, want 10", len(groups))
	}
	seen := map[topology.NodeID]bool{}
	for _, g := range groups {
		if len(g.Pairs) != 1 {
			t.Fatalf("Q0 group has %d pairs, want 1", len(g.Pairs))
		}
		s, tt := g.Pairs[0][0], g.Pairs[0][1]
		if seen[s] || seen[tt] {
			t.Fatal("Q0 endpoints overlap across pairs")
		}
		seen[s], seen[tt] = true, true
		if s == topology.Base || tt == topology.Base {
			t.Fatal("base station selected as producer")
		}
		if !spec.PairMatch(s, tt) || spec.PairMatch(tt, s) {
			t.Fatal("PairMatch asymmetric pairing broken")
		}
	}
}

func TestQuery0SearchFindsPartner(t *testing.T) {
	topo, nodes := setup(t)
	spec := Query0(topo, nodes, 10, Rates{SigmaS: 1, SigmaT: 1, SigmaST: 0.2}, 7)
	sub := routing.NewSubstrate(topo, routing.Options{NumTrees: 2, Indexes: spec.Indexes}, nil)
	for _, g := range spec.Groups() {
		s, want := g.Pairs[0][0], g.Pairs[0][1]
		found := sub.FindTargets(s, spec.SearchMatcher(s, sub), nil)
		if len(found) != 1 {
			t.Fatalf("search from %d found %d targets, want 1", s, len(found))
		}
		if _, ok := found[want]; !ok {
			t.Fatalf("search from %d missed partner %d", s, want)
		}
	}
}

func TestQuery1Semantics(t *testing.T) {
	topo, nodes := setup(t)
	spec := Query1(topo, nodes, Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.05})
	for i := 0; i < topo.N(); i++ {
		id := topology.NodeID(i)
		if spec.EligibleS(id) && i >= 25 {
			t.Fatal("EligibleS violates id<25")
		}
		if spec.EligibleT(id) && i <= 50 {
			t.Fatal("EligibleT violates id>50")
		}
	}
	groups := spec.Groups()
	for _, g := range groups {
		for _, p := range g.Pairs {
			if nodes[p[0]].X != nodes[p[1]].Y+5 {
				t.Fatal("pair violates S.x = T.y+5")
			}
		}
		// Complete bipartite: every s x t combination in a group joins.
		if len(g.Pairs) != len(g.S)*len(g.T) {
			t.Fatalf("group not complete bipartite: %d pairs for %dx%d", len(g.Pairs), len(g.S), len(g.T))
		}
	}
}

func TestQuery1SearchMatchesGroundTruth(t *testing.T) {
	topo, nodes := setup(t)
	spec := Query1(topo, nodes, Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.05})
	sub := routing.NewSubstrate(topo, routing.Options{NumTrees: 3, Indexes: spec.Indexes}, nil)
	for i := 0; i < topo.N(); i++ {
		s := topology.NodeID(i)
		if !spec.EligibleS(s) {
			continue
		}
		found := sub.FindTargets(s, spec.SearchMatcher(s, sub), nil)
		want := 0
		for j := 0; j < topo.N(); j++ {
			t2 := topology.NodeID(j)
			if t2 != s && spec.EligibleT(t2) && spec.PairMatch(s, t2) {
				want++
			}
		}
		if len(found) != want {
			t.Fatalf("search from %d found %d targets, want %d", s, len(found), want)
		}
	}
}

func TestQuery2Semantics(t *testing.T) {
	topo, nodes := setup(t)
	spec := Query2(topo, nodes, Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1})
	groups := spec.Groups()
	for _, g := range groups {
		for _, p := range g.Pairs {
			sCid, sRid := cell(topo, p[0])
			tCid, tRid := cell(topo, p[1])
			if sRid != 0 || tRid != 3 {
				t.Fatal("perimeter selection violated")
			}
			if sCid != tCid || p[0]%4 != p[1]%4 {
				t.Fatal("join predicate violated")
			}
		}
	}
}

func TestQuery3Semantics(t *testing.T) {
	topo := topology.Generate(topology.Intel, 0, 0)
	nodes := BuildNodes(topo, 1)
	spec := Query3(topo, nodes, Rates{SigmaS: 1, SigmaT: 1, SigmaST: 0.2})
	groups := spec.Groups()
	if len(groups) == 0 {
		t.Fatal("Q3 found no adjacent pairs on the Intel layout")
	}
	for _, g := range groups {
		if len(g.Pairs) != 1 {
			t.Fatal("region join must be pairwise groups")
		}
		p := g.Pairs[0]
		if p[0] >= p[1] {
			t.Fatal("s.id < t.id violated")
		}
		if topo.Pos(p[0]).Dist(topo.Pos(p[1])) >= Query3Radius {
			t.Fatal("distance predicate violated")
		}
	}
	// Dynamic predicate.
	if spec.DynJoin.Eval(1000, 2500) != true || spec.DynJoin.Eval(1000, 1900) != false {
		t.Fatal("Q3 dynamic predicate wrong")
	}
}

func TestQuery3SearchUsesRegion(t *testing.T) {
	topo := topology.Generate(topology.Intel, 0, 0)
	nodes := BuildNodes(topo, 1)
	spec := Query3(topo, nodes, Rates{SigmaS: 1, SigmaT: 1, SigmaST: 0.2})
	sub := routing.NewSubstrate(topo, routing.Options{
		NumTrees: 2, IndexPositions: true,
	}, nil)
	for i := 1; i < topo.N(); i++ {
		s := topology.NodeID(i)
		found := sub.FindTargets(s, spec.SearchMatcher(s, sub), nil)
		want := 0
		for j := 1; j < topo.N(); j++ {
			t2 := topology.NodeID(j)
			if t2 != s && spec.PairMatch(s, t2) {
				want++
			}
		}
		if len(found) != want {
			t.Fatalf("region search from %d found %d, want %d", s, len(found), want)
		}
	}
}

func TestRatioStagesShape(t *testing.T) {
	if len(RatioStages) != 5 {
		t.Fatal("paper sweeps five ratio stages")
	}
	if RatioStages[0].S != 0.1 || RatioStages[0].T != 1 {
		t.Fatal("first stage must be 1/10:1")
	}
	if RatioStages[4].S != 1 || RatioStages[4].T != 0.1 {
		t.Fatal("last stage must be 1:1/10")
	}
}

// refNodeInfo is the 40-byte node record BuildNodes returned before the
// derived attributes moved out of it: every attribute stored per node.
type refNodeInfo struct {
	ID, X, Y, Cid, Rid int32
	Pos                geom.Point
}

// refBuildNodes is that BuildNodes, kept verbatim as the reference the
// derived attributes are checked against.
func refBuildNodes(topo *topology.Topology, seed uint64) []refNodeInfo {
	src := rng.New(seed).Split(0xA77)
	nodes := make([]refNodeInfo, topo.N())
	centre := geom.Point{X: topology.Field / 2, Y: topology.Field / 2}
	maxDist := centre.Dist(geom.Point{})
	for i := range nodes {
		id := topology.NodeID(i)
		p := topo.Pos(id)
		nrng := src.Split(uint64(i))
		rel := p.Dist(centre) / maxDist
		mean := 53 * math.Exp(-2.5*rel)
		x := 7 + int32(math.Min(53, mean*nrng.ExpFloat64()))
		if x > 60 {
			x = 60
		}
		cid, rid := topology.Cell(p)
		nodes[i] = refNodeInfo{ID: int32(i), X: x, Y: int32(nrng.Intn(10)), Cid: int32(cid), Rid: int32(rid), Pos: p}
	}
	return nodes
}

// TestNodeAttrsMatchReference: every attribute a query can name reads, for
// every node, what the reference's stored record holds, over each
// deployment class and three seeds; and a node stores at most 2 bytes.
func TestNodeAttrsMatchReference(t *testing.T) {
	if size := unsafe.Sizeof(NodeInfo{}); size > 2 {
		t.Fatalf("NodeInfo is %d bytes, want at most 2", size)
	}
	ref := map[string]func(n *refNodeInfo) int32{
		"id":   func(n *refNodeInfo) int32 { return n.ID },
		"x":    func(n *refNodeInfo) int32 { return n.X },
		"y":    func(n *refNodeInfo) int32 { return n.Y },
		"cid":  func(n *refNodeInfo) int32 { return n.Cid },
		"rid":  func(n *refNodeInfo) int32 { return n.Rid },
		"posx": func(n *refNodeInfo) int32 { return int32(n.Pos.X) },
		"posy": func(n *refNodeInfo) int32 { return int32(n.Pos.Y) },
	}
	if len(ref) != len(nodeAttrs) {
		t.Fatalf("nodeAttrs names %d attributes, the reference %d", len(nodeAttrs), len(ref))
	}
	for _, c := range []struct {
		kind topology.Kind
		n    int
	}{
		{topology.DenseRandom, 100000},
		{topology.ModerateRandom, 100},
		{topology.SparseRandom, 100},
		{topology.Grid, 1000},
		{topology.Intel, 0},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			topo := topology.Generate(c.kind, c.n, seed)
			nodes, want := BuildNodes(topo, seed), refBuildNodes(topo, seed)
			for name, field := range nodeAttrs {
				for i := range want {
					if got, w := field(topo, nodes, topology.NodeID(i)), ref[name](&want[i]); got != w {
						t.Fatalf("%v %d, seed %d: node %d's %s is %d, the reference's %d", c.kind, c.n, seed, i, name, got, w)
					}
				}
			}
		}
	}
}

// BenchmarkBuildNodes100k draws the static attributes of a Dense 100k-node
// deployment. Its B/op is the node table the deployment keeps.
func BenchmarkBuildNodes100k(b *testing.B) {
	topo := topology.Generate(topology.DenseRandom, 100000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		BuildNodes(topo, 1)
	}
}
