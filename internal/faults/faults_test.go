package faults

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// workloadRid returns the rid attribute the workload gives each node of
// topo: the row of its cell in the 4x4 field partition.
func workloadRid(topo *topology.Topology) func(topology.NodeID) int32 {
	nodes := workload.BuildNodes(topo, 1)
	return func(id topology.NodeID) int32 {
		return workload.PairBinding{Topo: topo, Nodes: nodes, S: id}.Value(query.S, "rid")
	}
}

func testTopo(t *testing.T) *topology.Topology {
	t.Helper()
	return topology.Generate(topology.ModerateRandom, 100, 1)
}

// allLinks enumerates every undirected radio link of topo in canonical
// order.
func allLinks(topo *topology.Topology) [][2]topology.NodeID {
	var out [][2]topology.NodeID
	for id := 0; id < topo.N(); id++ {
		from := topology.NodeID(id)
		for _, nb := range topo.Neighbors(from) {
			if nb > from {
				out = append(out, [2]topology.NodeID{from, nb})
			}
		}
	}
	return out
}

// TestZeroConfigInjectsNothing: the zero Config's plan returns the zero
// LinkState for every hop at every epoch — the contract that keeps a
// plan-free run byte-identical.
func TestZeroConfigInjectsNothing(t *testing.T) {
	topo := testTopo(t)
	p := NewPlan(topo, Config{Seed: 1})
	for e := 0; e < 5; e++ {
		p.BeginEpoch(e)
		if p.AnyCut() || p.PartitionActive() || p.DownLinks() != 0 {
			t.Fatalf("epoch %d: zero plan reports faults", e)
		}
		for _, l := range allLinks(topo) {
			if st := p.Link(l[0], l[1]); st != (sim.LinkState{}) {
				t.Fatalf("epoch %d: link %v-%v has non-zero state %+v", e, l[0], l[1], st)
			}
		}
	}
}

// TestPlanDeterministic: two plans from the same seed and topology agree
// on every link state at every epoch — the property worker-count
// invariance rests on.
func TestPlanDeterministic(t *testing.T) {
	topo := testTopo(t)
	cfg := Config{
		Seed: 7, LinkLoss: 0.1, LinkFailRate: 0.05, LinkReviveAfter: 2,
		DupProb: 0.02, DelayMax: 3,
		Partitions: []Partition{{From: 3, Until: 6, Kind: Bisect}},
	}
	a, b := NewPlan(topo, cfg), NewPlan(topo, cfg)
	links := allLinks(topo)
	for e := 0; e < 10; e++ {
		a.BeginEpoch(e)
		b.BeginEpoch(e)
		if a.DownLinks() != b.DownLinks() || a.AnyCut() != b.AnyCut() {
			t.Fatalf("epoch %d: plan summaries diverge: %d/%v vs %d/%v",
				e, a.DownLinks(), a.AnyCut(), b.DownLinks(), b.AnyCut())
		}
		for _, l := range links {
			sa, sb := a.Link(l[0], l[1]), b.Link(l[0], l[1])
			if sa != sb {
				t.Fatalf("epoch %d: link %v-%v diverges: %+v vs %+v", e, l[0], l[1], sa, sb)
			}
			// Link state is direction-symmetric: one undirected fault entry.
			if rev := a.Link(l[1], l[0]); rev != sa {
				t.Fatalf("epoch %d: link %v-%v asymmetric: %+v vs %+v", e, l[0], l[1], sa, rev)
			}
		}
	}
}

// TestLinkLossHeterogeneous: per-link loss boosts land in the documented
// [0.5, 1.5) x LinkLoss band and differ across links.
func TestLinkLossHeterogeneous(t *testing.T) {
	topo := testTopo(t)
	const mean = 0.1
	p := NewPlan(topo, Config{Seed: 3, LinkLoss: mean})
	p.BeginEpoch(0)
	seen := map[float64]bool{}
	for _, l := range allLinks(topo) {
		st := p.Link(l[0], l[1])
		if st.ExtraLoss < 0.5*mean || st.ExtraLoss >= 1.5*mean {
			t.Fatalf("link %v-%v loss %.4f outside [%.4f, %.4f)", l[0], l[1], st.ExtraLoss, 0.5*mean, 1.5*mean)
		}
		seen[st.ExtraLoss] = true
	}
	if len(seen) < 2 {
		t.Fatalf("loss boosts are not heterogeneous: %d distinct values", len(seen))
	}
}

// TestLinkFailureAndRevive: with LinkFailRate 1 every link fails at epoch
// 0 and, with LinkReviveAfter 2, every link is back up at epoch 2 (revive
// and re-fail never happen in the same epoch).
func TestLinkFailureAndRevive(t *testing.T) {
	topo := testTopo(t)
	p := NewPlan(topo, Config{Seed: 1, LinkFailRate: 1, LinkReviveAfter: 2})
	links := allLinks(topo)

	p.BeginEpoch(0)
	if p.DownLinks() != len(links) {
		t.Fatalf("epoch 0: %d links down, want all %d", p.DownLinks(), len(links))
	}
	for _, l := range links {
		if !p.Link(l[0], l[1]).Cut {
			t.Fatalf("epoch 0: link %v-%v not cut", l[0], l[1])
		}
	}
	p.BeginEpoch(1)
	if p.DownLinks() != len(links) {
		t.Fatalf("epoch 1: %d links down, want all %d", p.DownLinks(), len(links))
	}
	p.BeginEpoch(2)
	if p.DownLinks() != 0 || p.AnyCut() {
		t.Fatalf("epoch 2: %d links still down after revive window", p.DownLinks())
	}
	for _, l := range links {
		if p.Link(l[0], l[1]).Cut {
			t.Fatalf("epoch 2: link %v-%v still cut", l[0], l[1])
		}
	}
	// Permanent failures (LinkReviveAfter 0) never come back.
	perm := NewPlan(topo, Config{Seed: 1, LinkFailRate: 1})
	perm.BeginEpoch(0)
	for e := 1; e < 5; e++ {
		perm.BeginEpoch(e)
		if perm.DownLinks() != len(links) {
			t.Fatalf("epoch %d: permanent failure revived (%d down)", e, perm.DownLinks())
		}
	}
}

// TestBisectPartition: the scheduled window cuts exactly the links whose
// endpoints straddle the median-x split, for exactly [From, Until).
func TestBisectPartition(t *testing.T) {
	topo := testTopo(t)
	p := NewPlan(topo, Config{Seed: 1, Partitions: []Partition{{From: 2, Until: 4, Kind: Bisect}}})

	// Recompute the expected sides the way the plan documents them.
	n := topo.N()
	xs := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = topo.Pos(topology.NodeID(i)).X
	}
	sorted := append([]float64(nil), xs...)
	for i := range sorted { // insertion sort; n is small
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	median := sorted[n/2]

	for e, want := range map[int]bool{0: false, 1: false, 2: true, 3: true, 4: false, 5: false} {
		p.BeginEpoch(e)
		if p.PartitionActive() != want {
			t.Fatalf("epoch %d: PartitionActive=%v, want %v", e, p.PartitionActive(), want)
		}
		cut := 0
		for _, l := range allLinks(topo) {
			straddles := (xs[l[0]] < median) != (xs[l[1]] < median)
			if got := p.Link(l[0], l[1]).Cut; got != (want && straddles) {
				t.Fatalf("epoch %d: link %v-%v cut=%v, want %v", e, l[0], l[1], got, want && straddles)
			}
			if want && straddles {
				cut++
			}
		}
		if want && cut == 0 {
			t.Fatal("bisect partition cut no links")
		}
	}
}

// TestRegionPartitionMatchesWorkloadRid: a Region partition isolates
// exactly the nodes the workload generator assigns that rid, so a
// partition directive and a rid predicate name the same node set.
func TestRegionPartitionMatchesWorkloadRid(t *testing.T) {
	topo := testTopo(t)
	rid := workloadRid(topo)
	const band = 3
	p := NewPlan(topo, Config{Seed: 1, Partitions: []Partition{{From: 0, Until: 1, Kind: Region, Region: band}}})
	p.BeginEpoch(0)
	cut := 0
	for _, l := range allLinks(topo) {
		inA, inB := rid(l[0]) == band, rid(l[1]) == band
		if got := p.Link(l[0], l[1]).Cut; got != (inA != inB) {
			t.Fatalf("link %v-%v (rid %d,%d): cut=%v, want %v",
				l[0], l[1], rid(l[0]), rid(l[1]), got, inA != inB)
		}
		if inA != inB {
			cut++
		}
	}
	if cut == 0 {
		t.Fatal("region partition cut no links")
	}
}

// TestLinkUsableMirrorsLink: the routing predicate is exactly !Cut.
func TestLinkUsableMirrorsLink(t *testing.T) {
	topo := testTopo(t)
	p := NewPlan(topo, Config{Seed: 5, LinkFailRate: 0.3})
	p.BeginEpoch(0)
	for _, l := range allLinks(topo) {
		if p.LinkUsable(l[0], l[1]) != !p.Link(l[0], l[1]).Cut {
			t.Fatalf("LinkUsable disagrees with Link for %v-%v", l[0], l[1])
		}
	}
}

// TestDelayAndDupPropagate: build-time delay draws stay within [0,
// DelayMax] and DupProb reaches every link verbatim.
func TestDelayAndDupPropagate(t *testing.T) {
	topo := testTopo(t)
	p := NewPlan(topo, Config{Seed: 2, DelayMax: 3, DupProb: 0.25})
	p.BeginEpoch(0)
	varied := false
	first := -1
	for _, l := range allLinks(topo) {
		st := p.Link(l[0], l[1])
		if st.DelaySlots < 0 || st.DelaySlots > 3 {
			t.Fatalf("link %v-%v delay %d outside [0, 3]", l[0], l[1], st.DelaySlots)
		}
		if st.DupProb != 0.25 {
			t.Fatalf("link %v-%v DupProb %v, want 0.25", l[0], l[1], st.DupProb)
		}
		if first == -1 {
			first = st.DelaySlots
		} else if st.DelaySlots != first {
			varied = true
		}
	}
	if !varied {
		t.Fatal("every link drew the same delay")
	}
}

// TestBackToBackPartitions: two adjacent windows of different kinds share
// the plan's one side buffer, so the second must overwrite the first's
// membership completely, and healing must clear the active signal.
func TestBackToBackPartitions(t *testing.T) {
	topo := testTopo(t)
	rid := workloadRid(topo)
	const band = 1
	cfg := Config{Seed: 1, Partitions: []Partition{
		{From: 1, Until: 3, Kind: Bisect},
		{From: 3, Until: 5, Kind: Region, Region: band},
		{From: 6, Until: 7, Kind: Bisect},
	}}
	p := NewPlan(topo, cfg)
	lo := bisectSides(topo)
	for e := 0; e < 8; e++ {
		p.BeginEpoch(e)
		var straddles func(a, b topology.NodeID) bool
		switch {
		case e >= 1 && e < 3, e == 6:
			straddles = func(a, b topology.NodeID) bool { return lo[a] != lo[b] }
		case e >= 3 && e < 5:
			straddles = func(a, b topology.NodeID) bool { return (rid(a) == band) != (rid(b) == band) }
		}
		if p.PartitionActive() != (straddles != nil) || p.AnyCut() != (straddles != nil) {
			t.Fatalf("epoch %d: PartitionActive=%v AnyCut=%v, want %v", e, p.PartitionActive(), p.AnyCut(), straddles != nil)
		}
		for _, l := range allLinks(topo) {
			want := straddles != nil && straddles(l[0], l[1])
			if got := p.Link(l[0], l[1]).Cut; got != want {
				t.Fatalf("epoch %d: link %v-%v cut=%v, want %v", e, l[0], l[1], got, want)
			}
		}
	}
	// The buffer is filled when the active entry changes, not per epoch.
	p = NewPlan(topo, cfg)
	p.BeginEpoch(1)
	if n := testing.AllocsPerRun(10, func() { p.BeginEpoch(2) }); n != 0 {
		t.Fatalf("BeginEpoch inside an active window allocates %v times", n)
	}
}

// --- Differential test against the map-backed plan ---------------------------

// refKey identifies an undirected link, endpoints ordered a < b.
type refKey struct{ a, b topology.NodeID }

// refPlan is the map-backed plan the dense table replaced, kept as the
// reference: one map entry per link, static draws at build time and churn
// draws per epoch in canonical order (lower endpoint ascending, then
// neighbour order), from the same streams NewPlan splits.
type refPlan struct {
	cfg   Config
	churn *rng.Source
	links map[refKey]*linkFault
	order []refKey
	side  []int8
	down  int
	lo    []bool
	rid   []int8
}

func newRefPlan(topo *topology.Topology, cfg Config) *refPlan {
	root := rng.New(cfg.Seed).Split(0xFA017)
	static := root.Split(1)
	r := &refPlan{cfg: cfg, churn: root.Split(2), links: map[refKey]*linkFault{},
		lo: bisectSides(topo), rid: rowBands(topo)}
	if !(cfg.LinkLoss > 0 || cfg.LinkFailRate > 0 || cfg.DupProb > 0 || cfg.DelayMax > 0) {
		return r
	}
	for _, l := range allLinks(topo) {
		lf := &linkFault{}
		if cfg.LinkLoss > 0 {
			lf.extraLoss = min(cfg.LinkLoss*(0.5+static.Float64()), 1)
		}
		if cfg.DelayMax > 0 {
			lf.delay = static.Intn(cfg.DelayMax + 1)
		}
		k := refKey{l[0], l[1]}
		r.links[k] = lf
		r.order = append(r.order, k)
	}
	return r
}

func (r *refPlan) beginEpoch(epoch int) {
	if r.cfg.LinkFailRate > 0 {
		for _, k := range r.order {
			lf := r.links[k]
			if lf.down {
				if lf.reviveAt > 0 && epoch >= lf.reviveAt {
					lf.down, lf.reviveAt = false, 0
					r.down--
				}
				continue
			}
			if r.churn.Bool(r.cfg.LinkFailRate) {
				lf.down = true
				r.down++
				if r.cfg.LinkReviveAfter > 0 {
					lf.reviveAt = epoch + r.cfg.LinkReviveAfter
				}
			}
		}
	}
	r.side = nil
	for _, pt := range r.cfg.Partitions {
		if epoch < pt.From || epoch >= pt.Until {
			continue
		}
		r.side = make([]int8, len(r.lo))
		for id := range r.side {
			if (pt.Kind == Bisect && r.lo[id]) || (pt.Kind == Region && int(r.rid[id]) == pt.Region) {
				r.side[id] = 1
			}
		}
		break
	}
}

func (r *refPlan) link(from, to topology.NodeID) sim.LinkState {
	if r.side != nil && r.side[from] != r.side[to] {
		return sim.LinkState{Cut: true}
	}
	k := refKey{from, to}
	if to < from {
		k = refKey{to, from}
	}
	lf, ok := r.links[k]
	switch {
	case !ok:
		return sim.LinkState{}
	case lf.down:
		return sim.LinkState{Cut: true}
	}
	return sim.LinkState{ExtraLoss: lf.extraLoss, DupProb: r.cfg.DupProb, DelaySlots: lf.delay}
}

// TestDensePlanMatchesMapReference: the dense link table and its CSR hop
// index answer every directed hop exactly as the map-backed plan does, at
// every epoch, on every deployment class — which also pins the canonical
// draw order, since one static or churn draw made out of order shifts
// every later link's state.
func TestDensePlanMatchesMapReference(t *testing.T) {
	topos := []*topology.Topology{
		topology.Generate(topology.ModerateRandom, 100, 1),
		topology.Generate(topology.DenseRandom, 400, 1),
		topology.Generate(topology.Grid, 100, 1),
		topology.Generate(topology.Intel, 54, 1),
	}
	bisect := []Partition{{From: 5, Until: 12, Kind: Bisect}}
	region := []Partition{{From: 8, Until: 20, Kind: Region, Region: 2}}
	configs := []struct {
		name string
		cfg  Config
	}{
		{"loss only", Config{LinkLoss: 0.2}},
		{"fail+revive", Config{LinkFailRate: 0.05, LinkReviveAfter: 3}},
		{"permanent fail", Config{LinkFailRate: 0.02}},
		{"dup+delay", Config{DupProb: 0.1, DelayMax: 4}},
		{"bisect", Config{Partitions: bisect}},
		{"region", Config{Partitions: region}},
		{"all together", Config{LinkLoss: 0.9, LinkFailRate: 0.05, LinkReviveAfter: 2, DupProb: 0.05, DelayMax: 3,
			Partitions: []Partition{bisect[0], {From: 12, Until: 15, Kind: Region, Region: 0}, {From: 30, Until: 33, Kind: Bisect}}}},
	}
	for _, tc := range configs {
		name, cfg := tc.name, tc.cfg
		for _, topo := range topos {
			for seed := uint64(1); seed <= 20; seed++ {
				cfg.Seed = seed
				p, ref := NewPlan(topo, cfg), newRefPlan(topo, cfg)
				strangers := rng.New(seed).Split(0x57A)
				n := topo.N()
				for e := 0; e < 40; e++ {
					p.BeginEpoch(e)
					ref.beginEpoch(e)
					at := func() string { return fmt.Sprintf("%s, %v, seed %d, epoch %d", name, topo.Kind(), seed, e) }
					if p.DownLinks() != ref.down || p.AnyCut() != (ref.down > 0 || ref.side != nil) {
						t.Fatalf("%s: DownLinks=%d AnyCut=%v, reference %d down, partition %v",
							at(), p.DownLinks(), p.AnyCut(), ref.down, ref.side != nil)
					}
					for id := 0; id < n; id++ {
						a := topology.NodeID(id)
						for _, b := range topo.Neighbors(a) {
							got := p.Link(a, b)
							if want := ref.link(a, b); got != want {
								t.Fatalf("%s: Link(%d,%d) = %+v, reference %+v", at(), a, b, got, want)
							}
							if rev := p.Link(b, a); rev != got {
								t.Fatalf("%s: Link(%d,%d) = %+v but reverse %+v", at(), a, b, got, rev)
							}
						}
					}
					// Hops between nodes sharing no radio link carry no
					// per-link state; only a partition can cut them.
					for i := 0; i < 50; i++ {
						a, b := topology.NodeID(strangers.Intn(n)), topology.NodeID(strangers.Intn(n))
						if topo.IsNeighbor(a, b) {
							continue
						}
						want := sim.LinkState{Cut: ref.side != nil && ref.side[a] != ref.side[b]}
						if got := p.Link(a, b); got != want {
							t.Fatalf("%s: non-neighbour Link(%d,%d) = %+v, want %+v", at(), a, b, got, want)
						}
					}
				}
			}
		}
	}
}

// TestCutMatchesLink: Cut, the down-count fast path, answers every hop as
// the map-backed reference's Link does — neighbours and strangers, under
// link churn, revivals and both partition kinds — and the per-node down
// counts it rests on equal the reference's down links at every node. The
// counts live beside the link table, which stays 32 bytes a link.
func TestCutMatchesLink(t *testing.T) {
	if size := unsafe.Sizeof(linkFault{}); size != 32 {
		t.Fatalf("linkFault is %d bytes, want 32", size)
	}
	topos := []*topology.Topology{
		topology.Generate(topology.ModerateRandom, 100, 1),
		topology.Generate(topology.DenseRandom, 400, 1),
		topology.Generate(topology.Grid, 100, 1),
	}
	configs := []Config{
		{LinkFailRate: 0.05, LinkReviveAfter: 3},
		{LinkFailRate: 0.02},
		{Partitions: []Partition{{From: 5, Until: 12, Kind: Bisect}}},
		{LinkLoss: 0.1, LinkFailRate: 0.05, LinkReviveAfter: 2,
			Partitions: []Partition{{From: 8, Until: 20, Kind: Region, Region: 2}, {From: 25, Until: 30, Kind: Bisect}}},
	}
	for ci, cfg := range configs {
		for _, topo := range topos {
			for seed := uint64(1); seed <= 10; seed++ {
				cfg.Seed = seed
				p, ref := NewPlan(topo, cfg), newRefPlan(topo, cfg)
				strangers := rng.New(seed).Split(0xC07)
				n := topo.N()
				for e := 0; e < 40; e++ {
					p.BeginEpoch(e)
					ref.beginEpoch(e)
					at := func() string { return fmt.Sprintf("config %d, %v, seed %d, epoch %d", ci, topo.Kind(), seed, e) }
					for id := 0; id < n; id++ {
						a := topology.NodeID(id)
						down := int32(0)
						for _, b := range topo.Neighbors(a) {
							want := ref.link(a, b).Cut
							if got := p.Cut(a, b); got != want {
								t.Fatalf("%s: Cut(%d,%d) = %v, reference %v", at(), a, b, got, want)
							}
							if p.LinkUsable(a, b) == want {
								t.Fatalf("%s: LinkUsable(%d,%d) disagrees with Cut", at(), a, b)
							}
							k := refKey{a, b}
							if b < a {
								k = refKey{b, a}
							}
							if lf := ref.links[k]; lf != nil && lf.down {
								down++
							}
						}
						if p.downDeg != nil && p.downDeg[a] != down {
							t.Fatalf("%s: node %d counts %d links down, reference %d", at(), a, p.downDeg[a], down)
						}
					}
					for i := 0; i < 50; i++ {
						a, b := topology.NodeID(strangers.Intn(n)), topology.NodeID(strangers.Intn(n))
						if got, want := p.Cut(a, b), ref.link(a, b).Cut; got != want {
							t.Fatalf("%s: Cut(%d,%d) = %v between strangers, reference %v", at(), a, b, got, want)
						}
					}
				}
			}
		}
	}
}

// TestLinkAtMatchesLink: a hop read by its link id answers as the hop
// found by its endpoints, and as the map-backed reference, for every
// directed neighbour hop and for hops between strangers, over 40 epochs of
// link churn and revivals, both partition kinds, duplicates and delay. Ids
// are symmetric, number the links in canonical order, and are -1 between
// strangers and on a plan that keeps no per-link state.
func TestLinkAtMatchesLink(t *testing.T) {
	topos := []*topology.Topology{
		topology.Generate(topology.ModerateRandom, 100, 1),
		topology.Generate(topology.DenseRandom, 400, 1),
	}
	configs := []Config{
		{LinkLoss: 0.2, LinkFailRate: 0.05, LinkReviveAfter: 3, DupProb: 0.1, DelayMax: 4,
			Partitions: []Partition{{From: 5, Until: 12, Kind: Bisect}, {From: 15, Until: 25, Kind: Region, Region: 1}}},
		{LinkFailRate: 0.02},
		{Partitions: []Partition{{From: 3, Until: 30, Kind: Region, Region: 3}}},
	}
	for ci, cfg := range configs {
		for _, topo := range topos {
			for seed := uint64(1); seed <= 5; seed++ {
				cfg.Seed = seed
				p, ref := NewPlan(topo, cfg), newRefPlan(topo, cfg)
				for k, l := range allLinks(topo) {
					want := int32(k)
					if p.links == nil {
						want = -1
					}
					if a, b := p.HopLink(l[0], l[1]), p.HopLink(l[1], l[0]); a != want || b != want {
						t.Fatalf("config %d, %v: HopLink(%d,%d) = %d, reverse %d, want %d", ci, topo.Kind(), l[0], l[1], a, b, want)
					}
				}
				strangers := rng.New(seed).Split(0x11D)
				n := topo.N()
				for e := 0; e < 40; e++ {
					p.BeginEpoch(e)
					ref.beginEpoch(e)
					check := func(a, b topology.NodeID) {
						got, want := p.LinkAt(a, b, p.HopLink(a, b)), p.Link(a, b)
						if got != want || got != ref.link(a, b) {
							t.Fatalf("config %d, %v, seed %d, epoch %d: LinkAt(%d,%d) = %+v, Link %+v, reference %+v",
								ci, topo.Kind(), seed, e, a, b, got, want, ref.link(a, b))
						}
					}
					for id := 0; id < n; id++ {
						a := topology.NodeID(id)
						for _, b := range topo.Neighbors(a) {
							check(a, b)
						}
					}
					for i := 0; i < 50; i++ {
						a, b := topology.NodeID(strangers.Intn(n)), topology.NodeID(strangers.Intn(n))
						if topo.IsNeighbor(a, b) {
							continue
						}
						if id := p.HopLink(a, b); id != -1 {
							t.Fatalf("config %d: strangers %d and %d share link %d", ci, a, b, id)
						}
						check(a, b)
					}
				}
			}
		}
	}
}

// BenchmarkPlanLink measures the per-hop oracle: one op is every directed
// hop of a 1000-node deployment under loss, link churn and an active
// partition. Link must stay allocation-free.
func BenchmarkPlanLink(b *testing.B) {
	topo := topology.Generate(topology.ModerateRandom, 1000, 1)
	p := NewPlan(topo, Config{Seed: 1, LinkLoss: 0.05, LinkFailRate: 0.01, LinkReviveAfter: 5,
		Partitions: []Partition{{From: 0, Until: 1 << 30, Kind: Bisect}}})
	for e := 0; e < 10; e++ {
		p.BeginEpoch(e)
	}
	hops := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for id := 0; id < topo.N(); id++ {
			from := topology.NodeID(id)
			for _, nb := range topo.Neighbors(from) {
				if p.Link(from, nb).Cut {
					hops++
				}
			}
		}
	}
	if hops == 0 && b.N > 0 {
		b.Fatal("no hop was cut")
	}
}
