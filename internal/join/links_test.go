package join

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/dht"
	"repro/internal/faults"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// hopFinder is a fault plan whose link ids are ignored: every hop's state
// is found by its endpoints, as Transfer finds it. A run under it is the
// plain-Transfer reference of the same run under the plan itself.
type hopFinder struct{ *faults.Plan }

func (f hopFinder) LinkAt(from, to topology.NodeID, _ int32) sim.LinkState { return f.Link(from, to) }

// TestLinkIdsFollowPathChanges: link ids are resolved when a path is
// written and kept while it stands, so every way a path changes must reach
// them. Under a fault plan with heterogeneous per-link loss and link churn,
// two nodes fail mid-run: the base tree is patched (its parents move), DHT
// reroutes its stored legs in Recover, In-Net repairs its pairs' paths and
// compiles new rows, and In-Net with multicast rebuilds its producers'
// trees. Each run must leave the query's network metrics and result
// bitwise equal to the same run whose hops are all found by their
// endpoints, and every held id must equal a fresh lookup of its hop.
func TestLinkIdsFollowPathChanges(t *testing.T) {
	h := newHarness(t, "Q1", workload.Rates{SigmaS: 1, SigmaT: 1, SigmaST: 0.1})
	cases := []struct {
		label string
		alg   func() Continuous
	}{
		{"Naive", func() Continuous { return Naive{} }},
		{"Naive+merge", func() Continuous { return Naive{Merge: true} }},
		{"Yang+07", func() Continuous { return Yang07{} }},
		{"DHT", func() Continuous { return Hashed{Label: "DHT", Router: dht.NewRing(h.topo)} }},
		{"Innet", func() Continuous { return Innet{} }},
		{"Innet-cmg", func() Continuous { return Innet{Opts: InnetOptions{Multicast: true, GroupOpt: true}} }},
	}
	const cycles = 40
	run := func(alg Continuous, plain bool) (m sim.Metrics, res Result, repaired, patched int, k *siteStepper) {
		cfg := h.config(0, 0.05)
		plan := faults.NewPlan(h.topo, faults.Config{Seed: 3, LinkLoss: 0.4, LinkFailRate: 0.02, LinkReviveAfter: 2,
			DupProb: 0.1, DelayMax: 3})
		cfg.Net.SetFaults(plan)
		if plain {
			cfg.Net.SetFaults(hopFinder{plan})
		} else {
			// Trees built over a network with the plan keep its up-link
			// ids, which the run then sends by; construction is charged
			// to a network of its own.
			built := sim.NewNetwork(h.topo, 0, 1)
			built.SetFaults(plan)
			cfg.Sub = routing.NewSubstrate(h.topo, routing.Options{NumTrees: 3, Indexes: h.spec.Indexes,
				IndexPositions: h.spec.IndexPositions}, built)
		}
		st := alg.Start(cfg)
		k, _ = st.(*siteStepper)
		var pairs []*pairState
		if e, in := st.(*engine); in {
			k, pairs = &e.siteStepper, e.pairs
		}
		for cycle := 0; cycle < cycles; cycle++ {
			plan.BeginEpoch(cycle)
			if cycle == 12 || cycle == 25 {
				victim := relayVictim(k, pairs)
				if victim < 0 {
					t.Fatalf("%s: no relay to fail in cycle %d", alg.Name(), cycle)
				}
				cfg.Net.Fail(victim)
				before := slices.Clone(cfg.Sub.Trees[0].Parent)
				cfg.Sub.RepairTrees(nil, cfg.Net.Liveness(), []topology.NodeID{victim})
				if !slices.Equal(cfg.Sub.Trees[0].Parent, before) {
					patched++
				}
				r, f := st.Recover([]topology.NodeID{victim}, routing.NewRepairer(h.topo, cfg.Net, routing.DefaultRepairLimit))
				repaired += r + f
			}
			st.Step(cycle)
			st.Adapt(cycle)
		}
		return *cfg.Net.Metrics(), *st.Finish(), repaired, patched, k
	}
	for _, c := range cases {
		m, res, repaired, patched, k := run(c.alg(), false)
		want, wantRes, _, _, _ := run(c.alg(), true)
		if !reflect.DeepEqual(m, want) || !reflect.DeepEqual(res, wantRes) {
			t.Errorf("%s: sending by link id diverged from finding each hop: %d bytes, %d drops, %d results (digest %#x), want %d, %d, %d (%#x)",
				c.label, m.TotalBytes, m.Drops, res.Results, res.Digest, want.TotalBytes, want.Drops, wantRes.Results, wantRes.Digest)
		}
		if patched != 2 {
			t.Errorf("%s: the base tree's parents moved in %d repairs, want 2", c.label, patched)
		}
		if (c.label == "DHT" || c.label == "Innet" || c.label == "Innet-cmg") && repaired == 0 {
			t.Errorf("%s: the failures repaired no path", c.label)
		}
		if m.CutDrops == 0 {
			t.Errorf("%s: no transfer met a cut link", c.label)
		}
		checkHeldLinks(t, c.label, k)
	}
}

// relayVictim picks the node to fail: the live node that relays the most
// of the query's off-tree paths (stored legs and in-network pairs' paths),
// or, when there are none, of its base-tree paths (base legs and sites'
// paths, walked on the base tree as it stands); lowest ID on ties,
// preferring nodes that produce for no route, never a site's node or the
// base. Failing it changes paths, and ends as few routes as it can.
func relayVictim(k *siteStepper, pairs []*pairState) topology.NodeID {
	producer := make([]bool, k.cfg.Topo.N())
	for _, r := range k.routes {
		producer[r.id] = true
	}
	var offTree, onTree []routing.Path
	for _, r := range k.routes {
		for _, l := range k.legs[r.first:r.end] {
			switch {
			case !l.base:
				offTree = append(offTree, l.path)
			case l.to == topology.Base:
				onTree = append(onTree, k.cfg.Sub.PathToBase(r.id))
			default:
				onTree = append(onTree, k.cfg.Sub.PathToBase(l.to))
			}
		}
	}
	for _, p := range pairs {
		if p.jIdx >= 0 {
			offTree = append(offTree, p.path)
		}
	}
	for _, at := range k.sites {
		onTree = append(onTree, k.cfg.Sub.PathToBase(at.node))
	}
	for _, paths := range [][]routing.Path{offTree, onTree} {
		relays := make([]int, len(producer))
		for _, path := range paths {
			for i := 1; i+1 < len(path); i++ {
				relays[path[i]]++
			}
		}
		for _, at := range k.sites {
			relays[at.node] = 0
		}
		for _, producers := range []bool{false, true} {
			victim := topology.NodeID(-1)
			for n, c := range relays {
				id := topology.NodeID(n)
				if producer[n] == producers && id != topology.Base && k.cfg.Net.Alive(id) && c > 0 && (victim < 0 || c > relays[victim]) {
					victim = id
				}
			}
			if victim >= 0 {
				return victim
			}
		}
	}
	return -1
}

// checkHeldLinks fails unless every link id k holds, for a stored leg or a
// multicast tree's edges, and every up-link id its substrate's trees keep
// (which base legs and sites send by), equals a fresh lookup of its hop.
func checkHeldLinks(t *testing.T, label string, k *siteStepper) {
	t.Helper()
	net := k.cfg.Net
	held := 0
	check := func(what string, path routing.Path, links []int32) {
		if want := net.AppendLinks(nil, path); !slices.Equal(links, want) {
			t.Errorf("%s: %s %v holds link ids %v, want %v", label, what, path, links, want)
		}
		held += len(links)
	}
	for _, l := range k.legs {
		if l.tree != nil {
			for i, e := range l.tree.EdgeList() {
				check("tree edge", e[:], l.tree.EdgeLinks(net)[i:i+1])
			}
		} else if len(l.path) > 1 {
			check("leg", l.path, k.linksOf(l.ids, l.path))
		}
	}
	for ti, tree := range k.cfg.Sub.Trees {
		if tree.UpLink == nil {
			t.Fatalf("%s: tree %d keeps no up-link ids", label, ti)
		}
		for n, p := range tree.Parent {
			if id := topology.NodeID(n); p >= 0 {
				check("up-link", routing.Path{id, p}, tree.UpLink[n:n+1])
			}
		}
	}
	if held == 0 {
		t.Errorf("%s: the stepper holds no link id", label)
	}
}
