// White-box tests for In-Net's one pair move and its settle: every phase
// that moves pairs (Adapt, Recover, a detection-clock sweep) leaves each
// producer's tree, tree numbers and registrations as a fresh build would,
// and replays each producer's window at most once.

package join

import (
	"slices"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/faults"
	"repro/internal/mpo"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// checkSettled fails unless e is settled: every live pair is registered at
// its join node's site with valid handles (checkHandles), and, under
// multicast, each producer's tree equals a fresh build from its in-network
// segments in pair order, with nums[i] the number of each live pair's join
// node in it (-1 for one at the base). A pair abandoned for a dead endpoint
// marks no rebuild, so its segment stays in its producers' trees until
// something else rebuilds them; its nums entry, still >= 0 until then, is
// what says the tree holds it.
func checkSettled(t testing.TB, e *engine, when string) {
	t.Helper()
	checkHandles(t, e)
	if !e.opts.Multicast {
		return
	}
	var b mpo.Builder
	for _, ps := range e.producers {
		if len(ps.nums) != len(ps.pairs) {
			t.Fatalf("%s: producer %v: %d tree numbers for %d pairs", when, ps.key, len(ps.nums), len(ps.pairs))
		}
		var paths []routing.Path
		var built []int // the pairs whose segments the fresh build unions
		for i, p := range ps.pairs {
			if p.jIdx >= 0 && (!p.dead || ps.nums[i] >= 0) {
				paths = append(paths, p.segment(ps.key.role, new(routing.Path)))
				built = append(built, i)
			}
		}
		want := b.Build(ps.key.id, paths)
		if ps.tree.Root != want.Root || !slices.Equal(ps.tree.EdgeList(), want.EdgeList()) ||
			ps.tree.InteriorStateBytes(1) != want.InteriorStateBytes(1) {
			t.Fatalf("%s: producer %v: tree %v, a fresh build of its segments %v", when, ps.key, ps.tree.EdgeList(), want.EdgeList())
		}
		nums := make([]int32, len(ps.pairs))
		for i := range nums {
			nums[i] = -1
		}
		for k, i := range built {
			nums[i] = b.Ends()[k]
		}
		for i, p := range ps.pairs {
			if !p.dead && ps.nums[i] != nums[i] {
				t.Fatalf("%s: producer %v: pair (%d,%d) joining at %d has tree number %d, want %d",
					when, ps.key, p.s, p.t, p.joinNode(), ps.nums[i], nums[i])
			}
		}
	}
}

// settleVictim returns the lowest-ID live node of kind among the live
// in-network pairs: a "relay" on a pair's path or a "join" node, neither an
// endpoint of any pair nor the base, or a pair's t "endpoint"; -1 when
// there is none.
func settleVictim(e *engine, kind string) topology.NodeID {
	ends := map[topology.NodeID]bool{topology.Base: true}
	for _, p := range e.pairs {
		ends[p.s], ends[p.t] = true, true
	}
	victim := topology.NodeID(-1)
	for _, p := range e.pairs {
		if p.dead || p.jIdx < 0 {
			continue
		}
		nodes := p.path
		switch kind {
		case "join":
			nodes = p.path[p.jIdx : p.jIdx+1]
		case "endpoint":
			nodes = p.path[len(p.path)-1:]
		}
		for _, n := range nodes {
			if (kind == "endpoint" || !ends[n]) && e.cfg.Net.Alive(n) && (victim < 0 || n < victim) {
				victim = n
			}
		}
	}
	return victim
}

// TestMovesLeaveSettledState drives learning In-Net with wrong estimates
// under lossy links, link churn, a partition, node churn (a relay join node
// and an endpoint, each recovered by Recover) and a silent join-node failure
// (recovered by the detection clock's sweep in Step), and checks the
// settled state after every Adapt, Recover and Step. Moves of every kind
// must have happened, or the check proves nothing.
func TestMovesLeaveSettledState(t *testing.T) {
	h := newHarness(t, "Q2", workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.05})
	const cycles = 80
	for _, opts := range []InnetOptions{
		{},
		{Multicast: true},
		{Multicast: true, GroupOpt: true},
		{Multicast: true, PathCollapse: true, GroupOpt: true},
	} {
		name := Innet{Opts: opts}.Name()
		cfg := h.config(0, 0.05)
		cfg.Opt = costmodel.Params{SigmaS: 1, SigmaT: 0.1, SigmaST: 0.05, W: h.spec.W}
		cfg.Adapt = true
		plan := faults.NewPlan(h.topo, faults.Config{Seed: 3, LinkLoss: 0.1, LinkFailRate: 0.01, LinkReviveAfter: 4,
			Partitions: []faults.Partition{{From: 44, Until: 48, Kind: faults.Bisect}}})
		cfg.Net.SetFaults(plan)
		e := Innet{Opts: opts}.Start(cfg).(*engine)
		checkSettled(t, e, name+" Start")
		rp := routing.NewRepairer(h.topo, cfg.Net, routing.DefaultRepairLimit)
		var migrated, aborted, repaired, fallbacks, sweeps int
		for cycle := 0; cycle < cycles; cycle++ {
			plan.BeginEpoch(cycle)
			if cycle == 20 || cycle == 36 {
				victim := settleVictim(e, map[int]string{20: "relay", 36: "endpoint"}[cycle])
				if victim < 0 {
					t.Fatalf("%s: no victim in cycle %d", name, cycle)
				}
				cfg.Net.Fail(victim)
				cfg.Sub.RepairTrees(nil, cfg.Net.Liveness(), []topology.NodeID{victim})
				rp.SetLinkCheck(nil)
				r, f := e.Recover([]topology.NodeID{victim}, rp)
				repaired, fallbacks = repaired+r, fallbacks+f
				checkSettled(t, e, name+" Recover")
			}
			if plan.AnyCut() {
				rp.SetLinkCheck(plan.LinkUsable)
				r, f := e.Recover(nil, rp)
				repaired, fallbacks = repaired+r, fallbacks+f
				checkSettled(t, e, name+" link Recover")
			}
			if cycle == 56 {
				// Silent: no Recover; a failed delivery starts the pair's
				// detection clock, and a later Step's sweep acts on it.
				cfg.Net.Fail(settleVictim(e, "join"))
			}
			due := e.nextRecover != 0 && cycle >= e.nextRecover
			e.Step(cycle)
			if due {
				sweeps++
			}
			checkSettled(t, e, name+" Step")
			m, a := e.Adapt(cycle)
			migrated, aborted = migrated+m, aborted+a
			checkSettled(t, e, name+" Adapt")
		}
		dead := 0
		for _, p := range e.pairs {
			if p.dead {
				dead++
			}
		}
		t.Logf("%s: %d migrations, %d aborted, %d repaired, %d fallbacks, %d detection sweeps, %d pairs abandoned",
			name, migrated, aborted, repaired, fallbacks, sweeps, dead)
		if migrated == 0 || repaired == 0 || fallbacks == 0 || sweeps == 0 || dead == 0 {
			t.Errorf("%s: the battery missed a kind of move: %d migrations, %d repaired, %d fallbacks, %d detection sweeps, %d pairs abandoned",
				name, migrated, repaired, fallbacks, sweeps, dead)
		}
	}
}

// TestAbortsReplayEachProducerOnce: two in-network pairs that share a
// producer migrate in the same Adapt, and both their targets died this
// epoch, so both abort into the base fallback. The shared producer replays
// its retained window to the base once, not once per pair: the phase's data
// traffic is exactly one replay per distinct producer of the aborted pairs.
// A twin run, left alive, finds the epoch and the pairs.
func TestAbortsReplayEachProducerOnce(t *testing.T) {
	h := newHarness(t, "Q2", workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.05})
	start := func() checked {
		cfg := h.config(0, 0)
		cfg.Opt = costmodel.Params{SigmaS: 1, SigmaT: 0.1, SigmaST: 0.05, W: h.spec.W}
		cfg.Adapt = true
		return checkedInnet(t, Innet{}, cfg)
	}
	twin, real := start(), start()
	endpoint := map[topology.NodeID]bool{topology.Base: true}
	for _, p := range twin.pairs {
		endpoint[p.s], endpoint[p.t] = true, true
	}
	// replay is what one replay of ps charges at loss 0 over live nodes:
	// every hop of its base-tree path once.
	replay := func(ps *producerState) int64 {
		path := real.cfg.Sub.Trees[0].AppendPathToRoot(nil, ps.key.id)
		for _, n := range path {
			if !real.cfg.Net.Alive(n) {
				t.Fatalf("producer %v's base path crosses a killed target", ps.key)
			}
		}
		return int64(len(path)-1) * int64(sim.HeaderBytes+ps.recent.Len()*sim.TupleBytes)
	}
	for cycle := 0; cycle < 100; cycle++ {
		twin.Step(cycle)
		real.Step(cycle)
		before := make([]placement, len(twin.pairs))
		for i, p := range twin.pairs {
			before[i] = placement{p.jIdx, p.joinNode()}
		}
		twin.Adapt(cycle)
		// moved[i]: pair i moved from one in-network join node to another
		// that produces for no pair.
		moved := make([]bool, len(twin.pairs))
		for i, p := range twin.pairs {
			moved[i] = before[i].idx >= 0 && p.jIdx >= 0 && p.joinNode() != before[i].node && !endpoint[p.joinNode()]
		}
		a, b := -1, -1
		for i := range moved {
			for k := i + 1; k < len(moved) && a < 0; k++ {
				pi, pk := twin.pairs[i], twin.pairs[k]
				if moved[i] && moved[k] && (pi.prodS == pk.prodS || pi.prodT == pk.prodT) {
					a, b = i, k
				}
			}
		}
		if a < 0 {
			real.Adapt(cycle)
			continue
		}
		targets := []topology.NodeID{twin.pairs[a].joinNode(), twin.pairs[b].joinNode()}
		for _, n := range targets {
			real.cfg.Net.Fail(n)
		}
		// Every pair the twin moved in-network onto a killed node aborts
		// into the fallback; its producers are the ones that replay.
		var want int64
		var replayed []*producerState
		for i, p := range real.pairs {
			if moved[i] && slices.Contains(targets, twin.pairs[i].joinNode()) {
				for _, ps := range []*producerState{p.prodS, p.prodT} {
					if !slices.Contains(replayed, ps) {
						replayed = append(replayed, ps)
						want += replay(ps)
					}
				}
			}
		}
		shared := real.pairs[a].prodS
		if shared != real.pairs[b].prodS {
			shared = real.pairs[a].prodT
		}
		if replay(shared) == 0 {
			t.Fatalf("shared producer %v has nothing to replay", shared.key)
		}
		data := real.cfg.Net.Metrics().KindBytes(sim.Data)
		if _, aborted := real.Adapt(cycle); aborted < 2 {
			t.Fatalf("killing targets %v aborted %d migrations, want at least 2", targets, aborted)
		}
		for _, i := range []int{a, b} {
			if real.pairs[i].jIdx >= 0 {
				t.Fatalf("aborted pair %d not at the base (join node %d)", i, real.pairs[i].joinNode())
			}
		}
		if got := real.cfg.Net.Metrics().KindBytes(sim.Data) - data; got != want {
			t.Fatalf("the aborts replayed %d data bytes, want %d, one replay per producer (replaying shared producer %v twice reads %d)",
				got, want, shared.key, want+replay(shared))
		}
		return
	}
	t.Fatal("no Adapt moved two in-network pairs that share a producer")
}
