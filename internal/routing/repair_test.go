package routing

import (
	"slices"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// forkTopology builds a 5-node layout where the path 0-1-2 has a one-hop
// detour through 3, and 4 is an extra neighbour of 0 and 3:
//
//	0 —— 1 —— 2      0-3, 3-2, 3-1 links exist; 4 links to 0 and 3.
//	  \   |  /
//	    \ 3 /
//	4 —— /
func forkTopology(t *testing.T) *topology.Topology {
	t.Helper()
	pos := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}, {X: 1, Y: 0.8}, {X: 0, Y: 1.2}}
	topo := topology.FromPositions(pos, 1.3)
	for _, link := range [][2]topology.NodeID{{0, 1}, {1, 2}, {0, 3}, {3, 2}, {3, 1}, {0, 4}, {3, 4}} {
		if !topo.IsNeighbor(link[0], link[1]) {
			t.Fatalf("expected link %v missing", link)
		}
	}
	if topo.IsNeighbor(0, 2) {
		t.Fatal("unexpected 0-2 link")
	}
	return topo
}

// TestRepairProbesToDeadNeighboursCharged is the traffic-accounting
// regression for boundedDetour: an exploration probe toward a failed node
// is a real transmission (it just gets no ack), so it must be charged with
// the full retry bundle, not silently skipped.
func TestRepairProbesToDeadNeighboursCharged(t *testing.T) {
	topo := forkTopology(t)
	net := sim.NewNetwork(topo, 0, 1)
	net.Fail(1)
	net.Fail(4)
	repaired, ok := NewRepairer(topo, net, DefaultRepairLimit).Repair(Path{0, 1, 2})
	if !ok {
		t.Fatal("detour through 3 exists but repair failed")
	}
	if repaired.Contains(1) || repaired.Contains(4) {
		t.Fatalf("repaired path %v uses a failed node", repaired)
	}
	m := net.Metrics()
	// The BFS from 0 probes, in neighbour order: 0->1 (dead), 0->3 (live),
	// 0->4 (dead), then from 3: 3->1 (dead, never marked seen), 3->2
	// (found). Dead probes burn 1+MaxRetries attempts each; live probes
	// one (lossless run).
	deadProbes, liveProbes := int64(3), int64(2)
	wantMsgs := deadProbes*int64(1+net.MaxRetries) + liveProbes
	if m.TotalMessages != wantMsgs {
		t.Fatalf("TotalMessages = %d, want %d (dead probes must be charged)", m.TotalMessages, wantMsgs)
	}
	if m.Drops != deadProbes {
		t.Fatalf("Drops = %d, want %d", m.Drops, deadProbes)
	}
}

func TestRepairMultipleFailuresOnOnePath(t *testing.T) {
	topo := topology.Generate(topology.Grid, 100, 1)
	tree := BuildTree(topo, topology.Base, nil)
	var path Path
	for i := topo.N() - 1; i > 0; i-- {
		if p := tree.AppendPathToRoot(nil, topology.NodeID(i)); p.Hops() >= 6 {
			path = p
			break
		}
	}
	if path == nil {
		t.Fatal("no long path found")
	}
	net := sim.NewNetwork(topo, 0, 1)
	victims := []topology.NodeID{path[1], path[3], path[len(path)-2]}
	for _, v := range victims {
		net.Fail(v)
	}
	repaired, ok := NewRepairer(topo, net, DefaultRepairLimit).Repair(path)
	if !ok {
		t.Fatal("multi-failure repair failed on a grid")
	}
	assertPathClean(t, topo, net, repaired, path[0], path[len(path)-1])
}

func TestRepairBothEndpointsFailed(t *testing.T) {
	topo := forkTopology(t)
	net := sim.NewNetwork(topo, 0, 1)
	net.Fail(0)
	net.Fail(2)
	if _, ok := NewRepairer(topo, net, DefaultRepairLimit).Repair(Path{0, 1, 2}); ok {
		t.Fatal("repaired a path with both endpoints failed")
	}
	net2 := sim.NewNetwork(topo, 0, 1)
	net2.Fail(0)
	if _, ok := NewRepairer(topo, net2, DefaultRepairLimit).Repair(Path{0, 1, 2}); ok {
		t.Fatal("repaired a path whose source endpoint failed")
	}
}

// assertPathClean checks link-validity, loop-freedom, endpoint
// preservation and dead-node avoidance.
func assertPathClean(t *testing.T, topo *topology.Topology, net *sim.Network, p Path, src, dst topology.NodeID) {
	t.Helper()
	if len(p) == 0 || p[0] != src || p[len(p)-1] != dst {
		t.Fatalf("path %v endpoints != (%d,%d)", p, src, dst)
	}
	seen := map[topology.NodeID]bool{}
	for i, id := range p {
		if seen[id] {
			t.Fatalf("path %v revisits node %d", p, id)
		}
		seen[id] = true
		if !net.Alive(id) {
			t.Fatalf("path %v uses failed node %d", p, id)
		}
		if i > 0 && !topo.IsNeighbor(p[i-1], id) {
			t.Fatalf("path %v not link-valid at hop %d", p, i)
		}
	}
}

// TestRepairThenShortcutProperty: under randomized failures, every
// successful repair — and its Shortcut compression — must be link-valid,
// loop-free, endpoint-preserving and dead-node-free.
func TestRepairThenShortcutProperty(t *testing.T) {
	for _, kind := range []topology.Kind{topology.Grid, topology.ModerateRandom} {
		topo := topology.Generate(kind, 100, 5)
		tree := BuildTree(topo, topology.Base, nil)
		src := rng.New(99).Split(uint64(kind))
		repairs := 0
		for trial := 0; trial < 60; trial++ {
			a := topology.NodeID(1 + src.Intn(topo.N()-1))
			b := topology.NodeID(1 + src.Intn(topo.N()-1))
			if a == b {
				continue
			}
			path := treePath(tree, a, b)
			if path.Hops() < 3 {
				continue
			}
			net := sim.NewNetwork(topo, 0, uint64(trial)+1)
			// Fail 1-3 random nodes, possibly on the path, never endpoints.
			for k := src.Intn(3) + 1; k > 0; k-- {
				v := path[1+src.Intn(len(path)-2)]
				if src.Bool(0.5) {
					v = topology.NodeID(src.Intn(topo.N()))
				}
				if v != a && v != b {
					net.Fail(v)
				}
			}
			repaired, ok := NewRepairer(topo, net, DefaultRepairLimit).Repair(path)
			if !ok {
				continue
			}
			repairs++
			assertPathClean(t, topo, net, repaired, a, b)
			sc := Shortcut(topo, repaired, shortcutScratch(topo))
			assertPathClean(t, topo, net, sc, a, b)
			if sc.Hops() > repaired.Hops() {
				t.Fatalf("shortcut lengthened repaired path: %d -> %d", repaired.Hops(), sc.Hops())
			}
		}
		if repairs == 0 {
			t.Fatalf("%v: property test exercised no successful repairs", kind)
		}
	}
}

// TestSharedRepairerMatchesFreshRepairers: a Repairer shared across paths
// must produce the exact paths a fresh Repairer per path produces; only the
// duplicate exploration is saved.
func TestSharedRepairerMatchesFreshRepairers(t *testing.T) {
	topo, victim, paths := repairFixture(t)
	net := sim.NewNetwork(topo, 0, 1)
	net.Fail(victim)
	rp := NewRepairer(topo, net, DefaultRepairLimit)
	for _, p := range paths {
		// Run the reference on a private network with the same failure.
		failedNet := sim.NewNetwork(topo, 0, 1)
		failedNet.Fail(victim)
		want, wantOK := NewRepairer(topo, failedNet, DefaultRepairLimit).Repair(p)
		got, gotOK := rp.Repair(p)
		if wantOK != gotOK {
			t.Fatalf("shared ok=%v, fresh ok=%v", gotOK, wantOK)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("shared path %v != fresh path %v", got, want)
		}
	}
}

// TestRepairerChargesExplorationOnce: two paths broken at the same gap
// explore once; the second repair reuses the memoized detour for free.
func TestRepairerChargesExplorationOnce(t *testing.T) {
	topo := topology.Generate(topology.Grid, 100, 1)
	tree := BuildTree(topo, topology.Base, nil)
	// Find two distinct deep nodes routing through a common grandparent
	// chain so both paths contain the same (pred, victim, succ) triple.
	var p1, p2 Path
	var victim topology.NodeID = -1
	for i := topo.N() - 1; i > 0 && p2 == nil; i-- {
		p := tree.AppendPathToRoot(nil, topology.NodeID(i))
		if p.Hops() < 4 {
			continue
		}
		if victim < 0 {
			p1, victim = p, p[len(p)-3]
			continue
		}
		if p[0] != p1[0] && p.Contains(victim) && p[len(p)-1] == p1[len(p1)-1] {
			p2 = p
		}
	}
	if p2 == nil {
		t.Skip("grid produced no two paths sharing the victim hop")
	}
	net := sim.NewNetwork(topo, 0, 1)
	net.Fail(victim)
	rp := NewRepairer(topo, net, DefaultRepairLimit)
	if _, ok := rp.Repair(p1); !ok {
		t.Fatal("first repair failed")
	}
	after1 := net.Metrics().TotalBytes
	if after1 == 0 {
		t.Fatal("first repair charged nothing")
	}
	if _, ok := rp.Repair(p2); !ok {
		t.Fatal("second repair failed")
	}
	if got := net.Metrics().TotalBytes; got != after1 {
		t.Fatalf("second repair over the same gap re-charged exploration: %d -> %d bytes", after1, got)
	}
	rp.Reset()
	if _, ok := rp.Repair(p2); !ok {
		t.Fatal("post-Reset repair failed")
	}
	if got := net.Metrics().TotalBytes; got == after1 {
		t.Fatal("Reset did not drop the memoized detours")
	}
}

// TestRepairerSurvivesLaterFailure: one Repairer, never Reset, serves two
// failures some cycles apart. The first repair memoizes a one-relay detour;
// then the relay fails, or with a link check its first link is cut, and the
// second repair of the same path must search the gap again instead of
// splicing the stale detour, which bridged the same gap and so was taken
// again and again: the repair never returned. It must return what a fresh
// Repairer returns, a clean path.
func TestRepairerSurvivesLaterFailure(t *testing.T) {
	topo := topology.Generate(topology.Grid, 100, 1)
	tree := BuildTree(topo, topology.Base, nil)
	for _, linkCut := range []bool{false, true} {
		cut := map[[2]topology.NodeID]bool{}
		check := func(from, to topology.NodeID) bool { return !cut[[2]topology.NodeID{from, to}] }
		newRepairer := func(net *sim.Network) *Repairer {
			rp := NewRepairer(topo, net, DefaultRepairLimit)
			if linkCut {
				rp.SetLinkCheck(check)
			}
			return rp
		}
		// A base-tree path whose failed relay is bridged by a one-relay
		// detour.
		var net *sim.Network
		var rp *Repairer
		var path, detour Path
		for i := topo.N() - 1; i > 0 && detour == nil; i-- {
			p := tree.AppendPathToRoot(nil, topology.NodeID(i))
			for k := 1; k+1 < len(p) && detour == nil; k++ {
				net = sim.NewNetwork(topo, 0, 1)
				net.Fail(p[k])
				rp = newRepairer(net)
				if _, ok := rp.Repair(p); ok {
					if d := rp.detours[detourKey{p[k-1], p[k+1]}]; len(d) == 3 {
						path, detour = p, d
					}
				}
			}
		}
		if detour == nil {
			t.Fatal("no repair memoized a one-relay detour")
		}
		if linkCut {
			cut[[2]topology.NodeID{detour[0], detour[1]}] = true
			cut[[2]topology.NodeID{detour[1], detour[0]}] = true
		} else {
			net.Fail(detour[1])
		}
		type repaired struct {
			p  Path
			ok bool
		}
		done := make(chan repaired, 1)
		go func() {
			p, ok := rp.Repair(path)
			done <- repaired{p, ok}
		}()
		var got repaired
		select {
		case got = <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("link cut %v: repairing %v after its detour %v broke never returned", linkCut, path, detour)
		}
		want, wantOK := newRepairer(net).Repair(path)
		if got.ok != wantOK || !slices.Equal(got.p, want) {
			t.Fatalf("link cut %v: reused Repairer gave %v (ok %v), a fresh one %v (ok %v)", linkCut, got.p, got.ok, want, wantOK)
		}
		if !got.ok {
			t.Fatalf("link cut %v: %v was not repaired", linkCut, path)
		}
		assertPathClean(t, topo, net, got.p, path[0], path[len(path)-1])
		for i := 0; i+1 < len(got.p); i++ {
			if !check(got.p[i], got.p[i+1]) {
				t.Fatalf("link cut %v: %v crosses the cut link at hop %d", linkCut, got.p, i)
			}
		}
	}
}

// TestRebuildTreeLiveRoutesAroundFailure: after an interior failure the
// rebuilt tree routes every still-reachable node around the dead one, and
// cut-off nodes keep their stale (charged-but-dropped) parent edge.
func TestRebuildTreeLiveRoutesAroundFailure(t *testing.T) {
	topo := topology.Generate(topology.Grid, 100, 1)
	old := BuildTree(topo, topology.Base, nil)
	live := topology.NewLiveness(topo.N())
	// Fail an interior node with children.
	var victim topology.NodeID = -1
	for i := topology.NodeID(1); int(i) < topo.N(); i++ {
		if len(old.ChildrenOf(i)) > 0 && old.Depth[i] >= 2 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no interior node")
	}
	live.Fail(victim)
	nt := RebuildTreeLive(topo, old, old.Root, nil, live)
	reachable, _ := topo.BFSLive(topology.Base, live)
	for i := 0; i < topo.N(); i++ {
		id := topology.NodeID(i)
		p := nt.AppendPathToRoot(nil, id)
		if reachable[id] >= 0 {
			if p[len(p)-1] != topology.Base {
				t.Fatalf("reachable node %d path %v does not end at base", id, p)
			}
			if p.Contains(victim) && id != victim {
				t.Fatalf("reachable node %d still routes through failed %d: %v", id, victim, p)
			}
			for k := 1; k < len(p); k++ {
				if !topo.IsNeighbor(p[k-1], p[k]) {
					t.Fatalf("rebuilt path %v not link-valid", p)
				}
			}
		} else if id != victim && nt.Parent[id] != old.Parent[id] {
			t.Fatalf("cut node %d was rewired (%d -> %d) instead of keeping its stale parent",
				id, old.Parent[id], nt.Parent[id])
		}
		// Depth invariant bottom-up passes rely on.
		if pa := nt.Parent[id]; pa >= 0 && nt.Depth[id] != nt.Depth[pa]+1 {
			t.Fatalf("depth inconsistency at %d: %d vs parent %d", id, nt.Depth[id], nt.Depth[pa])
		}
	}
}

// TestRepairTreesRebuildsAffectedTreesOnly: a failed leaf forces no
// rebuild; a failed interior node rebuilds the trees it serves, charges
// shared traffic, and heals PathToBase for the failed node's subtree.
func TestRepairTreesRebuildsAffectedTreesOnly(t *testing.T) {
	topo := topology.Generate(topology.ModerateRandom, 100, 1)
	live := topology.NewLiveness(topo.N())
	net := sim.NewSharedNetwork(topo, 0, 1, live)
	vals := make([]int32, topo.N())
	for i := range vals {
		vals[i] = int32(i % 10)
	}
	s := NewSubstrate(topo, Options{
		NumTrees: 2,
		Indexes:  []IndexSpec{{Attr: "k", Kind: BloomSummary, Value: valuesOf(vals)}},
	}, nil)
	// A leaf in every tree: no rebuild needed.
	var leaf topology.NodeID = -1
	for i := topology.NodeID(1); int(i) < topo.N(); i++ {
		if len(s.Trees[0].ChildrenOf(i)) == 0 && len(s.Trees[1].ChildrenOf(i)) == 0 {
			leaf = i
			break
		}
	}
	if leaf >= 0 {
		live.Fail(leaf)
		if got := s.RepairTrees(net, live, []topology.NodeID{leaf}); got != 0 {
			t.Fatalf("leaf failure rebuilt %d trees, want 0", got)
		}
		live.Revive(leaf)
	}
	// An interior node of tree 0 with a subtree behind it.
	var victim, probe topology.NodeID = -1, -1
	for i := topology.NodeID(1); int(i) < topo.N(); i++ {
		if cs := s.Trees[0].ChildrenOf(i); len(cs) > 0 && s.Trees[0].Depth[i] >= 1 {
			victim, probe = i, cs[0]
			break
		}
	}
	if victim < 0 {
		t.Fatal("no interior node in tree 0")
	}
	live.Fail(victim)
	before := net.Metrics().TotalBytes
	if got := s.RepairTrees(net, live, []topology.NodeID{victim}); got < 1 {
		t.Fatalf("interior failure rebuilt %d trees, want >= 1", got)
	}
	if net.Metrics().TotalBytes <= before {
		t.Fatal("tree rebuild charged no shared traffic")
	}
	reachable, _ := topo.BFSLive(topology.Base, live)
	if reachable[probe] >= 0 {
		p := s.PathToBase(probe)
		if p.Contains(victim) {
			t.Fatalf("post-rebuild PathToBase(%d) still routes through failed %d: %v", probe, victim, p)
		}
		if p[len(p)-1] != topology.Base {
			t.Fatalf("post-rebuild PathToBase(%d) = %v does not reach the base", probe, p)
		}
	}
}

// repairFixture returns a grid, an interior node of its base tree to fail,
// and up to four base-tree paths through that node.
func repairFixture(tb testing.TB) (*topology.Topology, topology.NodeID, []Path) {
	tb.Helper()
	topo := topology.Generate(topology.Grid, 100, 1)
	tree := BuildTree(topo, topology.Base, nil)
	var victim topology.NodeID = -1
	var paths []Path
	for i := topo.N() - 1; i > 0 && len(paths) < 4; i-- {
		p := tree.AppendPathToRoot(nil, topology.NodeID(i))
		if p.Hops() < 4 {
			continue
		}
		if victim < 0 {
			victim = p[2]
		}
		if p.Contains(victim) && p[0] != victim {
			paths = append(paths, p)
		}
	}
	if len(paths) == 0 {
		tb.Fatal("no path through the victim")
	}
	return topo, victim, paths
}

// TestRepairAllocs pins repairWith's budget: with its detours memoized and
// its scratch grown, a Repairer allocates exactly the repaired path it
// returns.
func TestRepairAllocs(t *testing.T) {
	topo, victim, paths := repairFixture(t)
	net := sim.NewNetwork(topo, 0, 1)
	net.Fail(victim)
	rp := NewRepairer(topo, net, DefaultRepairLimit)
	repairAll := func() {
		for _, p := range paths {
			if _, ok := rp.Repair(p); !ok {
				t.Fatalf("path %v not repaired", p)
			}
		}
	}
	repairAll() // memoize the detours, grow the scratch
	if per := testing.AllocsPerRun(20, repairAll) / float64(len(paths)); per != 1 {
		t.Fatalf("Repair allocates %.2f objects per call, want 1 (the returned path)", per)
	}
	// The returned paths are the caller's: a later repair must not touch
	// an earlier one.
	first, _ := rp.Repair(paths[0])
	kept := slices.Clone(first)
	rp.Repair(paths[len(paths)-1])
	if !slices.Equal(first, kept) {
		t.Fatalf("an earlier repaired path changed under a later repair: %v, was %v", first, kept)
	}
}

// BenchmarkRepairFresh times one repair by a fresh Repairer, which pays its
// own exploration: the detection-clock sweep's cost per pair.
func BenchmarkRepairFresh(b *testing.B) {
	topo, victim, paths := repairFixture(b)
	net := sim.NewNetwork(topo, 0, 1)
	net.Fail(victim)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, ok := NewRepairer(topo, net, DefaultRepairLimit).Repair(paths[i%len(paths)]); !ok {
			b.Fatal("path not repaired")
		}
	}
}
