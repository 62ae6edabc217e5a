package sim_test

import (
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestTransferLinksMatchesTransfer: sending over link ids resolved once is
// sending over hops found one by one. Two networks with one loss seed and
// one fault plan, under link churn, both partition kinds, duplicates,
// delay, dead nodes and relay-queue limits, carry the same random-walk
// paths for 30 epochs, one with Transfer and one with TransferLinks; every
// call's outcome, the final Metrics and the next loss draw must agree.
func TestTransferLinksMatchesTransfer(t *testing.T) {
	topo := topology.Generate(topology.ModerateRandom, 200, 1)
	plan := faults.NewPlan(topo, faults.Config{Seed: 4, LinkLoss: 0.3, LinkFailRate: 0.03, LinkReviveAfter: 4,
		DupProb: 0.2, DelayMax: 3,
		Partitions: []faults.Partition{{From: 8, Until: 14, Kind: faults.Bisect}, {From: 20, Until: 26, Kind: faults.Region, Region: 2}}})
	var nets [2]*sim.Network
	for i := range nets {
		nets[i] = sim.NewNetwork(topo, 0.05, 17)
		nets[i].QueueLimit = 3
		nets[i].SetFaults(plan)
		nets[i].Fail(31)
		nets[i].Fail(77)
	}
	walk := rng.New(3).Split(5)
	var links []int32
	for e := 0; e < 30; e++ {
		plan.BeginEpoch(e)
		for _, n := range nets {
			n.BeginCycle(e)
		}
		for msg := 0; msg < 150; msg++ {
			at := topology.NodeID(walk.Intn(topo.N()))
			path := []topology.NodeID{at}
			for len(path) < 2+walk.Intn(8) {
				nbs := topo.Neighbors(at)
				at = nbs[walk.Intn(len(nbs))]
				path = append(path, at)
			}
			links = nets[1].AppendLinks(links[:0], path)
			if len(links) != len(path)-1 {
				t.Fatalf("AppendLinks gave %d ids for a %d-hop path", len(links), len(path)-1)
			}
			kind := sim.MsgKind(msg % 4)
			okA, hopsA := nets[0].Transfer(path, sim.TupleBytes, kind, sim.Flow{})
			okB, hopsB := nets[1].TransferLinks(path, links, sim.TupleBytes, kind)
			if okA != okB || hopsA != hopsB {
				t.Fatalf("epoch %d, message %d over %v: Transfer = (%v, %d), TransferLinks = (%v, %d)",
					e, msg, path, okA, hopsA, okB, hopsB)
			}
		}
	}
	a, b := *nets[0].Metrics(), *nets[1].Metrics()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("metrics differ:\nTransfer      %+v\nTransferLinks %+v", a, b)
	}
	if a.CutDrops == 0 || a.Duplicates == 0 || a.QueueDrops == 0 || a.Delivered == 0 || a.DelaySlots == 0 {
		t.Fatalf("the run did not exercise every outcome: %+v", a)
	}
	if x, y := sim.NextLossDraw(nets[0]), sim.NextLossDraw(nets[1]); x != y {
		t.Fatalf("loss streams diverged: next draws %#x and %#x", x, y)
	}
	if ids := sim.NewNetwork(topo, 0.05, 17).AppendLinks(nil, []topology.NodeID{0, topo.Neighbors(0)[0]}); ids != nil {
		t.Fatalf("a fault-free network resolved link ids %v", ids)
	}
}

// TestTransferUpMatchesTransferLinks: walking a parent chain is sending
// over the path it spells, with each hop's id read off the chain's up-link
// column. For every node of a Moderate 100 tree, with and without a fault
// plan, two networks with one loss seed send from the node to the root,
// one over the written path and its ids with TransferLinks, one with
// TransferUp; every call's outcome, the final Metrics and the next loss
// draw must agree. One node's chain is stale (it ends short of the root)
// and a dead relay sits on others.
func TestTransferUpMatchesTransferLinks(t *testing.T) {
	topo := topology.Generate(topology.ModerateRandom, 100, 1)
	depth, parent := topo.BFS(topology.Base)
	// The stale chain ends at the first node two hops down; the dead relay
	// is the first other node with a child below it.
	stale, relay := topology.NodeID(-1), topology.NodeID(-1)
	for i, d := range depth {
		if id := topology.NodeID(i); stale < 0 && d == 2 {
			stale = id
		}
	}
	for _, p := range parent {
		if p > topology.Base && p != stale && p != parent[stale] {
			relay = p
			break
		}
	}
	parent[stale] = -1
	plan := faults.NewPlan(topo, faults.Config{Seed: 2, LinkLoss: 0.3, LinkFailRate: 0.05, LinkReviveAfter: 3,
		DupProb: 0.2, DelayMax: 3})
	for _, faulted := range []bool{false, true} {
		var nets [2]*sim.Network
		var up []int32
		for i := range nets {
			nets[i] = sim.NewNetwork(topo, 0.05, 17)
			if faulted {
				nets[i].SetFaults(plan)
			}
			nets[i].Fail(relay)
		}
		if faulted {
			up = make([]int32, topo.N())
			for i, p := range parent {
				if up[i] = -1; p >= 0 {
					up[i] = nets[0].HopLink(topology.NodeID(i), p)
				}
			}
		}
		var path []topology.NodeID
		var links []int32
		for e := 0; e < 10; e++ {
			plan.BeginEpoch(e)
			for id := range topology.NodeID(topo.N()) {
				path, links = path[:0], links[:0]
				for at := id; at >= 0; at = parent[at] {
					path = append(path, at)
					if up != nil && parent[at] >= 0 {
						links = append(links, up[at])
					}
				}
				if up == nil {
					links = nil
				}
				kind := sim.MsgKind(int(id) % 4)
				okA, hopsA := nets[0].TransferLinks(path, links, sim.TupleBytes, kind)
				okB, hopsB := nets[1].TransferUp(parent, up, id, sim.TupleBytes, kind)
				if okA != okB || hopsA != hopsB {
					t.Fatalf("faulted %v, epoch %d, from %d over %v: TransferLinks = (%v, %d), TransferUp = (%v, %d)",
						faulted, e, id, path, okA, hopsA, okB, hopsB)
				}
			}
		}
		a, b := *nets[0].Metrics(), *nets[1].Metrics()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("faulted %v: metrics differ:\nTransferLinks %+v\nTransferUp    %+v", faulted, a, b)
		}
		if a.Drops == 0 || a.Delivered == 0 || faulted && (a.CutDrops == 0 || a.Duplicates == 0) {
			t.Fatalf("faulted %v: the run did not exercise every outcome: %+v", faulted, a)
		}
		if x, y := sim.NextLossDraw(nets[0]), sim.NextLossDraw(nets[1]); x != y {
			t.Fatalf("faulted %v: loss streams diverged: next draws %#x and %#x", faulted, x, y)
		}
	}
}
