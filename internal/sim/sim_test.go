package sim

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/topology"
)

// chain returns a 4-node line topology 0-1-2-3.
func chain(t *testing.T) *topology.Topology {
	t.Helper()
	pos := []geom.Point{{X: 0}, {X: 1}, {X: 2}, {X: 3}}
	topo := topology.FromPositions(pos, 1.1)
	if !topo.Connected() {
		t.Fatal("chain not connected")
	}
	return topo
}

func TestTransferLossless(t *testing.T) {
	net := NewNetwork(chain(t), 0, 1)
	ok, hops := net.Transfer([]topology.NodeID{0, 1, 2, 3}, 10, Data, Flow{})
	if !ok || hops != 3 {
		t.Fatalf("Transfer = (%v, %d), want (true, 3)", ok, hops)
	}
	m := net.Metrics()
	wantBytes := int64(3 * (HeaderBytes + 10))
	if m.TotalBytes != wantBytes {
		t.Fatalf("TotalBytes = %d, want %d", m.TotalBytes, wantBytes)
	}
	if m.TotalMessages != 3 {
		t.Fatalf("TotalMessages = %d, want 3", m.TotalMessages)
	}
	if m.ByKind[Data] != wantBytes {
		t.Fatalf("ByKind[Data] = %d, want %d", m.ByKind[Data], wantBytes)
	}
}

func TestTransferChargesPerHopSender(t *testing.T) {
	net := NewNetwork(chain(t), 0, 1)
	net.Transfer([]topology.NodeID{0, 1, 2}, 4, Control, Flow{})
	m := net.Metrics()
	per := int64(HeaderBytes + 4)
	if m.NodeBytes[0] != per || m.NodeBytes[1] != per || m.NodeBytes[2] != 0 {
		t.Fatalf("NodeBytes = %v, want [%d %d 0 0]", m.NodeBytes, per, per)
	}
}

func TestBaseTrafficCountsBothDirections(t *testing.T) {
	net := NewNetwork(chain(t), 0, 1)
	// Hop away from base and hop into base both count.
	net.Transfer([]topology.NodeID{0, 1}, 2, Data, Flow{})
	net.Transfer([]topology.NodeID{1, 0}, 2, Data, Flow{})
	// A hop not touching base does not.
	net.Transfer([]topology.NodeID{2, 3}, 2, Data, Flow{})
	m := net.Metrics()
	if m.BaseBytes != 2*int64(HeaderBytes+2) {
		t.Fatalf("BaseBytes = %d, want %d", m.BaseBytes, 2*(HeaderBytes+2))
	}
	if m.BaseMessages != 2 {
		t.Fatalf("BaseMessages = %d, want 2", m.BaseMessages)
	}
}

func TestTransferTrivialPaths(t *testing.T) {
	net := NewNetwork(chain(t), 0, 1)
	ok, hops := net.Transfer([]topology.NodeID{2}, 100, Data, Flow{})
	if !ok || hops != 0 {
		t.Fatalf("single-node path: (%v,%d), want (true,0)", ok, hops)
	}
	ok, _ = net.Transfer(nil, 100, Data, Flow{})
	if !ok {
		t.Fatal("empty path should deliver vacuously")
	}
	if net.Metrics().TotalBytes != 0 {
		t.Fatal("trivial paths must not charge traffic")
	}
}

func TestLossCausesRetransmissions(t *testing.T) {
	net := NewNetwork(chain(t), 0.5, 7)
	net.MaxRetries = 10 // practically guarantee delivery at 50% loss
	delivered := 0
	for i := 0; i < 200; i++ {
		ok, _ := net.Transfer([]topology.NodeID{0, 1}, 1, Data, Flow{})
		if ok {
			delivered++
		}
	}
	m := net.Metrics()
	if delivered < 195 {
		t.Fatalf("delivered %d/200 at 50%% loss with 10 retries", delivered)
	}
	if m.Retransmissions == 0 {
		t.Fatal("expected retransmissions at 50% loss")
	}
	// ~2 attempts per delivery expected; allow broad margin.
	if m.TotalMessages < 300 || m.TotalMessages > 600 {
		t.Fatalf("TotalMessages = %d, want roughly 400", m.TotalMessages)
	}
}

func TestLossDeterministic(t *testing.T) {
	run := func() int64 {
		net := NewNetwork(chain(t), 0.3, 99)
		for i := 0; i < 100; i++ {
			net.Transfer([]topology.NodeID{0, 1, 2, 3}, 5, Data, Flow{})
		}
		return net.Metrics().TotalBytes
	}
	if run() != run() {
		t.Fatal("identical seeds produced different traffic")
	}
}

func TestDropsAfterMaxRetries(t *testing.T) {
	net := NewNetwork(chain(t), 1.0, 3) // every attempt lost
	net.MaxRetries = 2
	ok, hops := net.Transfer([]topology.NodeID{0, 1, 2}, 1, Data, Flow{})
	if ok {
		t.Fatal("delivery succeeded at 100% loss")
	}
	if hops != 1 {
		t.Fatalf("hops = %d, want 1 (failed on first hop)", hops)
	}
	m := net.Metrics()
	if m.Drops != 1 {
		t.Fatalf("Drops = %d, want 1", m.Drops)
	}
	if m.TotalMessages != 3 { // 1 attempt + 2 retries
		t.Fatalf("TotalMessages = %d, want 3", m.TotalMessages)
	}
}

// TestNegativeMaxRetriesMeansNoRetries: a negative bound written straight
// into the field reads as 0 retries — one charged attempt per hop — not as
// a hop that never transmits.
func TestNegativeMaxRetriesMeansNoRetries(t *testing.T) {
	net := NewNetwork(chain(t), 0, 1)
	net.MaxRetries = -1
	ok, hops := net.Transfer([]topology.NodeID{0, 1, 2}, 10, Data, Flow{})
	m := net.Metrics()
	if !ok || hops != 2 || m.TotalMessages != 2 || m.TotalBytes != 2*(HeaderBytes+10) || m.Drops != 0 {
		t.Fatalf("lossless 2-hop path: ok=%v hops=%d msgs=%d bytes=%d drops=%d, want true 2 2 %d 0",
			ok, hops, m.TotalMessages, m.TotalBytes, m.Drops, 2*(HeaderBytes+10))
	}
	for _, c := range []struct {
		name    string
		loss    float64
		deadHop bool
	}{
		{"lossy hop", 1, false},
		{"dead hop", 0, true},
	} {
		net := NewNetwork(chain(t), c.loss, 1)
		net.MaxRetries = -5
		if c.deadHop {
			net.Fail(2)
		}
		net.Transfer([]topology.NodeID{1, 2}, 10, Data, Flow{})
		if m := net.Metrics(); m.TotalMessages != 1 || m.Retransmissions != 0 || m.Drops != 1 {
			t.Errorf("%s: %d messages, %d retransmissions, %d drops, want 1 0 1", c.name, m.TotalMessages, m.Retransmissions, m.Drops)
		}
	}
}

func TestDeadNextHopAborts(t *testing.T) {
	net := NewNetwork(chain(t), 0, 1)
	net.Fail(2)
	ok, hops := net.Transfer([]topology.NodeID{0, 1, 2, 3}, 1, Data, Flow{})
	if ok {
		t.Fatal("delivered through dead node")
	}
	if hops != 1 {
		t.Fatalf("hops = %d, want 1", hops)
	}
	m := net.Metrics()
	if m.Drops != 1 {
		t.Fatalf("Drops = %d, want 1", m.Drops)
	}
	// One successful hop 0->1, then the sender keeps trying toward the
	// dead node (1 + MaxRetries attempts), all charged.
	if m.TotalMessages != int64(1+1+net.MaxRetries) {
		t.Fatalf("TotalMessages = %d, want %d", m.TotalMessages, 2+net.MaxRetries)
	}
	net.Revive(2)
	if !net.Alive(2) {
		t.Fatal("Revive did not clear failure")
	}
	ok, _ = net.Transfer([]topology.NodeID{0, 1, 2, 3}, 1, Data, Flow{})
	if !ok {
		t.Fatal("transfer failed after revive")
	}
}

func TestDeadSenderSilent(t *testing.T) {
	net := NewNetwork(chain(t), 0, 1)
	net.Fail(0)
	ok, hops := net.Transfer([]topology.NodeID{0, 1}, 1, Data, Flow{})
	if ok || hops != 0 {
		t.Fatalf("dead sender: (%v,%d), want (false,0)", ok, hops)
	}
	if net.Metrics().TotalBytes != 0 {
		t.Fatal("dead sender transmitted")
	}
}

func TestBroadcast(t *testing.T) {
	net := NewNetwork(chain(t), 0, 1)
	net.Broadcast(1, 12, Control)
	m := net.Metrics()
	if m.TotalBytes != int64(HeaderBytes+12) {
		t.Fatalf("TotalBytes = %d", m.TotalBytes)
	}
	if m.NodeBytes[1] != int64(HeaderBytes+12) {
		t.Fatalf("NodeBytes[1] = %d", m.NodeBytes[1])
	}
	net.Fail(1)
	net.Broadcast(1, 12, Control)
	if net.Metrics().TotalBytes != m.TotalBytes {
		t.Fatal("dead node broadcast charged traffic")
	}
}

func TestTopLoads(t *testing.T) {
	m := Metrics{NodeBytes: []int64{5, 9, 1, 7, 3}}
	top := m.TopLoads(3)
	want := []int64{9, 7, 5}
	for i := range want {
		if top[i] != want[i] {
			t.Fatalf("TopLoads = %v, want %v", top, want)
		}
	}
	if got := m.TopLoads(10); len(got) != 5 {
		t.Fatalf("TopLoads(10) over 5 nodes returned %d entries", len(got))
	}
	if m.MaxNodeBytes() != 9 {
		t.Fatalf("MaxNodeBytes = %d, want 9", m.MaxNodeBytes())
	}
}

func TestMsgKindString(t *testing.T) {
	if Control.String() != "control" || Data.String() != "data" || Result.String() != "result" {
		t.Fatal("MsgKind labels wrong")
	}
	if MsgKind(9).String() == "" {
		t.Fatal("unknown kind empty")
	}
}

func TestQueueLimitDropsExcess(t *testing.T) {
	net := NewNetwork(chain(t), 0, 1)
	net.QueueLimit = 2
	net.BeginCycle(0)
	// Node 1 relays for paths 0->2; its per-cycle budget is 2 sends.
	okCount := 0
	for i := 0; i < 5; i++ {
		// Each transfer makes node 0 send once (queue 0) and node 1
		// relay once (queue 1).
		if ok, _ := net.Transfer([]topology.NodeID{0, 1, 2}, 1, Data, Flow{}); ok {
			okCount++
		}
	}
	// Node 0 also has a limit of 2: only 2 transfers leave node 0 at all.
	if okCount != 2 {
		t.Fatalf("delivered %d transfers under queue limit 2, want 2", okCount)
	}
	if net.QueueDrops() == 0 {
		t.Fatal("no queue drops recorded")
	}
	// A new cycle resets the budget.
	net.BeginCycle(1)
	if ok, _ := net.Transfer([]topology.NodeID{0, 1, 2}, 1, Data, Flow{}); !ok {
		t.Fatal("queue budget not reset by BeginCycle")
	}
}

// TestBeginCycleIdempotentPerCycle: two steppers sharing one network both
// announce the cycle; the second announcement must not hand every relay a
// fresh queue budget mid-cycle.
func TestBeginCycleIdempotentPerCycle(t *testing.T) {
	net := NewNetwork(chain(t), 0, 1)
	net.QueueLimit = 2
	net.BeginCycle(0)
	delivered := 0
	for i := 0; i < 4; i++ {
		if ok, _ := net.Transfer([]topology.NodeID{0, 1}, 1, Data, Flow{}); ok {
			delivered++
		}
	}
	if delivered != 2 {
		t.Fatalf("delivered %d before re-announcement, want 2", delivered)
	}
	// Same cycle announced again: budgets must stay consumed.
	net.BeginCycle(0)
	if ok, _ := net.Transfer([]topology.NodeID{0, 1}, 1, Data, Flow{}); ok {
		t.Fatal("repeated BeginCycle within one cycle reset the relay budget")
	}
	// The next cycle resets as usual.
	net.BeginCycle(1)
	if ok, _ := net.Transfer([]topology.NodeID{0, 1}, 1, Data, Flow{}); !ok {
		t.Fatal("next cycle did not reset the relay budget")
	}
}

// TestDeadNodeChargingUniform pins the documented failure semantics: a
// transmission into a failed node is charged exactly like a hop that
// exhausts its retries (1+MaxRetries attempts, all accounted to the live
// sender), while a failed sender transmits nothing at any position.
func TestDeadNodeChargingUniform(t *testing.T) {
	topo := chain(t)
	// Into a failed node: charged, not forwarded.
	into := NewNetwork(topo, 0, 1)
	into.Fail(2)
	ok, hops := into.Transfer([]topology.NodeID{1, 2, 3}, 5, Data, Flow{})
	if ok || hops != 0 {
		t.Fatalf("into dead: (%v,%d), want (false,0)", ok, hops)
	}
	// Exhausted retries on the same hop: identical accounting.
	lost := NewNetwork(topo, 1.0, 1)
	lost.Transfer([]topology.NodeID{1, 2, 3}, 5, Data, Flow{})
	mi, ml := into.Metrics(), lost.Metrics()
	if mi.TotalBytes != ml.TotalBytes || mi.TotalMessages != ml.TotalMessages ||
		mi.NodeBytes[1] != ml.NodeBytes[1] || mi.Retransmissions != ml.Retransmissions || mi.Drops != ml.Drops {
		t.Fatalf("dead-hop charge %+v != retry-exhausted charge %+v", mi, ml)
	}
	// A failed sender is silent: no charge at all.
	from := NewNetwork(topo, 0, 1)
	from.Fail(1)
	ok, hops = from.Transfer([]topology.NodeID{1, 2, 3}, 5, Data, Flow{})
	if ok || hops != 0 || from.Metrics().TotalBytes != 0 {
		t.Fatalf("dead sender: (%v,%d,%dB), want (false,0,0B)", ok, hops, from.Metrics().TotalBytes)
	}
}

// TestSharedLiveness: networks built over one liveness view agree on
// failures — the correlated-failure property the multi-query engine needs.
func TestSharedLiveness(t *testing.T) {
	topo := chain(t)
	live := topology.NewLiveness(topo.N())
	a := NewSharedNetwork(topo, 0, 1, live)
	b := NewSharedNetwork(topo, 0, 2, live)
	a.Fail(2)
	if b.Alive(2) {
		t.Fatal("failure in network a invisible to network b")
	}
	if ok, _ := b.Transfer([]topology.NodeID{0, 1, 2}, 1, Data, Flow{}); ok {
		t.Fatal("network b delivered through the node failed via network a")
	}
	if !live.AnyDead() {
		t.Fatal("liveness view did not record the failure")
	}
	b.Revive(2)
	if !a.Alive(2) || live.AnyDead() {
		t.Fatal("revival in network b invisible to network a")
	}
	// Private networks stay isolated.
	c := NewNetwork(topo, 0, 3)
	c.Fail(1)
	if !a.Alive(1) {
		t.Fatal("private network failure leaked into the shared view")
	}
}

func TestQueueLimitDisabledByDefault(t *testing.T) {
	net := NewNetwork(chain(t), 0, 1)
	net.BeginCycle(0)
	for i := 0; i < 100; i++ {
		if ok, _ := net.Transfer([]topology.NodeID{0, 1}, 1, Data, Flow{}); !ok {
			t.Fatal("transfer dropped with queues disabled")
		}
	}
	if net.QueueDrops() != 0 {
		t.Fatal("queue drops recorded while disabled")
	}
}
