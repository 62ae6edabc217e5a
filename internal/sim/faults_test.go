package sim

import (
	"reflect"
	"testing"

	"repro/internal/rng"
	"repro/internal/topology"
)

// hopState is the per-hop fault verdict the oracle below draws with.
type hopState struct {
	cut       bool
	extraLoss float64
	dupProb   float64
	delay     int
}

// scriptedFaults is a deterministic FaultInjector for the property test.
type scriptedFaults struct {
	states map[[2]topology.NodeID]hopState
}

func (s *scriptedFaults) Link(from, to topology.NodeID) LinkState {
	k := [2]topology.NodeID{from, to}
	if to < from {
		k = [2]topology.NodeID{to, from}
	}
	st := s.states[k]
	return LinkState{Cut: st.cut, ExtraLoss: st.extraLoss, DupProb: st.dupProb, DelaySlots: st.delay}
}

func (s *scriptedFaults) Cut(from, to topology.NodeID) bool { return s.Link(from, to).Cut }

// scriptedFaults keeps no link ids: every hop is found by its endpoints.
func (s *scriptedFaults) HopLink(from, to topology.NodeID) int32 { return -1 }

func (s *scriptedFaults) LinkAt(from, to topology.NodeID, _ int32) LinkState { return s.Link(from, to) }

// TestAccountingInvariantUnderInjectedLoss is the fault-accounting property
// test: a network with an injector installed is replayed against an
// independent oracle that simulates Transfer's documented draw/charge
// discipline from its own copy of the loss stream. Every attempt must be
// charged exactly once (no double-charge on retry success), the
// retransmission counter must equal per-hop attempts minus first attempts,
// and the end-to-end identity Attempted == Delivered + Drops + QueueDrops
// must hold throughout.
func TestAccountingInvariantUnderInjectedLoss(t *testing.T) {
	topo := topology.Generate(topology.ModerateRandom, 60, 1)
	const lossSeed = 99
	const ambient = 0.1
	const payload = 10

	// Build a varied scripted fault layer from a seeded stream.
	f := &scriptedFaults{states: map[[2]topology.NodeID]hopState{}}
	fr := rng.New(5).Split(1)
	for id := 0; id < topo.N(); id++ {
		from := topology.NodeID(id)
		for _, nb := range topo.Neighbors(from) {
			if nb <= from {
				continue
			}
			st := hopState{}
			switch fr.Intn(4) {
			case 0:
				st.cut = true
			case 1:
				st.extraLoss = 0.2 + 0.2*fr.Float64()
			case 2:
				st.dupProb = 0.3
				st.delay = fr.Intn(3)
			}
			f.states[[2]topology.NodeID{from, nb}] = st
		}
	}

	net := NewNetwork(topo, ambient, lossSeed)
	net.SetFaults(f)
	net.Fail(topology.NodeID(17))
	net.Fail(topology.NodeID(42))

	// The oracle owns an identical copy of the loss stream: Transfer's
	// draws must line up one-for-one or every subsequent expectation
	// derails, so agreement pins the draw discipline exactly.
	oracleLoss := rng.New(lossSeed).Split(0xC0FFEE)
	var want Metrics
	want.NodeBytes = make([]int64, topo.N())
	oracle := func(path []topology.NodeID, kind MsgKind) {
		if !net.Alive(path[0]) {
			return
		}
		const retries = 3
		want.Attempted++
		size := int64(HeaderBytes + payload)
		charge := func(from, to topology.NodeID, attempts int) {
			b := size * int64(attempts)
			want.TotalBytes += b
			want.TotalMessages += int64(attempts)
			want.NodeBytes[from] += b
			want.ByKind[kind] += b
			if from == topology.Base || to == topology.Base {
				want.BaseBytes += b
				want.BaseMessages += int64(attempts)
			}
		}
		for i := 0; i+1 < len(path); i++ {
			from, to := path[i], path[i+1]
			fs := f.Link(from, to)
			if !net.Alive(to) || fs.Cut {
				charge(from, to, 1+retries)
				want.Retransmissions += int64(retries)
				want.Drops++
				if net.Alive(to) {
					want.CutDrops++
				}
				return
			}
			prob := ambient + fs.ExtraLoss*(1-ambient)
			ok, attempts := false, 0
			for a := 0; a <= retries; a++ {
				attempts++
				if !oracleLoss.Bool(prob) {
					ok = true
					break
				}
			}
			charge(from, to, attempts)
			want.Retransmissions += int64(attempts - 1)
			if !ok {
				want.Drops++
				return
			}
			if fs.DupProb > 0 && oracleLoss.Bool(fs.DupProb) {
				charge(from, to, 1)
				want.Duplicates++
			}
			want.DelaySlots += int64(fs.DelaySlots)
		}
		want.Delivered++
	}

	// Drive random-walk paths (valid radio links by construction) from a
	// separate stream; kinds cycle so every class's ledger is exercised.
	walk := rng.New(11).Split(2)
	for msg := 0; msg < 3000; msg++ {
		at := topology.NodeID(walk.Intn(topo.N()))
		path := []topology.NodeID{at}
		for len(path) < 2+walk.Intn(5) {
			nbs := topo.Neighbors(at)
			at = nbs[walk.Intn(len(nbs))]
			path = append(path, at)
		}
		kind := MsgKind(msg % 3)
		oracle(path, kind)
		net.Transfer(path, payload, kind, Flow{})

		if msg%500 == 0 {
			m := net.Metrics()
			if m.Attempted != m.Delivered+m.Drops+m.QueueDrops {
				t.Fatalf("msg %d: identity broken: Attempted %d != Delivered %d + Drops %d + QueueDrops %d",
					msg, m.Attempted, m.Delivered, m.Drops, m.QueueDrops)
			}
		}
	}

	m := net.Metrics()
	if m.Attempted != m.Delivered+m.Drops+m.QueueDrops {
		t.Fatalf("identity broken: Attempted %d != Delivered %d + Drops %d + QueueDrops %d",
			m.Attempted, m.Delivered, m.Drops, m.QueueDrops)
	}
	got := *m
	got.NodeBytes = nil
	wantFlat := want
	wantFlat.NodeBytes = nil
	if !reflect.DeepEqual(got, wantFlat) {
		t.Fatalf("oracle mismatch:\ngot  %+v\nwant %+v", got, wantFlat)
	}
	for i := range want.NodeBytes {
		if m.NodeBytes[i] != want.NodeBytes[i] {
			t.Fatalf("node %d load mismatch: got %d, want %d", i, m.NodeBytes[i], want.NodeBytes[i])
		}
	}
	if m.Drops == 0 || m.Delivered == 0 || m.CutDrops == 0 || m.Duplicates == 0 || m.Retransmissions == 0 {
		t.Fatalf("property run did not exercise all outcomes: %+v", got)
	}
}

// TestPathCutPredicate: PathCut reports partition-severed paths and is
// false without an injector.
func TestPathCutPredicate(t *testing.T) {
	topo := chain(t)
	net := NewNetwork(topo, 0, 1)
	path := []topology.NodeID{0, 1, 2, 3}
	if net.PathCut(path) {
		t.Fatal("PathCut true without an injector")
	}
	f := &scriptedFaults{states: map[[2]topology.NodeID]hopState{
		{1, 2}: {cut: true},
	}}
	net.SetFaults(f)
	if !net.PathCut(path) {
		t.Fatal("PathCut missed the cut hop")
	}
	if net.PathCut([]topology.NodeID{0, 1}) {
		t.Fatal("PathCut true for a healthy prefix")
	}
}
