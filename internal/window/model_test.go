package window

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// model is the reference State: a pair list in registration order and one
// FIFO per producer, with no slots, indices or rings.
type model struct {
	w     int
	dyn   func(sv, tv int32) bool
	pairs [][2]topology.NodeID
	win   map[topology.NodeID][]Tuple
}

func (m *model) addPair(s, t topology.NodeID) {
	for _, p := range m.pairs {
		if p == [2]topology.NodeID{s, t} {
			return
		}
	}
	m.pairs = append(m.pairs, [2]topology.NodeID{s, t})
}

func (m *model) removePair(s, t topology.NodeID) {
	out := m.pairs[:0]
	for _, p := range m.pairs {
		if p != [2]topology.NodeID{s, t} {
			out = append(out, p)
		}
	}
	m.pairs = out
}

func (m *model) push(t Tuple) {
	m.win[t.Producer] = append(m.win[t.Producer], t)
	if len(m.win[t.Producer]) > m.w {
		m.win[t.Producer] = m.win[t.Producer][1:]
	}
}

// probe joins v from p in role against every partner's FIFO, partners in
// registration order.
func (m *model) probe(dst []Match, p topology.NodeID, role query.Rel, v int32, cycle int) []Match {
	for _, pr := range m.pairs {
		if pr[role] != p {
			continue
		}
		for _, old := range m.win[pr[1-role]] {
			sv, tv := v, old.Value
			if role == query.T {
				sv, tv = old.Value, v
			}
			if m.dyn(sv, tv) {
				dst = append(dst, Match{S: pr[0], T: pr[1], SV: sv, TV: tv, Cycle: cycle, OldCycle: old.Cycle})
			}
		}
	}
	return dst
}

func (m *model) pairsFor(p topology.NodeID, role query.Rel) int {
	n := 0
	for _, pr := range m.pairs {
		if pr[role] == p {
			n++
		}
	}
	return n
}

// TestStateMatchesModel drives State and the reference model through the
// same seeded random interleaving of every mutating call and requires the
// same match sequence, window lengths, pair counts and snapshots — and a
// slot table holding exactly the producers that still have a pair or a
// window.
func TestStateMatchesModel(t *testing.T) {
	dyns := []func(sv, tv int32) bool{eq, func(sv, tv int32) bool { return sv <= tv }}
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed)
		w := 1 + r.Intn(4)
		dyn := dyns[seed%2]
		st := NewState(w, dyn)
		m := &model{w: w, dyn: dyn, win: map[topology.NodeID][]Tuple{}}
		node := func() topology.NodeID { return topology.NodeID(r.Intn(8)) }
		var got, want []Match
		var saved []Tuple
		for step := 0; step < 2000; step++ {
			p, q, v := node(), node(), int32(r.Intn(4))
			switch op := r.Intn(10); op {
			case 0, 1:
				st.AddPair(p, q)
				m.addPair(p, q)
			case 2:
				st.RemovePair(p, q)
				m.removePair(p, q)
			case 3:
				st.DropProducer(p)
				delete(m.win, p)
			case 4, 5, 6:
				role := query.Rel(r.Intn(2))
				got = st.ArriveAppend(got[:0], p, role, v, step)
				want = m.probe(want[:0], p, role, v, step)
				m.push(Tuple{Producer: p, Value: v, Cycle: step})
			case 7:
				i, ok := st.index[p]
				if !ok {
					i = st.newSlot(p)
				}
				got = st.ArriveBoth(got[:0], i, v, step)
				want = m.probe(m.probe(want[:0], p, query.S, v, step), p, query.T, v, step)
				m.push(Tuple{Producer: p, Value: v, Cycle: step})
			case 8:
				saved, _ = st.Snapshot(p, q)
				var ref []Tuple
				for _, id := range []topology.NodeID{min(p, q), max(p, q)} {
					ref = append(ref, m.win[id]...)
				}
				if !reflect.DeepEqual(saved, ref) {
					t.Fatalf("seed %d step %d: Snapshot(%d, %d) = %v, want %v", seed, step, p, q, saved, ref)
				}
			case 9:
				st.Restore(saved)
				for _, tu := range saved {
					m.push(tu)
				}
			}
			if len(got) != 0 || len(want) != 0 {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: matches %v, want %v", seed, step, got, want)
				}
				got, want = got[:0], want[:0]
			}
			checkAgainstModel(t, st, m, seed, step)
		}
	}
}

func checkAgainstModel(t *testing.T, st *State, m *model, seed uint64, step int) {
	t.Helper()
	live, tuples := 0, 0
	for id := topology.NodeID(0); id < 8; id++ {
		n := len(m.win[id])
		if st.WindowLen(id) != n {
			t.Fatalf("seed %d step %d: WindowLen(%d) = %d, want %d", seed, step, id, st.WindowLen(id), n)
		}
		ps, pt := m.pairsFor(id, query.S), m.pairsFor(id, query.T)
		if st.PairsFor(id, query.S) != ps || st.PairsFor(id, query.T) != pt {
			t.Fatalf("seed %d step %d: PairsFor(%d) = %d/%d, want %d/%d", seed, step, id,
				st.PairsFor(id, query.S), st.PairsFor(id, query.T), ps, pt)
		}
		if n > 0 || ps > 0 || pt > 0 {
			live++
		}
		tuples += n
	}
	if st.Tuples() != tuples || st.Pairs() != len(m.pairs) {
		t.Fatalf("seed %d step %d: Tuples/Pairs = %d/%d, want %d/%d", seed, step, st.Tuples(), st.Pairs(), tuples, len(m.pairs))
	}
	if len(st.index) != live || len(st.index)+len(st.free) != len(st.slots) {
		t.Fatalf("seed %d step %d: %d indexed + %d free of %d slots, want %d live producers",
			seed, step, len(st.index), len(st.free), len(st.slots), live)
	}
}

// TestHandlesMatchModel drives every arrival from a producer that has a
// registered pair through ArriveSlot, with the handle AddPair returned, under
// random AddPair/RemovePair/DropProducer/Restore churn, and requires the
// model's matches and windows. After every step each registered pair's
// handles must still name its producers, while the slots of producers that
// lost their last pair are released and reused.
func TestHandlesMatchModel(t *testing.T) {
	reused := 0
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed)
		w := 1 + r.Intn(4)
		st := NewState(w, eq)
		m := &model{w: w, dyn: eq, win: map[topology.NodeID][]Tuple{}}
		handles := map[[2]topology.NodeID][2]int32{}
		node := func() topology.NodeID { return topology.NodeID(r.Intn(8)) }
		// handle returns p's slot as some registered pair of p holds it.
		handle := func(p topology.NodeID) (int32, bool) {
			for pr, h := range handles {
				for side := range pr {
					if pr[side] == p {
						return h[side], true
					}
				}
			}
			return 0, false
		}
		var got, want []Match
		var window []Tuple
		for step := 0; step < 2000; step++ {
			p, q, v := node(), node(), int32(r.Intn(4))
			switch op := r.Intn(8); op {
			case 0, 1:
				free := len(st.free)
				sSlot, tSlot := st.AddPair(p, q)
				if len(st.free) < free {
					reused++
				}
				handles[[2]topology.NodeID{p, q}] = [2]int32{sSlot, tSlot}
				m.addPair(p, q)
			case 2:
				st.RemovePair(p, q)
				delete(handles, [2]topology.NodeID{p, q})
				m.removePair(p, q)
			case 3:
				st.DropProducer(p)
				delete(m.win, p)
			case 4, 5, 6:
				role := query.Rel(r.Intn(2))
				if h, ok := handle(p); ok {
					got = st.ArriveSlot(got[:0], h, role, v, step)
				} else {
					got = st.ArriveAppend(got[:0], p, role, v, step)
				}
				want = m.probe(want[:0], p, role, v, step)
				m.push(Tuple{Producer: p, Value: v, Cycle: step})
			case 7:
				if r.Intn(2) == 0 {
					window, _ = st.SnapshotAppend(window[:0], q, p)
					ref := append(slices.Clone(m.win[min(p, q)]), m.win[max(p, q)]...)
					if len(window) != len(ref) || (len(ref) > 0 && !reflect.DeepEqual(window, ref)) {
						t.Fatalf("seed %d step %d: SnapshotAppend(%d, %d) = %v, want %v", seed, step, q, p, window, ref)
					}
					break
				}
				st.Restore(window)
				for _, tu := range window {
					m.push(tu)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: matches %v, want %v", seed, step, got, want)
			}
			got, want = got[:0], want[:0]
			for pr, h := range handles {
				for side, id := range pr {
					if i, ok := st.index[id]; !ok || i != h[side] || st.slots[i].id != id {
						t.Fatalf("seed %d step %d: pair %v's handle %d for %d, state has slot %d (%v)", seed, step, pr, h[side], id, i, ok)
					}
					if got, want := st.Partners(h[side]), m.pairsFor(id, query.S)+m.pairsFor(id, query.T); got != want {
						t.Fatalf("seed %d step %d: Partners(%d) of %d = %d, want %d", seed, step, h[side], id, got, want)
					}
				}
			}
			checkAgainstModel(t, st, m, seed, step)
		}
	}
	if reused == 0 {
		t.Fatal("no registration reused a released slot")
	}
}

// TestSnapshotAppendKeepsCallerOrder: SnapshotAppend emits windows in
// ascending producer order, appended after dst's tuples, without sorting
// the caller's producer slice.
func TestSnapshotAppendKeepsCallerOrder(t *testing.T) {
	st := NewState(2, eq)
	st.AddPair(3, 1)
	arrive(st, 1, query.T, 10, 0)
	arrive(st, 3, query.S, 30, 1)
	arrive(st, 1, query.T, 11, 2)
	producers := []topology.NodeID{3, 1}
	dst := []Tuple{{Producer: 9}}
	got, bytes := st.SnapshotAppend(dst, producers...)
	want := []Tuple{{Producer: 9}, {1, 10, 0}, {1, 11, 2}, {3, 30, 1}}
	if !reflect.DeepEqual(got, want) || bytes != 3*sim.TupleBytes {
		t.Fatalf("SnapshotAppend = %v, %d bytes; want %v, %d", got, bytes, want, 3*sim.TupleBytes)
	}
	if producers[0] != 3 || producers[1] != 1 {
		t.Fatalf("SnapshotAppend reordered the caller's producers: %v", producers)
	}
}

// TestSlotsBoundedUnderMigrationChurn: pairs that keep moving through one
// join node, each with never-before-seen producers, reuse the same slots —
// the state does not grow with the number of producers it has ever served.
func TestSlotsBoundedUnderMigrationChurn(t *testing.T) {
	st := NewState(3, eq)
	for i := 0; i < 10000; i++ {
		s, tt := topology.NodeID(2*i+1), topology.NodeID(2*i+2)
		st.AddPair(s, tt)
		arrive(st, s, query.S, 1, i)
		arrive(st, tt, query.T, 1, i)
		tuples, _ := st.Snapshot(s, tt)
		st.RemovePair(s, tt)
		st.DropProducer(s)
		st.DropProducer(tt)
		if len(tuples) != 2 {
			t.Fatalf("cycle %d: snapshot %d tuples, want 2", i, len(tuples))
		}
	}
	if len(st.slots) > 2 || len(st.index) != 0 || st.Tuples() != 0 || st.Pairs() != 0 {
		t.Fatalf("after 10000 add/remove cycles: %d slots (%d indexed), %d tuples, %d pairs; want at most 2 slots and nothing live",
			len(st.slots), len(st.index), st.Tuples(), st.Pairs())
	}
}
