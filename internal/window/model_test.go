package window

import (
	"fmt"
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

// kinds are the predicate shapes the model tests run under, each beside
// the model's own closure for it: equality, Query 3's absolute difference
// and a general function.
var kinds = []struct {
	name string
	dyn  query.Dyn
	ref  func(sv, tv int32) bool
}{
	{"eq", query.Dyn{Kind: query.Eq}, func(sv, tv int32) bool { return sv == tv }},
	{"absdiff", query.Dyn{Kind: query.AbsDiffGT, C: 1}, func(sv, tv int32) bool { return sv-tv > 1 || tv-sv > 1 }},
	{"func", query.Dyn{Kind: query.Func, Fn: less}, less},
}

func less(sv, tv int32) bool { return sv < tv }

// modelWidths are the window sizes the model tests run at: one tuple, the
// paper's three, a window that wraps rarely, and one wider than the hit
// mask, which the probe walks tuple by tuple.
var modelWidths = []int{1, 3, 8, maskBits + 6}

// TestStateMatchesModel drives State and the reference model through the
// same seeded random interleaving of every mutating call, under each
// predicate kind and window size, and requires the same match sequence,
// window lengths, pair counts and snapshots — and a slot table holding
// exactly the producers that still have a pair or a window.
func TestStateMatchesModel(t *testing.T) {
	for _, k := range kinds {
		for _, w := range modelWidths {
			t.Run(fmt.Sprintf("%s/w%d", k.name, w), func(t *testing.T) {
				for seed := uint64(1); seed <= 12; seed++ {
					r := rng.New(seed)
					if err := runModel(NewState(w, k.dyn), &model{w: w, dyn: k.ref, win: map[topology.NodeID][]Tuple{}}, r.Intn, 2000); err != "" {
						t.Fatalf("seed %d: %s", seed, err)
					}
				}
			})
		}
	}
}

// FuzzStateMatchesModel is TestStateMatchesModel over operations decoded
// from the fuzzed bytes: the first picks the predicate kind and window
// size, and each operation reads its choices from the rest until they run
// out.
func FuzzStateMatchesModel(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{4, 0, 1, 2, 4, 1, 2, 1, 5, 2, 1, 2, 6, 1, 2, 3, 4, 2, 1, 0, 7, 2, 1, 1, 8, 1, 2, 9, 1, 2})
	f.Add([]byte{8, 0, 3, 5, 4, 3, 0, 2, 4, 3, 1, 2, 4, 3, 1, 2, 4, 3, 1, 2, 5, 5, 0, 2, 3, 3, 5, 9, 3, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k, w := kinds[int(data[0])%len(kinds)], modelWidths[int(data[0])/len(kinds)%len(modelWidths)]
		data = data[1:]
		next := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		}
		if err := runModel(NewState(w, k.dyn), &model{w: w, dyn: k.ref, win: map[topology.NodeID][]Tuple{}}, next, len(data)); err != "" {
			t.Fatalf("%s, w %d: %s", k.name, w, err)
		}
	})
}

// runModel applies steps operations, each chosen by next(n) (a draw in
// [0, n)), to st and m alike, and returns the first disagreement, or ""
// when there is none.
func runModel(st *State, m *model, next func(n int) int, steps int) string {
	node := func() topology.NodeID { return topology.NodeID(next(8)) }
	var got, want []Match
	var saved []Tuple
	for step := 0; step < steps; step++ {
		switch op := next(10); op {
		case 0, 1:
			p, q := node(), node()
			st.AddPair(p, q)
			m.addPair(p, q)
		case 2:
			p, q := node(), node()
			st.RemovePair(p, q)
			m.removePair(p, q)
		case 3:
			p := node()
			st.DropProducer(p)
			delete(m.win, p)
		case 4, 5, 6:
			p, role, v := node(), query.Rel(next(2)), int32(next(4))
			got = st.ArriveAppend(got[:0], p, role, v, step)
			want = m.probe(want[:0], p, role, v, step)
			m.push(Tuple{Producer: p, Value: v, Cycle: step})
		case 7:
			p, v := node(), int32(next(4))
			i, ok := st.index[p]
			if !ok {
				i = st.newSlot(p)
			}
			got = st.ArriveBoth(got[:0], i, v, step)
			want = m.probe(m.probe(want[:0], p, query.S, v, step), p, query.T, v, step)
			m.push(Tuple{Producer: p, Value: v, Cycle: step})
		case 8:
			p, q := node(), node()
			saved, _ = st.Snapshot(p, q)
			var ref []Tuple
			for _, id := range []topology.NodeID{min(p, q), max(p, q)} {
				ref = append(ref, m.win[id]...)
			}
			if !reflect.DeepEqual(saved, ref) {
				return fmt.Sprintf("step %d: Snapshot(%d, %d) = %v, want %v", step, p, q, saved, ref)
			}
		case 9:
			st.Restore(saved)
			for _, tu := range saved {
				m.push(tu)
			}
		}
		if len(got) != 0 || len(want) != 0 {
			if !reflect.DeepEqual(got, want) {
				return fmt.Sprintf("step %d: matches %v, want %v", step, got, want)
			}
			got, want = got[:0], want[:0]
		}
		if err := modelDiff(st, m); err != "" {
			return fmt.Sprintf("step %d: %s", step, err)
		}
	}
	return ""
}

func checkAgainstModel(t *testing.T, st *State, m *model, seed uint64, step int) {
	t.Helper()
	if err := modelDiff(st, m); err != "" {
		t.Fatalf("seed %d step %d: %s", seed, step, err)
	}
}

// modelDiff returns how st's window lengths, pair counts and slot table
// differ from m's, or "" when they agree.
func modelDiff(st *State, m *model) string {
	live, tuples := 0, 0
	for id := topology.NodeID(0); id < 8; id++ {
		n := len(m.win[id])
		if st.WindowLen(id) != n {
			return fmt.Sprintf("WindowLen(%d) = %d, want %d", id, st.WindowLen(id), n)
		}
		ps, pt := m.pairsFor(id, query.S), m.pairsFor(id, query.T)
		if st.PairsFor(id, query.S) != ps || st.PairsFor(id, query.T) != pt {
			return fmt.Sprintf("PairsFor(%d) = %d/%d, want %d/%d", id,
				st.PairsFor(id, query.S), st.PairsFor(id, query.T), ps, pt)
		}
		if n > 0 || ps > 0 || pt > 0 {
			live++
		}
		tuples += n
	}
	if st.Tuples() != tuples || st.Pairs() != len(m.pairs) {
		return fmt.Sprintf("Tuples/Pairs = %d/%d, want %d/%d", st.Tuples(), st.Pairs(), tuples, len(m.pairs))
	}
	if len(st.index) != live || len(st.index)+len(st.free) != len(st.slots) {
		return fmt.Sprintf("%d indexed + %d free of %d slots, want %d live producers",
			len(st.index), len(st.free), len(st.slots), live)
	}
	return ""
}

// TestHandlesMatchModel drives every arrival from a producer that has a
// registered pair through ArriveSlot, with the handle AddPair returned, under
// random AddPair/RemovePair/DropProducer/Restore churn, each predicate kind
// and window size, and requires the model's matches and windows. After
// every step each registered pair's handles must still name its producers,
// while the slots of producers that lost their last pair are released and
// reused.
func TestHandlesMatchModel(t *testing.T) {
	for _, k := range kinds {
		for _, w := range modelWidths {
			t.Run(fmt.Sprintf("%s/w%d", k.name, w), func(t *testing.T) { handlesMatchModel(t, k.dyn, k.ref, w) })
		}
	}
}

func handlesMatchModel(t *testing.T, dyn query.Dyn, ref func(sv, tv int32) bool, w int) {
	reused := 0
	for seed := uint64(1); seed <= 12; seed++ {
		r := rng.New(seed)
		st := NewState(w, dyn)
		m := &model{w: w, dyn: ref, win: map[topology.NodeID][]Tuple{}}
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
