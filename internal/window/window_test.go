package window

import (
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/query"
	"repro/internal/topology"
	"repro/internal/workload"
)

// eq is the equality predicate of Queries 0-2.
var eq = query.Dyn{Kind: query.Eq}

// arrive is ArriveAppend into a new slice.
func arrive(st *State, p topology.NodeID, role query.Rel, value int32, cycle int) []Match {
	return st.ArriveAppend(nil, p, role, value, cycle)
}

func TestArriveJoinsAgainstOppositeWindow(t *testing.T) {
	st := NewState(3, eq)
	st.AddPair(1, 2)
	if m := arrive(st, 1, query.S, 7, 0); len(m) != 0 {
		t.Fatal("match against empty window")
	}
	m := arrive(st, 2, query.T, 7, 1)
	if len(m) != 1 {
		t.Fatalf("got %d matches, want 1", len(m))
	}
	if m[0].S != 1 || m[0].T != 2 || m[0].SV != 7 || m[0].TV != 7 {
		t.Fatalf("match = %+v", m[0])
	}
	if m[0].Cycle != 1 || m[0].OldCycle != 0 {
		t.Fatalf("match cycles = %d/%d", m[0].Cycle, m[0].OldCycle)
	}
}

func TestWindowEviction(t *testing.T) {
	st := NewState(2, eq)
	st.AddPair(1, 2)
	arrive(st, 1, query.S, 10, 0)
	arrive(st, 1, query.S, 11, 1)
	arrive(st, 1, query.S, 12, 2) // evicts 10
	if st.WindowLen(1) != 2 {
		t.Fatalf("window len = %d, want 2", st.WindowLen(1))
	}
	if m := arrive(st, 2, query.T, 10, 3); len(m) != 0 {
		t.Fatal("matched an evicted tuple")
	}
	if m := arrive(st, 2, query.T, 11, 4); len(m) != 1 {
		t.Fatal("missed a buffered tuple")
	}
}

func TestMultiplePartnersShareWindow(t *testing.T) {
	st := NewState(3, eq)
	st.AddPair(1, 2)
	st.AddPair(1, 3)
	arrive(st, 2, query.T, 5, 0)
	arrive(st, 3, query.T, 5, 0)
	m := arrive(st, 1, query.S, 5, 1)
	if len(m) != 2 {
		t.Fatalf("s joined %d partners, want 2", len(m))
	}
}

func TestAddPairIdempotent(t *testing.T) {
	st := NewState(2, eq)
	st.AddPair(1, 2)
	st.AddPair(1, 2)
	if st.Pairs() != 1 {
		t.Fatalf("Pairs = %d, want 1", st.Pairs())
	}
	arrive(st, 2, query.T, 5, 0)
	if m := arrive(st, 1, query.S, 5, 1); len(m) != 1 {
		t.Fatalf("duplicate pair produced %d matches", len(m))
	}
}

func TestRemovePair(t *testing.T) {
	st := NewState(2, eq)
	st.AddPair(1, 2)
	st.AddPair(1, 3)
	st.RemovePair(1, 2)
	arrive(st, 2, query.T, 5, 0)
	arrive(st, 3, query.T, 5, 0)
	m := arrive(st, 1, query.S, 5, 1)
	if len(m) != 1 || m[0].T != 3 {
		t.Fatalf("RemovePair left stale pair: %+v", m)
	}
	if st.PairsFor(1, query.S) != 1 || st.PairsFor(3, query.T) != 1 || st.PairsFor(2, query.T) != 0 {
		t.Fatal("PairsFor wrong after removal")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	a := NewState(3, eq)
	a.AddPair(1, 2)
	arrive(a, 1, query.S, 10, 0)
	arrive(a, 1, query.S, 11, 1)
	arrive(a, 2, query.T, 99, 1)
	tuples, bytes := a.Snapshot(1, 2)
	if len(tuples) != 3 {
		t.Fatalf("snapshot has %d tuples, want 3", len(tuples))
	}
	if bytes != 3*6 {
		t.Fatalf("snapshot bytes = %d", bytes)
	}
	b := NewState(3, eq)
	b.AddPair(1, 2)
	b.Restore(tuples)
	if b.WindowLen(1) != 2 || b.WindowLen(2) != 1 {
		t.Fatal("restored window sizes wrong")
	}
	// The migrated state must produce the same joins the old one would.
	m := arrive(b, 2, query.T, 11, 2)
	if len(m) != 1 || m[0].SV != 11 {
		t.Fatalf("restored state missed join: %+v", m)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	st := NewState(2, eq)
	st.AddPair(5, 9)
	arrive(st, 9, query.T, 1, 0)
	arrive(st, 5, query.S, 2, 0)
	t1, _ := st.Snapshot(9, 5)
	t2, _ := st.Snapshot(5, 9)
	if len(t1) != len(t2) {
		t.Fatal("snapshot lengths differ")
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatal("snapshot order depends on argument order")
		}
	}
}

func TestMatchCountMatchesSelectivityProperty(t *testing.T) {
	// Property: with equality join over domain d and full windows of w
	// values, a new tuple matches each buffered tuple independently with
	// probability 1/d. Verify exact counting against a brute-force oracle.
	f := func(vals []uint8, w uint8) bool {
		width := int(w%4) + 1
		st := NewState(width, eq)
		st.AddPair(1, 2)
		var tWindow []int32
		for i, v := range vals {
			val := int32(v % 8)
			if i%2 == 0 {
				got := arrive(st, 2, query.T, val, i)
				// t joining against s windows — oracle not tracked here;
				// just maintain t's window.
				_ = got
				tWindow = append(tWindow, val)
				if len(tWindow) > width {
					tWindow = tWindow[1:]
				}
				continue
			}
			got := len(arrive(st, 1, query.S, val, i))
			want := 0
			for _, tv := range tWindow {
				if tv == val {
					want++
				}
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDropProducer(t *testing.T) {
	st := NewState(2, eq)
	st.AddPair(1, 2)
	arrive(st, 1, query.S, 5, 0)
	st.DropProducer(1)
	if st.WindowLen(1) != 0 {
		t.Fatal("window survived drop")
	}
}

func TestNewStatePanicsOnZeroWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for w=0")
		}
	}()
	NewState(0, eq)
}

func TestCustomPredicate(t *testing.T) {
	// Query 3 style: |sv - tv| > 2, tagged and as a general function.
	far := func(sv, tv int32) bool { return sv-tv > 2 || tv-sv > 2 }
	for _, dyn := range []query.Dyn{{Kind: query.AbsDiffGT, C: 2}, {Kind: query.Func, Fn: far}} {
		st := NewState(2, dyn)
		st.AddPair(1, 2)
		arrive(st, 2, query.T, 10, 0)
		if m := arrive(st, 1, query.S, 11, 1); len(m) != 0 {
			t.Fatalf("kind %d: close values joined", dyn.Kind)
		}
		if m := arrive(st, 1, query.S, 20, 2); len(m) != 1 {
			t.Fatalf("kind %d: distant values did not join", dyn.Kind)
		}
	}
}

// TestMigrationMidStreamProperty is the adaptivity satellite's round-trip
// property: for an arbitrary interleaved arrival sequence split at an
// arbitrary point, processing the prefix at one join node, migrating
// (Snapshot + Restore at a fresh node), and processing the suffix there
// must deliver exactly the match stream an unmigrated node would — no
// match lost, duplicated, reordered or invented by the move.
func TestMigrationMidStreamProperty(t *testing.T) {
	prop := func(vals []uint8, roles []bool, split uint8) bool {
		// Normalize the generated sequence: match roles to values, small
		// value domain (so joins actually occur), arbitrary split point.
		n := len(vals)
		if len(roles) < n {
			n = len(roles)
		}
		if n == 0 {
			return true
		}
		cut := int(split) % (n + 1)
		arrive := func(st *State, dst []Match, from, to int) []Match {
			for i := from; i < to; i++ {
				p, role := topology.NodeID(1), query.S
				if roles[i] {
					p, role = 2, query.T
				}
				dst = st.ArriveAppend(dst, p, role, int32(vals[i]%4), i)
			}
			return dst
		}
		// Oracle: the whole stream at a single node.
		oracle := NewState(3, eq)
		oracle.AddPair(1, 2)
		want := arrive(oracle, nil, 0, n)
		// Migrated: prefix at a, move the window, suffix at b.
		a := NewState(3, eq)
		a.AddPair(1, 2)
		got := arrive(a, nil, 0, cut)
		tuples, _ := a.Snapshot(1, 2)
		a.RemovePair(1, 2)
		b := NewState(3, eq)
		b.AddPair(1, 2)
		b.Restore(tuples)
		got = arrive(b, got, cut, n)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkArrive times one arrival in two shapes. allhit is one state of
// 16 pairs over 8 producers with full windows, where every partner holds a
// match, addressed by handle (ArriveSlot) and by NodeID (ArriveAppend,
// which adds the slot lookup). steady is steady-state stepping's shape: 512
// such states, w = 3, equality, and readings drawn by workload.Generator at
// σ_ST = 0.1, so about one buffered tuple in ten matches and the arrivals
// visit the states in turn.
func BenchmarkArrive(b *testing.B) {
	// allhit is 16 pairs with full windows of 0, 1, 2, so that an arrival
	// of any of those values hits every partner; handle is producer 4's.
	allhit := func(dyn query.Dyn) (st *State, handle int32) {
		st = NewState(3, dyn)
		for s := topology.NodeID(1); s <= 4; s++ {
			for tt := topology.NodeID(5); tt <= 8; tt++ {
				handle, _ = st.AddPair(s, tt)
			}
		}
		for c := 0; c < 3; c++ {
			for p := topology.NodeID(1); p <= 8; p++ {
				role := query.S
				if p > 4 {
					role = query.T
				}
				arrive(st, p, role, int32(c), c)
			}
		}
		return st, handle
	}
	st, handle := allhit(eq)
	var buf []Match
	b.Run("allhit/handle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			buf = st.ArriveSlot(buf[:0], handle, query.S, int32(i%3), i)
		}
	})
	b.Run("func", func(b *testing.B) {
		st, handle := allhit(query.Dyn{Kind: query.Func, Fn: func(sv, tv int32) bool { return sv == tv }})
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			buf = st.ArriveSlot(buf[:0], handle, query.S, int32(i%3), i)
		}
	})
	b.Run("allhit/nodeid", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			buf = st.ArriveAppend(buf[:0], 4, query.S, int32(i%3), i)
		}
	})
	b.Run("steady", func(b *testing.B) {
		type arrival struct {
			st    *State
			slot  int32
			role  query.Rel
			value int32
			cycle int
		}
		gen := workload.NewGenerator(workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1}, 1)
		states := make([]*State, 512)
		slots := make([][8]int32, len(states))
		for k := range states {
			states[k] = NewState(3, eq)
			for s := 0; s < 4; s++ {
				for tt := 4; tt < 8; tt++ {
					slots[k][s], slots[k][tt] = states[k].AddPair(topology.NodeID(8*k+s), topology.NodeID(8*k+tt))
				}
			}
		}
		var stream []arrival
		for c := 0; len(stream) < 1<<16; c++ {
			for k, st := range states {
				for p := 0; p < 8; p++ {
					role := query.Rel(p / 4)
					if v, send := gen.Sample(topology.NodeID(8*k+p), role, c); send {
						stream = append(stream, arrival{st, slots[k][p], role, v, c})
					}
				}
			}
		}
		buf = slices.Grow(buf[:0], 4*3)
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			a := &stream[i%len(stream)]
			buf = a.st.ArriveSlot(buf[:0], a.slot, a.role, a.value, a.cycle)
		}
	})
}

// TestLayout pins the window's records at 4-byte node ids: a widened id
// or a reordered field fails here, not only in a heap benchmark.
func TestLayout(t *testing.T) {
	if got := unsafe.Sizeof(Tuple{}); got != 16 {
		t.Errorf("Tuple is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(Match{}); got != 32 {
		t.Errorf("Match is %d bytes, want 32", got)
	}
}

// TestMemBytesMatchesHeap: MemBytes, which feeds the engine's
// mem.join.bytes gauge, is the heap a state of 10k producers keeps, within
// 10%: it reads its columns' and slot table's capacities, so a change of
// layout cannot leave the gauge behind.
func TestMemBytesMatchesHeap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC() // twice: the first may leave earlier tests' garbage unswept
	runtime.GC()
	runtime.ReadMemStats(&before)
	st := NewState(3, eq)
	for p := topology.NodeID(0); p < 10000; p += 2 {
		st.AddPair(p, p+1)
		for c := range 4 {
			arrive(st, p, query.S, int32(c), c)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	kept := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	got := st.MemBytes()
	runtime.KeepAlive(st)
	t.Logf("MemBytes %d B, heap kept %d B", got, kept)
	if diff := got - kept; diff > kept/10 || -diff > kept/10 {
		t.Fatalf("MemBytes = %d B, the state keeps %d B of heap: off by more than 10%%", got, kept)
	}
}

// TestRingKeepsLastW: a Ring holds the last w tuples pushed, oldest first.
func TestRingKeepsLastW(t *testing.T) {
	r := NewRing(3)
	var want []Tuple
	for c := range 7 {
		tu := Tuple{Producer: 1, Value: int32(10 * c), Cycle: c}
		r.Push(tu)
		want = append(want, tu)
		if len(want) > 3 {
			want = want[1:]
		}
		if got := r.AppendTo(nil); r.Len() != len(want) || !slices.Equal(got, want) {
			t.Fatalf("after %d pushes: %v (len %d), want %v", c+1, got, r.Len(), want)
		}
	}
}
