// Package window implements the windowed join state a join node maintains
// (sections 2 and 3.2): per-producer sliding windows of the last w tuples,
// probe-on-arrival join computation against the opposite relation's
// windows, and snapshot/restore used when adaptivity migrates a join
// window to a new join node ("the tuples in the old join window are
// transferred to the one in the new join node, resuming query computation
// seamlessly without loss of results").
package window

import (
	"slices"

	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Tuple is one buffered reading.
type Tuple struct {
	Producer topology.NodeID
	Value    int32
	Cycle    int
}

// Match is one join result: the two producers and the two joined readings.
type Match struct {
	S, T   topology.NodeID
	SV, TV int32
	// Cycle is the arrival cycle of the newer tuple; OldCycle that of the
	// buffered one (their difference is the result's intrinsic delay).
	Cycle    int
	OldCycle int
}

// Ring is a window of the last w tuples, oldest first. Its storage is
// allocated once, by NewRing: while n < w the tuples are buf[:n] and start
// is 0; once full, the oldest is buf[start].
type Ring struct {
	buf      []Tuple
	start, n int
}

// NewRing returns an empty ring of w tuples.
func NewRing(w int) Ring { return Ring{buf: make([]Tuple, w)} }

// Push enqueues t, evicting the oldest tuple once the ring is full.
func (r *Ring) Push(t Tuple) {
	if r.n < len(r.buf) {
		r.buf[r.n] = t
		r.n++
		return
	}
	r.buf[r.start] = t
	if r.start++; r.start == len(r.buf) {
		r.start = 0
	}
}

// Len returns the buffered tuple count.
func (r *Ring) Len() int { return r.n }

// AppendTo appends the buffered tuples to dst, oldest first.
func (r *Ring) AppendTo(dst []Tuple) []Tuple {
	return append(append(dst, r.buf[r.start:r.n]...), r.buf[:r.start]...)
}

// slot is one producer's state at this join node: its window, stored
// inline and kept when the slot is reused, and its partners as indices
// into State.slots, so a probe walks partner windows without a lookup per
// partner.
type slot struct {
	id  topology.NodeID
	win Ring
	asS []int32 // T partners of this producer acting as S
	asT []int32 // S partners of this producer acting as T
}

// State is the join state for a set of (s,t) producer pairs colocated at
// one join node. Each producer has one physical window shared by all its
// pairs (the paper's storage model: "window of values from each
// producer").
//
// Every producer seen here holds a dense slot. A slot is freed, and later
// reused, once its producer has neither partners nor buffered tuples, so
// the state is sized by the producers it serves, not by the deployment.
// A slot number is a handle: AddPair returns its producers' slots, and
// ArriveSlot and ArriveBoth take one, with no lookup. A handle stays valid while its
// producer has a pair registered here, because only a slot with no
// partners is freed.
type State struct {
	w     int
	dyn   func(sv, tv int32) bool
	index map[topology.NodeID]int32 // producer -> slot, for the NodeID API
	slots []slot
	free  []int32 // freed slot indices, reused last-in first-out
}

// NewState returns join state with window size w and the given dynamic
// join predicate.
func NewState(w int, dyn func(sv, tv int32) bool) *State {
	if w <= 0 {
		panic("window: window size must be positive")
	}
	return &State{w: w, dyn: dyn, index: map[topology.NodeID]int32{}}
}

// slotFor returns p's slot, creating it on first sight.
func (st *State) slotFor(p topology.NodeID) int32 {
	if i, ok := st.index[p]; ok {
		return i
	}
	return st.newSlot(p)
}

// newSlot gives p, which holds no slot, a freed slot or a new one.
func (st *State) newSlot(p topology.NodeID) int32 {
	var i int32
	if k := len(st.free); k > 0 {
		// A freed slot has no partners and an empty window (release).
		i, st.free = st.free[k-1], st.free[:k-1]
		st.slots[i].id = p
	} else {
		i = int32(len(st.slots))
		st.slots = append(st.slots, slot{id: p, win: NewRing(st.w)})
	}
	st.index[p] = i
	return i
}

// release frees slot i when its producer has no partners and no window.
func (st *State) release(i int32) {
	s := &st.slots[i]
	if len(s.asS) == 0 && len(s.asT) == 0 && s.win.n == 0 {
		delete(st.index, s.id)
		st.free = append(st.free, i)
	}
}

// AddPair registers a producer pair handled at this join node and returns
// the slots of s and t, valid for ArriveSlot while the pair stays
// registered. A duplicate registration changes nothing and returns the
// same slots.
func (st *State) AddPair(s, t topology.NodeID) (sSlot, tSlot int32) {
	si, ti := st.slotFor(s), st.slotFor(t)
	if !slices.Contains(st.slots[si].asS, ti) {
		st.slots[si].asS = append(st.slots[si].asS, ti)
		st.slots[ti].asT = append(st.slots[ti].asT, si)
	}
	return si, ti
}

// RemovePair unregisters a pair (join node migration moves pairs away).
func (st *State) RemovePair(s, t topology.NodeID) {
	si, okS := st.index[s]
	ti, okT := st.index[t]
	if !okS || !okT {
		return
	}
	st.slots[si].asS = remove(st.slots[si].asS, ti)
	st.slots[ti].asT = remove(st.slots[ti].asT, si)
	st.release(si)
	if ti != si {
		st.release(ti)
	}
}

func remove(xs []int32, v int32) []int32 {
	out := xs[:0]
	for _, x := range xs {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

// Partners returns how many pairs the producer holding slot i has here,
// in either role: with w, it bounds the matches one arrival can make.
func (st *State) Partners(i int32) int { return len(st.slots[i].asS) + len(st.slots[i].asT) }

// Pairs returns the registered pair count.
func (st *State) Pairs() int {
	n := 0
	for i := range st.slots {
		n += len(st.slots[i].asS)
	}
	return n
}

// PairsFor returns how many pairs producer p participates in here (the
// N_pj of the group cost expression).
func (st *State) PairsFor(p topology.NodeID, role query.Rel) int {
	i, ok := st.index[p]
	if !ok {
		return 0
	}
	if role == query.S {
		return len(st.slots[i].asS)
	}
	return len(st.slots[i].asT)
}

// ArriveAppend processes a new tuple from producer p acting in role: it is
// joined against the buffered windows of every partner, then enqueued into
// p's own window (evicting the expired tuple). Matches are appended to dst
// in deterministic partner order and the extended slice returned, so a hot
// loop that reuses its buffer across cycles joins without allocating. It
// resolves p's slot and is otherwise ArriveSlot.
//
//aspen:allocfree
func (st *State) ArriveAppend(dst []Match, p topology.NodeID, role query.Rel, value int32, cycle int) []Match {
	i, ok := st.index[p]
	if !ok {
		// A new slot has no partners: the arrival only buffers.
		i = st.newSlot(p) //aspen:alloc cold: a producer's first tuple here creates its slot
	}
	return st.ArriveSlot(dst, i, role, value, cycle)
}

// ArriveSlot is ArriveAppend for the producer holding slot i, a handle
// AddPair returned: the arrival is joined and buffered with no lookup.
//
//aspen:allocfree
func (st *State) ArriveSlot(dst []Match, i int32, role query.Rel, value int32, cycle int) []Match {
	p := &st.slots[i]
	if role == query.S {
		dst = st.probeAsS(dst, p, value, cycle)
	} else {
		dst = st.probeAsT(dst, p, value, cycle)
	}
	p.win.Push(Tuple{Producer: p.id, Value: value, Cycle: cycle})
	return dst
}

// probeAsS joins value (from producer p acting as S) against the buffered
// windows of p's T partners, oldest tuple first.
//
//aspen:allocfree
func (st *State) probeAsS(dst []Match, p *slot, value int32, cycle int) []Match {
	for _, j := range p.asS {
		t := &st.slots[j]
		w := &t.win
		for k, left := w.start, w.n; left > 0; left-- {
			if old := &w.buf[k]; st.dyn(value, old.Value) {
				dst = append(dst, Match{S: p.id, T: t.id, SV: value, TV: old.Value, Cycle: cycle, OldCycle: old.Cycle})
			}
			if k++; k == len(w.buf) {
				k = 0
			}
		}
	}
	return dst
}

// probeAsT joins value (from producer p acting as T) against the buffered
// windows of p's S partners, oldest tuple first.
//
//aspen:allocfree
func (st *State) probeAsT(dst []Match, p *slot, value int32, cycle int) []Match {
	for _, j := range p.asT {
		s := &st.slots[j]
		w := &s.win
		for k, left := w.start, w.n; left > 0; left-- {
			if old := &w.buf[k]; st.dyn(old.Value, value) {
				dst = append(dst, Match{S: s.id, T: p.id, SV: old.Value, TV: value, Cycle: cycle, OldCycle: old.Cycle})
			}
			if k++; k == len(w.buf) {
				k = 0
			}
		}
	}
	return dst
}

// ArriveBoth is ArriveSlot for a producer that participates in both
// relations (Query 3's symmetric region join): the value joins as S
// against its t-partners and as T against its s-partners, but is buffered
// exactly once — a sensor has one physical window per reading stream.
//
//aspen:allocfree
func (st *State) ArriveBoth(dst []Match, i int32, value int32, cycle int) []Match {
	s := &st.slots[i]
	dst = st.probeAsS(dst, s, value, cycle)
	dst = st.probeAsT(dst, s, value, cycle)
	s.win.Push(Tuple{Producer: s.id, Value: value, Cycle: cycle})
	return dst
}

// Snapshot extracts the windows of the given producers, ordered for
// deterministic transfer, along with their wire size in bytes (what a
// migration transfer costs). It is SnapshotAppend into a new slice.
func (st *State) Snapshot(producers ...topology.NodeID) (tuples []Tuple, bytes int) {
	return st.SnapshotAppend(nil, producers...)
}

// SnapshotAppend appends the windows of the given producers to dst in
// ascending producer order, each oldest first, and returns the extended
// slice and the appended tuples' wire size in bytes. producers is left as
// the caller passed it.
func (st *State) SnapshotAppend(dst []Tuple, producers ...topology.NodeID) ([]Tuple, int) {
	var small [8]topology.NodeID
	sorted := append(small[:0], producers...)
	slices.Sort(sorted)
	n := len(dst)
	for _, p := range sorted {
		if i, ok := st.index[p]; ok {
			dst = st.slots[i].win.AppendTo(dst)
		}
	}
	return dst, (len(dst) - n) * sim.TupleBytes
}

// Restore loads transferred tuples into this state's windows, preserving
// arrival order. It resolves one slot per run of a producer's tuples.
func (st *State) Restore(tuples []Tuple) {
	var i int32
	for k, t := range tuples {
		if k == 0 || t.Producer != tuples[k-1].Producer {
			i = st.slotFor(t.Producer)
		}
		st.slots[i].win.Push(t)
	}
}

// Tuples returns the total buffered tuple count across every producer
// window — the join-state size the engine's observability layer samples
// per query at the epoch barrier.
func (st *State) Tuples() int {
	n := 0
	for i := range st.slots {
		n += st.slots[i].win.n
	}
	return n
}

// WindowLen returns the buffered tuple count for producer p.
func (st *State) WindowLen(p topology.NodeID) int {
	if i, ok := st.index[p]; ok {
		return st.slots[i].win.n
	}
	return 0
}

// DropProducer discards producer p's window (used when a pair leaves).
func (st *State) DropProducer(p topology.NodeID) {
	i, ok := st.index[p]
	if !ok {
		return
	}
	st.slots[i].win.start, st.slots[i].win.n = 0, 0
	st.release(i)
}
