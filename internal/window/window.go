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

// slot is one producer's state at this join node: its window, stored
// inline, and its partners as indices into State.slots, so a probe walks
// partner windows without a lookup per partner.
type slot struct {
	id topology.NodeID
	// buf is the window's ring of w tuples, kept when the slot is reused.
	// While n < w the tuples are buf[:n] and start is 0; once full, the
	// oldest is buf[start].
	buf      []Tuple
	start, n int
	asS      []int32 // T partners of this producer acting as S
	asT      []int32 // S partners of this producer acting as T
}

// push enqueues t, evicting the oldest tuple once the window is full.
func (s *slot) push(t Tuple) {
	if s.n < len(s.buf) {
		s.buf[s.n] = t
		s.n++
		return
	}
	s.buf[s.start] = t
	if s.start++; s.start == len(s.buf) {
		s.start = 0
	}
}

// runs returns the window oldest first as two contiguous runs.
func (s *slot) runs() [2][]Tuple {
	return [2][]Tuple{s.buf[s.start:s.n], s.buf[:s.start]}
}

// State is the join state for a set of (s,t) producer pairs colocated at
// one join node. Each producer has one physical window shared by all its
// pairs (the paper's storage model: "window of values from each
// producer").
//
// Every producer seen here holds a dense slot. A slot is freed, and later
// reused, once its producer has neither partners nor buffered tuples, so
// the state is sized by the producers it serves, not by the deployment.
type State struct {
	w     int
	dyn   func(sv, tv int32) bool
	index map[topology.NodeID]int32 // producer -> slot
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
		st.slots = append(st.slots, slot{id: p, buf: make([]Tuple, st.w)})
	}
	st.index[p] = i
	return i
}

// release frees slot i when its producer has no partners and no window.
func (st *State) release(i int32) {
	s := &st.slots[i]
	if len(s.asS) == 0 && len(s.asT) == 0 && s.n == 0 {
		delete(st.index, s.id)
		st.free = append(st.free, i)
	}
}

// AddPair registers a producer pair handled at this join node. Duplicate
// registrations are ignored.
func (st *State) AddPair(s, t topology.NodeID) {
	si, ti := st.slotFor(s), st.slotFor(t)
	for _, x := range st.slots[si].asS {
		if x == ti {
			return
		}
	}
	st.slots[si].asS = append(st.slots[si].asS, ti)
	st.slots[ti].asT = append(st.slots[ti].asT, si)
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

// Arrive processes a new tuple from producer p acting in role: it is
// joined against the buffered windows of every partner, then enqueued into
// p's own window (evicting the expired tuple). Matches are returned in
// deterministic partner order.
func (st *State) Arrive(p topology.NodeID, role query.Rel, value int32, cycle int) []Match {
	return st.ArriveAppend(nil, p, role, value, cycle)
}

// ArriveAppend is Arrive with a caller-supplied result buffer: matches are
// appended to dst and the extended slice returned, so a hot loop that
// reuses its buffer across cycles joins without allocating.
//
//aspen:allocfree
func (st *State) ArriveAppend(dst []Match, p topology.NodeID, role query.Rel, value int32, cycle int) []Match {
	i, ok := st.index[p]
	if !ok {
		// No slot means no partners: nothing to probe, only to buffer.
		i = st.newSlot(p) //aspen:alloc cold: a producer's first tuple here creates its slot
	} else if role == query.S {
		dst = st.probeAsS(dst, &st.slots[i], value, cycle)
	} else {
		dst = st.probeAsT(dst, &st.slots[i], value, cycle)
	}
	st.slots[i].push(Tuple{Producer: p, Value: value, Cycle: cycle})
	return dst
}

// probeAsS joins value (from producer p acting as S) against the buffered
// windows of p's T partners, oldest tuple first.
//
//aspen:allocfree
func (st *State) probeAsS(dst []Match, p *slot, value int32, cycle int) []Match {
	for _, j := range p.asS {
		t := &st.slots[j]
		for _, run := range t.runs() {
			for k := range run {
				if old := &run[k]; st.dyn(value, old.Value) {
					dst = append(dst, Match{S: p.id, T: t.id, SV: value, TV: old.Value, Cycle: cycle, OldCycle: old.Cycle})
				}
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
		for _, run := range s.runs() {
			for k := range run {
				if old := &run[k]; st.dyn(old.Value, value) {
					dst = append(dst, Match{S: s.id, T: p.id, SV: old.Value, TV: value, Cycle: cycle, OldCycle: old.Cycle})
				}
			}
		}
	}
	return dst
}

// ArriveBothAppend processes a tuple from a producer that participates in
// both relations (Query 3's symmetric region join), appending its matches
// to dst as ArriveAppend does: the value joins as S against its t-partners
// and as T against its s-partners, but is buffered exactly once — a sensor
// has one physical window per reading stream.
//
//aspen:allocfree
func (st *State) ArriveBothAppend(dst []Match, p topology.NodeID, value int32, cycle int) []Match {
	i, ok := st.index[p]
	if !ok {
		i = st.newSlot(p) //aspen:alloc cold: a producer's first tuple here creates its slot
	} else {
		dst = st.probeAsS(dst, &st.slots[i], value, cycle)
		dst = st.probeAsT(dst, &st.slots[i], value, cycle)
	}
	st.slots[i].push(Tuple{Producer: p, Value: value, Cycle: cycle})
	return dst
}

// Snapshot extracts the windows of the given producers, ordered for
// deterministic transfer, along with their wire size in bytes (what a
// migration transfer costs).
func (st *State) Snapshot(producers ...topology.NodeID) (tuples []Tuple, bytes int) {
	slices.Sort(producers)
	for _, p := range producers {
		if i, ok := st.index[p]; ok {
			for _, run := range st.slots[i].runs() {
				tuples = append(tuples, run...)
			}
		}
	}
	return tuples, len(tuples) * sim.TupleBytes
}

// Restore loads transferred tuples into this state's windows, preserving
// arrival order.
func (st *State) Restore(tuples []Tuple) {
	for _, t := range tuples {
		st.slots[st.slotFor(t.Producer)].push(t)
	}
}

// Tuples returns the total buffered tuple count across every producer
// window — the join-state size the engine's observability layer samples
// per query at the epoch barrier.
func (st *State) Tuples() int {
	n := 0
	for i := range st.slots {
		n += st.slots[i].n
	}
	return n
}

// WindowLen returns the buffered tuple count for producer p.
func (st *State) WindowLen(p topology.NodeID) int {
	if i, ok := st.index[p]; ok {
		return st.slots[i].n
	}
	return 0
}

// DropProducer discards producer p's window (used when a pair leaves).
func (st *State) DropProducer(p topology.NodeID) {
	i, ok := st.index[p]
	if !ok {
		return
	}
	st.slots[i].start, st.slots[i].n = 0, 0
	st.release(i)
}
