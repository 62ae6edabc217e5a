// Package window implements the windowed join state a join node maintains
// (sections 2 and 3.2): per-producer sliding windows of the last w tuples,
// probe-on-arrival join computation against the opposite relation's
// windows, and snapshot/restore used when adaptivity migrates a join
// window to a new join node ("the tuples in the old join window are
// transferred to the one in the new join node, resuming query computation
// seamlessly without loss of results").
package window

import (
	"math/bits"
	"slices"
	"unsafe"

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

// slot is one producer's state at this join node: its id and its partners
// as indices into State.slots, so a probe walks partner windows without a
// lookup per partner. Its window lives in State's columns, at its index.
type slot struct {
	id  topology.NodeID
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
//
// The windows are two columns indexed by slot. Slot i's window is
// win[i*(w+2):][:w+2]: its start and its length n, then w readings, a
// ring of the last w oldest first. While n < w the readings are vals[:n]
// and start is 0; once full, the oldest is vals[start]. Their arrival
// cycles sit at cycles[i*w:][:w], read only to emit a match or a snapshot.
type State struct {
	_      noCopy
	w      int
	dyn    query.Dyn
	index  map[topology.NodeID]int32 // producer -> slot, for the NodeID API
	slots  []slot
	free   []int32 // freed slot indices, reused last-in first-out
	win    []int32
	cycles []int
}

// Window header fields, ahead of a slot's readings in State.win.
const (
	winStart = iota
	winLen
	winVals
)

// maskBits is the widest window a probe scans into a hit mask; a wider
// one is walked tuple by tuple.
const maskBits = 64

// noCopy makes go vet's copylocks check flag a copied State: a copy
// shares its columns with the original until either grows, and then the
// two windows silently diverge.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// NewState returns join state with window size w and the given dynamic
// join predicate.
func NewState(w int, dyn query.Dyn) *State {
	st := new(State)
	st.Init(w, dyn)
	return st
}

// Init makes st empty join state with window size w and the given dynamic
// join predicate: NewState for a State held by value, so that an arrival
// reaches its windows without a pointer hop.
func (st *State) Init(w int, dyn query.Dyn) {
	if w <= 0 {
		panic("window: window size must be positive")
	}
	*st = State{w: w, dyn: dyn, index: map[topology.NodeID]int32{}}
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
		st.slots = append(st.slots, slot{id: p})
		st.win = append(st.win, make([]int32, st.w+winVals)...)
		st.cycles = append(st.cycles, make([]int, st.w)...)
	}
	st.index[p] = i
	return i
}

// window returns slot i's header and readings.
func (st *State) window(i int32) []int32 {
	stride := st.w + winVals
	return st.win[int(i)*stride:][:stride]
}

// release frees slot i when its producer has no partners and no window.
func (st *State) release(i int32) {
	s := &st.slots[i]
	if len(s.asS) == 0 && len(s.asT) == 0 && st.window(i)[winLen] == 0 {
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
		dst = st.probe(dst, p.id, p.asS, true, value, cycle)
	} else {
		dst = st.probe(dst, p.id, p.asT, false, value, cycle)
	}
	st.push(i, value, cycle)
	return dst
}

// ArriveBoth is ArriveSlot for a producer that participates in both
// relations (Query 3's symmetric region join): the value joins as S
// against its t-partners and as T against its s-partners, but is buffered
// exactly once — a sensor has one physical window per reading stream.
//
//aspen:allocfree
func (st *State) ArriveBoth(dst []Match, i int32, value int32, cycle int) []Match {
	p := &st.slots[i]
	dst = st.probe(dst, p.id, p.asS, true, value, cycle)
	dst = st.probe(dst, p.id, p.asT, false, value, cycle)
	st.push(i, value, cycle)
	return dst
}

// probe joins value, from producer p, against the windows of the partner
// slots, in partner order, each oldest tuple first: p is S and its
// partners T when asS, else the reverse.
//
// Each partner's readings vals[:n] are scanned into a mask of hits, Eq
// and AbsDiffGT inline. That covers the window because one that is not
// full starts at 0. Only a partner with a hit is visited again, to emit
// its hits oldest first: the mask rotated to start. A Func predicate costs
// a call per tuple either way, so it walks the windows, calling Fn
// directly; so does a window wider than the mask, through Eval.
//
//aspen:allocfree
func (st *State) probe(dst []Match, p topology.NodeID, partners []int32, asS bool, value int32, cycle int) []Match {
	if st.dyn.Kind == query.Func {
		return st.walk(dst, p, partners, asS, value, cycle, st.dyn.Fn)
	}
	if st.w > maskBits {
		return st.walk(dst, p, partners, asS, value, cycle, st.dyn.Eval)
	}
	for _, j := range partners {
		win := st.window(j)
		var hits uint64
		switch vals := win[winVals:][:win[winLen]]; st.dyn.Kind {
		case query.Eq:
			for k, v := range vals {
				if v == value {
					hits |= 1 << k
				}
			}
		case query.AbsDiffGT:
			// Symmetric in its readings, so the roles do not matter.
			for k, v := range vals {
				if query.AbsDiff(value, v) > st.dyn.C {
					hits |= 1 << k
				}
			}
		}
		if hits != 0 {
			dst = st.emit(dst, p, j, asS, value, cycle, hits)
		}
	}
	return dst
}

// emit appends the matches of value against slot j's readings that hits
// marks, oldest first: from start to the end of the ring, then from 0.
//
//aspen:allocfree
func (st *State) emit(dst []Match, p topology.NodeID, j int32, asS bool, value int32, cycle int, hits uint64) []Match {
	win, cycles := st.window(j), st.cycles[int(j)*st.w:][:st.w]
	vals, start := win[winVals:], win[winStart]
	q := st.slots[j].id
	for _, m := range [2]uint64{hits >> start << start, hits & (1<<start - 1)} {
		for ; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			dst = append(dst, match(p, q, asS, value, vals[k], cycle, cycles[k]))
		}
	}
	return dst
}

// walk appends the matches of value, from producer p, against the windows
// of the partner slots, in partner order, testing each buffered tuple
// oldest first with test: p is S and its partners T when asS, else the
// reverse.
//
//aspen:allocfree
func (st *State) walk(dst []Match, p topology.NodeID, partners []int32, asS bool, value int32, cycle int, test func(sv, tv int32) bool) []Match {
	w := st.w
	for _, j := range partners {
		win, cycles := st.window(j), st.cycles[int(j)*w:][:w]
		vals := win[winVals:][:w]
		q := st.slots[j].id
		k := int(win[winStart])
		for left := win[winLen]; left > 0; left-- {
			v := vals[k]
			if asS {
				if test(value, v) {
					dst = append(dst, Match{S: p, T: q, SV: value, TV: v, Cycle: cycle, OldCycle: cycles[k]})
				}
			} else if test(v, value) {
				dst = append(dst, Match{S: q, T: p, SV: v, TV: value, Cycle: cycle, OldCycle: cycles[k]})
			}
			if k++; k == w {
				k = 0
			}
		}
	}
	return dst
}

// match is the result of value, from p at cycle, joining old, buffered
// from q at oldCycle: p is S when asS, else T.
func match(p, q topology.NodeID, asS bool, value, old int32, cycle, oldCycle int) Match {
	if asS {
		return Match{S: p, T: q, SV: value, TV: old, Cycle: cycle, OldCycle: oldCycle}
	}
	return Match{S: q, T: p, SV: old, TV: value, Cycle: cycle, OldCycle: oldCycle}
}

// push enqueues value into slot i's window, evicting the oldest reading
// once the window is full.
//
//aspen:allocfree
func (st *State) push(i int32, value int32, cycle int) {
	win := st.window(i)
	k := win[winLen]
	if int(k) < st.w {
		win[winLen]++
	} else {
		k = win[winStart]
		if win[winStart]++; int(win[winStart]) == st.w {
			win[winStart] = 0
		}
	}
	win[winVals+k] = value
	st.cycles[int(i)*st.w+int(k)] = cycle
}

// appendWindow appends slot i's buffered tuples to dst, oldest first.
func (st *State) appendWindow(dst []Tuple, i int32) []Tuple {
	win, cycles := st.window(i), st.cycles[int(i)*st.w:][:st.w]
	id := st.slots[i].id
	for k, left := int(win[winStart]), win[winLen]; left > 0; left-- {
		dst = append(dst, Tuple{Producer: id, Value: win[winVals+k], Cycle: cycles[k]})
		if k++; k == st.w {
			k = 0
		}
	}
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
			dst = st.appendWindow(dst, i)
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
		st.push(i, t.Value, t.Cycle)
	}
}

// Tuples returns the total buffered tuple count across every producer
// window — the join-state size the engine's observability layer samples
// per query at the epoch barrier.
func (st *State) Tuples() int {
	n := 0
	for i := range st.slots {
		n += int(st.window(int32(i))[winLen])
	}
	return n
}

// WindowLen returns the buffered tuple count for producer p.
func (st *State) WindowLen(p topology.NodeID) int {
	if i, ok := st.index[p]; ok {
		return int(st.window(i)[winLen])
	}
	return 0
}

// DropProducer discards producer p's window (used when a pair leaves).
func (st *State) DropProducer(p topology.NodeID) {
	i, ok := st.index[p]
	if !ok {
		return
	}
	win := st.window(i)
	win[winStart], win[winLen] = 0, 0
	st.release(i)
}

// indexEntryBytes is what the producer index holds per entry: a 4-byte key
// and a 4-byte value with their control byte, at the map's average load.
const indexEntryBytes = 16

// MemBytes returns the heap the state holds beyond its own header, which
// its holder counts: the columns and the slot table at their capacities,
// each slot's partner lists, the free list and the producer index.
func (st *State) MemBytes() int64 {
	b := int64(cap(st.win))*4 + int64(cap(st.cycles))*int64(unsafe.Sizeof(0)) +
		int64(cap(st.slots))*int64(unsafe.Sizeof(slot{})) + int64(cap(st.free))*4 + int64(len(st.index))*indexEntryBytes
	for i := range st.slots {
		b += int64(cap(st.slots[i].asS)+cap(st.slots[i].asT)) * 4
	}
	return b
}
