package join

import (
	"repro/internal/query"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/window"
	"repro/internal/workload"
)

// registrationBytes is the initiation payload carrying a producer's static
// join attributes; ackBytes is the participate/skip response.
const (
	registrationBytes = 4 * sim.ValueBytes
	ackBytes          = sim.ValueBytes
)

// Naive joins everything at the base station with no per-query setup:
// selection conditions are pushed down, then every satisfying source tuple
// is sent to the base (section 2.2, "Grouped Join: At the Base").
type Naive struct {
	// Merge enables Appendix E's opportunistic packet merging on the data
	// path: tuples sharing tree links ride one packet.
	Merge bool
}

// Name implements Continuous.
func (Naive) Name() string { return "Naive" }

// Start implements Continuous.
func (a Naive) Start(cfg *Config) Stepper {
	// No initiation (beyond initial routing-tree construction, which is
	// shared by every algorithm and excluded per Table 3).
	return newBaseStepper(cfg, "Naive", a.Merge, baseState(cfg), eligibleProducers(cfg.Spec, cfg.Topo.N()), nil)
}

// newBaseStepper snapshots the initiation costs charged so far and returns
// the join-at-base execution over producers (filtered when filter is set).
func newBaseStepper(cfg *Config, algorithm string, merge bool, st *window.State, producers []producerSlot, filter *participantFilter) *baseStepper {
	b := &baseStepper{stepperBase: newStepperBase(cfg, algorithm), merge: merge, st: st, producers: producers, filter: filter}
	snapshotInit(cfg, b.res)
	b.done = make([]bool, cfg.Topo.N())
	b.memBytes = int64(len(b.done))
	return b
}

// baseStepper is the shared continuous execution of the join-at-base
// algorithms; filter is nil for Naive and Base's participant set, merge
// the algorithm's Appendix E switch.
type baseStepper struct {
	stepperBase
	merge     bool
	st        *window.State
	producers []producerSlot
	filter    *participantFilter
	// done and matchBuf are per-cycle scratch (dual-role dedup marks and
	// the reusable Arrive buffer) so Step calls never allocate; done is
	// sized at Start and cleared after every cycle.
	done     []bool
	matchBuf []window.Match
}

// Step implements Stepper.
//
//aspen:allocfree
func (b *baseStepper) Step(cycle int) {
	b.cfg.Net.BeginCycle(cycle)
	if b.merge {
		runBaseCycleMerged(b.cfg, b.st, b.rec, b.producers, b.filter, cycle)
	} else {
		b.runCycle(cycle)
	}
}

// runCycle executes one sampling cycle of a join-at-base algorithm:
// producers sample, admitted tuples travel up the base tree, and the base
// joins them. b.filter, when non-nil, drops producer slots not in the set
// (Base's pre-filtering).
//
//aspen:allocfree
func (b *baseStepper) runCycle(cycle int) {
	cfg := b.cfg
	for _, p := range b.producers {
		if b.filter != nil && !b.filter.has(p) {
			continue
		}
		if bothRoles(cfg.Spec, p.id) {
			// One physical reading serves both roles; handle on the S
			// visit and skip the T slot.
			if b.done[p.id] {
				continue
			}
			b.done[p.id] = true
			v, send := cfg.Sampler.Sample(p.id, query.S, cycle)
			if !send {
				continue
			}
			if ok, _ := cfg.Net.Transfer(cfg.Sub.PathToBase(p.id), sim.TupleBytes, sim.Data, sim.Flow{Src: p.id, Dst: topology.Base}); ok {
				b.matchBuf = b.st.ArriveBothAppend(b.matchBuf[:0], p.id, v, cycle)
				b.rec.record(len(b.matchBuf), cycle)
			}
			continue
		}
		v, send := cfg.Sampler.Sample(p.id, p.role, cycle)
		if !send {
			continue
		}
		if ok, _ := cfg.Net.Transfer(cfg.Sub.PathToBase(p.id), sim.TupleBytes, sim.Data, sim.Flow{Src: p.id, Dst: topology.Base}); ok {
			b.matchBuf = b.st.ArriveAppend(b.matchBuf[:0], p.id, p.role, v, cycle)
			b.rec.record(len(b.matchBuf), cycle)
		}
	}
	for _, p := range b.producers {
		b.done[p.id] = false
	}
}

// JoinStateTuples implements Stepper: everything buffered at the base.
func (b *baseStepper) JoinStateTuples() int { return b.st.Tuples() }

// Finish implements Stepper.
func (b *baseStepper) Finish() *Result {
	b.res.AtBasePairs = b.st.Pairs()
	return finish(b.cfg, b.res)
}

// Base refines Naive with a pre-computation step for static join clauses,
// eliminating source nodes that cannot participate in any join: costlier
// initiation for cheaper computation.
type Base struct {
	// Merge is Naive.Merge for Base's data path.
	Merge bool
}

// Name implements Continuous.
func (Base) Name() string { return "Base" }

// Start implements Continuous.
func (a Base) Start(cfg *Config) Stepper {
	st := baseState(cfg)
	// Initiation: every statically eligible producer ships its static
	// join attributes to the base, which answers with participate/skip.
	producers := eligibleProducers(cfg.Spec, cfg.Topo.N())
	for _, p := range producers {
		up := cfg.Sub.PathToBase(p.id)
		cfg.Net.Transfer(up, registrationBytes, sim.Control, sim.Flow{})
		cfg.Net.Transfer(up.Reverse(), ackBytes, sim.Control, sim.Flow{})
	}
	// Computation: only producers participating in at least one pair send.
	return newBaseStepper(cfg, "Base", a.Merge, st, producers, participantSet(cfg.Spec, cfg.Topo.N()))
}

// baseState builds the base station's join state over the query's ground
// truth pairs (the base holds the full query and all static attributes, so
// it evaluates static join clauses exactly).
func baseState(cfg *Config) *window.State {
	st := window.NewState(cfg.Spec.W, cfg.Spec.DynJoin)
	for _, g := range cfg.Spec.Groups() {
		for _, p := range g.Pairs {
			st.AddPair(p[0], p[1])
		}
	}
	return st
}

// participantFilter marks (node, role) slots that appear in at least one
// pair — dense per-role bitmaps so the per-producer admission test in the
// cycle loop is a slice index instead of a hash of a struct key.
type participantFilter struct {
	s, t []bool
}

func (f *participantFilter) has(p producerSlot) bool {
	if p.role == query.S {
		return f.s[p.id]
	}
	return f.t[p.id]
}

// participantSet builds the participation filter over a deployment of n
// nodes.
func participantSet(spec *workload.Spec, n int) *participantFilter {
	out := &participantFilter{s: make([]bool, n), t: make([]bool, n)}
	for _, g := range spec.Groups() {
		for _, p := range g.Pairs {
			out.s[p[0]] = true
			out.t[p[1]] = true
		}
	}
	return out
}

// Yang07 is the through-the-base algorithm of [16]: source tuples flow to
// the base station, which relays them down to the matching target nodes;
// targets join locally and return results to the base. It trades base
// storage for extra downstream traffic.
type Yang07 struct{}

// Name implements Continuous.
func (Yang07) Name() string { return "Yang+07" }

// Start implements Continuous.
func (Yang07) Start(cfg *Config) Stepper {
	y := &yangStepper{stepperBase: newStepperBase(cfg, "Yang+07")}
	n := cfg.Topo.N()
	y.states = make([]*window.State, n)
	y.partnersOfS = make([][]topology.NodeID, n)
	y.memBytes = int64(n) * (wordBytes + sliceBytes)
	// Per-target local join state.
	for _, g := range cfg.Spec.Groups() {
		for _, pr := range g.Pairs {
			s, t := pr[0], pr[1]
			st := y.states[t]
			if st == nil {
				st = window.NewState(cfg.Spec.W, cfg.Spec.DynJoin)
				y.states[t] = st
			}
			st.AddPair(s, t)
			y.partnersOfS[s] = append(y.partnersOfS[s], t)
		}
	}
	snapshotInit(cfg, y.res) // no initiation beyond tree construction
	return y
}

// yangStepper is the continuous execution of the through-the-base
// algorithm.
type yangStepper struct {
	stepperBase
	// states[t] is target t's local join state; partnersOfS[s] lists s's
	// matching targets. Dense NodeID-indexed slices (nil/empty when the
	// node plays no part).
	states      []*window.State
	partnersOfS [][]topology.NodeID
	matchBuf    []window.Match // reusable Arrive buffer
	downBuf     routing.Path   // reusable reversed-path scratch
}

// Step implements Stepper.
//
//aspen:allocfree
func (y *yangStepper) Step(cycle int) {
	cfg, rec := y.cfg, y.rec
	cfg.Net.BeginCycle(cycle)
	n := cfg.Topo.N()
	// Targets first: a target's own reading joins locally for free.
	for i := 0; i < n; i++ {
		t := topology.NodeID(i)
		st := y.states[t]
		if st == nil {
			continue
		}
		v, send := cfg.Sampler.Sample(t, query.T, cycle)
		if !send {
			continue
		}
		y.matchBuf = st.ArriveAppend(y.matchBuf[:0], t, query.T, v, cycle)
		sendResults(cfg, rec, t, len(y.matchBuf), cycle)
	}
	// Sources: up to the base, then relayed down to each target.
	for i := 0; i < n; i++ {
		s := topology.NodeID(i)
		targets := y.partnersOfS[s]
		if len(targets) == 0 {
			continue
		}
		v, send := cfg.Sampler.Sample(s, query.S, cycle)
		if !send {
			continue
		}
		up := cfg.Sub.PathToBase(s)
		if ok, _ := cfg.Net.Transfer(up, sim.TupleBytes, sim.Data, sim.Flow{Src: s, Dst: topology.Base}); !ok {
			continue
		}
		for _, t := range targets {
			down := y.downBuf.ReverseOf(cfg.Sub.PathToBase(t))
			y.downBuf = down
			if ok, _ := cfg.Net.Transfer(down, sim.TupleBytes, sim.Data, sim.Flow{Src: s, Dst: t}); ok {
				y.matchBuf = y.states[t].ArriveAppend(y.matchBuf[:0], s, query.S, v, cycle)
				sendResults(cfg, rec, t, len(y.matchBuf), cycle)
			}
		}
	}
}

// JoinStateTuples implements Stepper: tuples buffered across the
// per-target join states.
func (y *yangStepper) JoinStateTuples() int {
	n := 0
	for _, st := range y.states {
		if st != nil {
			n += st.Tuples()
		}
	}
	return n
}

// Finish implements Stepper.
func (y *yangStepper) Finish() *Result {
	y.res.InNetPairs = countPairs(y.cfg.Spec)
	return finish(y.cfg, y.res)
}

func countPairs(spec *workload.Spec) int {
	n := 0
	for _, g := range spec.Groups() {
		n += len(g.Pairs)
	}
	return n
}

// HomeRouter abstracts the hash-addressed substrates: GHT over motes
// (geographic hashing + GPSR) and a DHT over mesh networks. Both map a
// join key to a home node and route to it. ObserveFailures tells a router
// that memoizes routing state (dht.Ring's per-destination parent vectors)
// to recompute it around the failed nodes of live; it runs only while the
// caller is sequential (Start, Recover).
type HomeRouter interface {
	HomeNode(key int32) topology.NodeID
	Route(from, to topology.NodeID) routing.Path
	ObserveFailures(live *topology.Liveness)
}

// Hashed is the grouped join over a hash-addressed substrate: every
// producer with a given join key sends to the key's home node, which
// performs the join and forwards results to the base. Its placement is
// unpredictable — the home node may be arbitrarily far from every
// producer, which is exactly why the paper finds GHT uncompetitive.
type Hashed struct {
	// Label distinguishes "GHT" (motes) from "DHT" (mesh).
	Label  string
	Router HomeRouter
}

// Name implements Continuous.
func (h Hashed) Name() string { return h.Label }

// member is one producer slot of a hash group and its route to the home
// node.
type member struct {
	id   topology.NodeID
	role query.Rel
	path routing.Path
}

// ghtGroup is one join group's home node, state and membership.
type ghtGroup struct {
	home    topology.NodeID
	state   *window.State
	members []member
}

// Start implements Continuous.
func (h Hashed) Start(cfg *Config) Stepper {
	// A query admitted into a deployment that has already lost nodes must
	// not compute member routes through them: bind the router to the
	// network's liveness view up front (the failure hook rebinds on later
	// failures). A no-op on fresh deployments.
	if cfg.Net.Liveness().AnyDead() {
		h.Router.ObserveFailures(cfg.Net.Liveness())
	}
	groups := cfg.Spec.Groups()
	gs := make([]ghtGroup, 0, len(groups))
	for _, g := range groups {
		key := int32(g.Key ^ (g.Key >> 31))
		home := h.Router.HomeNode(key)
		gg := ghtGroup{home: home, state: window.NewState(cfg.Spec.W, cfg.Spec.DynJoin)}
		for _, pr := range g.Pairs {
			gg.state.AddPair(pr[0], pr[1])
		}
		seen := map[producerSlot]bool{}
		for _, s := range g.S {
			if !seen[producerSlot{s, query.S}] {
				seen[producerSlot{s, query.S}] = true
				gg.members = append(gg.members, member{s, query.S, h.Router.Route(s, home)})
			}
		}
		for _, t := range g.T {
			if !seen[producerSlot{t, query.T}] {
				seen[producerSlot{t, query.T}] = true
				gg.members = append(gg.members, member{t, query.T, h.Router.Route(t, home)})
			}
		}
		gs = append(gs, gg)
	}
	// Initiation: one registration round trip per member along the hash
	// route (Table 3: initiation >= sigma_s*sum D_sj + sigma_t*sum D_tj).
	for _, gg := range gs {
		for _, m := range gg.members {
			cfg.Net.Transfer(m.path, registrationBytes, sim.Control, sim.Flow{})
			cfg.Net.Transfer(m.path.Reverse(), ackBytes, sim.Control, sim.Flow{})
		}
	}
	hs := &hashedStepper{stepperBase: newStepperBase(cfg, h.Label), gs: gs, router: h.Router}
	snapshotInit(cfg, hs.res)
	return hs
}

// hashedStepper is the continuous execution of a hash-addressed join.
type hashedStepper struct {
	stepperBase
	gs       []ghtGroup
	router   HomeRouter
	matchBuf []window.Match // reusable Arrive buffer
}

// Recover implements Stepper for the hash-addressed substrates, for node
// failures only (link faults surface as observable drops): the router's
// memoized routing state (dht.Ring's parent vectors) is invalidated
// against the deployment liveness, then every member route crossing a
// failed node is recomputed. A reroute that now avoids the failure counts
// as a repair; members the substrate can no longer route (home node dead,
// or the member cut off) keep their stale path, whose transmissions are
// charged and dropped at the dead hop — hash substrates have no
// base-station fallback (the home node IS the rendezvous), which is part
// of why the paper finds them fragile.
func (h *hashedStepper) Recover(failed []topology.NodeID, _ *routing.Repairer) (repaired, fallbacks int) {
	if failed == nil {
		return 0, 0
	}
	h.router.ObserveFailures(h.cfg.Net.Liveness())
	for gi := range h.gs {
		gg := &h.gs[gi]
		if !h.cfg.Net.Alive(gg.home) {
			continue // rendezvous gone: the group stalls
		}
		for mi := range gg.members {
			m := &gg.members[mi]
			if !h.cfg.Net.Alive(m.id) || !m.path.ContainsAny(failed) {
				continue
			}
			if np := h.router.Route(m.id, gg.home); np != nil && !np.ContainsAny(failed) {
				m.path = np
				repaired++
			}
		}
	}
	return repaired, 0
}

// Step implements Stepper.
//
//aspen:allocfree
func (h *hashedStepper) Step(cycle int) {
	cfg := h.cfg
	cfg.Net.BeginCycle(cycle)
	for gi := range h.gs {
		gg := &h.gs[gi]
		matches := 0
		for _, m := range gg.members {
			if m.path == nil {
				// The substrate could not route this member to the home
				// node (cut off by failures at admission); a nil path
				// must not count as a vacuous delivery.
				continue
			}
			v, send := cfg.Sampler.Sample(m.id, m.role, cycle)
			if !send {
				continue
			}
			if ok, _ := cfg.Net.Transfer(m.path, sim.TupleBytes, sim.Data, sim.Flow{Src: m.id, Dst: gg.home}); ok {
				h.matchBuf = gg.state.ArriveAppend(h.matchBuf[:0], m.id, m.role, v, cycle)
				matches += len(h.matchBuf)
			}
		}
		sendResults(cfg, h.rec, gg.home, matches, cycle)
	}
}

// JoinStateTuples implements Stepper: tuples buffered at the home
// nodes.
func (h *hashedStepper) JoinStateTuples() int {
	n := 0
	for i := range h.gs {
		if st := h.gs[i].state; st != nil {
			n += st.Tuples()
		}
	}
	return n
}

// Finish implements Stepper.
func (h *hashedStepper) Finish() *Result {
	h.res.InNetPairs = countPairs(h.cfg.Spec)
	return finish(h.cfg, h.res)
}
