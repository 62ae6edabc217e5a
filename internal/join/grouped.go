package join

import (
	"repro/internal/query"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/window"
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
	// path: tuples sharing tree links ride one packet. It is off by default
	// so the headline figures use the same per-message accounting as the
	// paper's main algorithms; BenchmarkAblationMerge quantifies the saving.
	Merge bool
}

// Name implements Continuous.
func (Naive) Name() string { return "Naive" }

// Start implements Continuous.
func (a Naive) Start(cfg *Config) Stepper {
	// No initiation (beyond initial routing-tree construction, which is
	// shared by every algorithm and excluded per Table 3).
	return startAtBase(cfg, "Naive", a.Merge, eligibleProducers(cfg.Spec, cfg.Topo.N()), false)
}

// startAtBase builds the join-at-base route table: one leg up the base tree
// into the base's join state for every producer slot (only those in some
// pair when participants is set), in node order. A node filling both roles
// sends one reading for both, at its first admitted slot.
func startAtBase(cfg *Config, algorithm string, merge bool, producers []producerSlot, participants bool) Stepper {
	s := &siteStepper{stepperBase: newStepperBase(cfg, algorithm), merge: merge}
	n := cfg.Topo.N()
	st := window.NewState(cfg.Spec.W, cfg.Spec.DynJoin)
	in := [2][]bool{make([]bool, n), make([]bool, n)} // pair membership by role
	for _, g := range cfg.Spec.Groups() {
		for _, pr := range g.Pairs {
			st.AddPair(pr[0], pr[1])
			in[query.S][pr[0]], in[query.T][pr[1]] = true, true
		}
	}
	s.states, s.legs = []*window.State{st}, []leg{{site: topology.Base, st: st}}
	s.res.AtBasePairs = st.Pairs()
	s.routes = make([]route, 0, len(producers))
	for _, p := range producers {
		if participants && !in[p.role][p.id] {
			continue
		}
		both := bothRoles(cfg.Spec, p.id)
		if both {
			if k := len(s.routes); k > 0 && s.routes[k-1].id == p.id {
				continue
			}
			p.role = query.S
		}
		s.routes = append(s.routes, route{id: p.id, role: p.role, both: both, first: 0, end: 1})
	}
	return s.ready()
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
	// Initiation: every statically eligible producer ships its static
	// join attributes to the base, which answers with participate/skip.
	producers := eligibleProducers(cfg.Spec, cfg.Topo.N())
	for _, p := range producers {
		up := cfg.Sub.PathToBase(p.id)
		cfg.Net.Transfer(up, registrationBytes, sim.Control, sim.Flow{})
		cfg.Net.Transfer(up.Reverse(), ackBytes, sim.Control, sim.Flow{})
	}
	// Computation: only producers participating in at least one pair send.
	return startAtBase(cfg, "Base", a.Merge, producers, true)
}

// Yang07 is the through-the-base algorithm of [16]: source tuples flow to
// the base station, which relays them down to the matching target nodes;
// targets join locally and return results to the base. It trades base
// storage for extra downstream traffic.
type Yang07 struct{}

// Name implements Continuous.
func (Yang07) Name() string { return "Yang+07" }

// Start implements Continuous. Targets come first: a target's own reading
// joins locally for free (a one-node leg). Each source then relays up to
// the base and is delivered down to each of its targets, which ship their
// matches right after the delivery.
func (Yang07) Start(cfg *Config) Stepper {
	s := &siteStepper{stepperBase: newStepperBase(cfg, "Yang+07")}
	states := make([]*window.State, cfg.Topo.N())
	partners := make([][]topology.NodeID, cfg.Topo.N())
	for _, g := range cfg.Spec.Groups() {
		for _, pr := range g.Pairs {
			src, t := pr[0], pr[1]
			if states[t] == nil {
				states[t] = window.NewState(cfg.Spec.W, cfg.Spec.DynJoin)
				s.states = append(s.states, states[t])
			}
			states[t].AddPair(src, t)
			partners[src] = append(partners[src], t)
			s.res.InNetPairs++
		}
	}
	// Each pair's source adds at most a route and a relay leg.
	s.routes, s.legs = make([]route, 0, len(s.states)+s.res.InNetPairs), make([]leg, 0, len(s.states)+2*s.res.InNetPairs)
	for i, st := range states {
		if t := topology.NodeID(i); st != nil {
			s.add(t, query.T, leg{path: routing.Path{t}, site: t, st: st})
		}
	}
	var legs []leg
	for i, targets := range partners {
		if len(targets) == 0 {
			continue
		}
		legs = append(legs[:0], leg{site: topology.Base})
		for _, t := range targets {
			legs = append(legs, leg{site: t, st: states[t]})
		}
		s.add(topology.NodeID(i), query.S, legs...)
	}
	return s.ready() // no initiation beyond tree construction
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

// Start implements Continuous: each group's members get one stored leg to
// the group's home node, and the home node ships one result packet per
// cycle, after the group's last member.
func (h Hashed) Start(cfg *Config) Stepper {
	// A query admitted into a deployment that has already lost nodes must
	// not compute member routes through them: bind the router to the
	// network's liveness view up front (the failure hook rebinds on later
	// failures). A no-op on fresh deployments.
	if cfg.Net.Liveness().AnyDead() {
		h.Router.ObserveFailures(cfg.Net.Liveness())
	}
	s := &siteStepper{stepperBase: newStepperBase(cfg, h.Label), router: h.Router}
	for _, g := range cfg.Spec.Groups() {
		home := h.Router.HomeNode(int32(g.Key ^ (g.Key >> 31)))
		st := window.NewState(cfg.Spec.W, cfg.Spec.DynJoin)
		for _, pr := range g.Pairs {
			st.AddPair(pr[0], pr[1])
		}
		s.states = append(s.states, st)
		s.res.InNetPairs += len(g.Pairs)
		for role, ids := range [2][]topology.NodeID{g.S, g.T} {
			for _, id := range ids {
				// Initiation: one registration round trip per member along
				// the hash route (Table 3: initiation >= sigma_s*sum D_sj +
				// sigma_t*sum D_tj).
				path := h.Router.Route(id, home)
				cfg.Net.Transfer(path, registrationBytes, sim.Control, sim.Flow{})
				cfg.Net.Transfer(path.Reverse(), ackBytes, sim.Control, sim.Flow{})
				// A member the substrate could not route (cut off by
				// failures at admission) stays out of the table: a nil path
				// would read as a vacuous delivery.
				if path != nil {
					s.add(id, query.Rel(role), leg{path: path, site: home, st: st})
				}
			}
		}
	}
	return s.ready()
}
