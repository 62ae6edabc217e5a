package join

import (
	"slices"

	"repro/internal/query"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
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
// into the base's join site for every producer slot (only those in some
// pair when participants is set), in node order. A node filling both roles
// sends one reading for both, at its first admitted slot. With
// participants set, initiation comes first: every producer slot ships its
// static join attributes to the base, which answers with participate/skip.
func startAtBase(cfg *Config, algorithm string, merge bool, producers []producerKey, participants bool) Stepper {
	s := newSiteStepper(cfg, algorithm)
	s.merge = merge
	if participants {
		for _, p := range producers {
			s.overBase(p.id, topology.Base, registrationBytes, sim.Control)
			s.overBase(topology.Base, p.id, ackBytes, sim.Control)
		}
	}
	base := newSite(topology.Base, cfg)
	slot := slices.Repeat([]int32{-1}, cfg.Topo.N()) // each producer's handle at the base; -1: in no pair
	for _, g := range cfg.Spec.Groups() {
		for _, pr := range g.Pairs {
			slot[pr[0]], slot[pr[1]] = base.st.AddPair(pr[0], pr[1])
		}
	}
	s.sites = []*site{base}
	s.res.AtBasePairs = base.st.Pairs()
	s.routes, s.legs = make([]route, 0, len(producers)), make([]leg, 0, len(producers))
	for _, p := range producers {
		if participants && base.st.PairsFor(p.id, p.role) == 0 {
			continue
		}
		both := cfg.Spec.EligibleS(p.id) && cfg.Spec.EligibleT(p.id)
		if both {
			if k := len(s.routes); k > 0 && s.routes[k-1].id == p.id {
				continue
			}
			p.role = query.S
		}
		s.add(route{id: p.id, role: p.role, both: both}, leg{to: topology.Base, at: base, slot: slot[p.id], base: true})
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
	// Initiation registers every statically eligible producer; only those
	// participating in at least one pair then send.
	return startAtBase(cfg, "Base", a.Merge, eligibleProducers(cfg.Spec, cfg.Topo.N()), true)
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
	s := newSiteStepper(cfg, "Yang+07")
	at := make([]*site, cfg.Topo.N())  // each target's join site
	own := make([]int32, cfg.Topo.N()) // each target's handle there
	type target struct {
		t    topology.NodeID
		slot int32 // the source's handle at t's site
	}
	partners := make([][]target, cfg.Topo.N()) // each source's targets
	for _, g := range cfg.Spec.Groups() {
		for _, pr := range g.Pairs {
			src, t := pr[0], pr[1]
			if at[t] == nil {
				at[t] = newSite(t, cfg)
				s.sites = append(s.sites, at[t])
			}
			var sSlot int32
			sSlot, own[t] = at[t].st.AddPair(src, t)
			partners[src] = append(partners[src], target{t, sSlot})
			s.res.InNetPairs++
		}
	}
	// Each pair's source adds at most a route and a relay leg.
	s.routes, s.legs = make([]route, 0, len(s.sites)+s.res.InNetPairs), make([]leg, 0, len(s.sites)+2*s.res.InNetPairs)
	for i, st := range at {
		if t := topology.NodeID(i); st != nil {
			s.add(route{id: t, role: query.T}, leg{path: routing.Path{t}, to: t, at: st, slot: own[t]})
		}
	}
	var legs []leg
	for src, targets := range partners {
		if targets == nil {
			continue
		}
		legs = append(legs[:0], leg{to: topology.Base, base: true})
		for _, t := range targets {
			legs = append(legs, leg{to: t.t, at: at[t.t], slot: t.slot, base: true})
		}
		s.add(route{id: topology.NodeID(src), role: query.S}, legs...)
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
	s := newSiteStepper(cfg, h.Label)
	s.router = h.Router
	members := 0 // each adds at most a route and its leg
	for _, g := range cfg.Spec.Groups() {
		members += len(g.S) + len(g.T)
	}
	s.routes, s.legs = make([]route, 0, members), make([]leg, 0, members)
	for _, g := range cfg.Spec.Groups() {
		home := h.Router.HomeNode(int32(g.Key ^ (g.Key >> 31)))
		at := newSite(home, cfg)
		slot := map[topology.NodeID]int32{} // member handles at home
		for _, pr := range g.Pairs {
			slot[pr[0]], slot[pr[1]] = at.st.AddPair(pr[0], pr[1])
		}
		s.sites = append(s.sites, at)
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
					l := leg{path: path, ids: s.resolveLinks(path), to: home, at: at, slot: -1}
					if sl, ok := slot[id]; ok {
						l.slot = sl
					}
					s.add(route{id: id, role: query.Rel(role)}, l)
				}
			}
		}
	}
	return s.ready()
}
