package join

import (
	"unsafe"

	"repro/internal/query"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/window"
)

// The four grouped baselines (Naive, Base, Yang+07, GHT/DHT) are one
// algorithm with four choices of join site (section 2.2, Table 3): each
// producer's tuple travels a fixed sequence of legs to the site that joins
// it, and the site ships its matches to the base. siteStepper is that
// algorithm; each baseline's Start only fills its route table.

// route is one producer slot's row of the route table: the reading it
// samples and the legs legs[first:end] the tuple travels, in order. The
// join-at-base routes all share one leg.
type route struct {
	id   topology.NodeID
	role query.Rel
	// both marks a node filling both roles of a join at the base (Query
	// 3's symmetric join): one reading, sampled as S, serves both.
	both       bool
	first, end int32
}

// leg is one transfer of a route. A nil path is resolved on the base tree
// every cycle (the engine repairs trees under churn): up from the producer
// when site is the base, down from the base to site otherwise. A stored
// path is fixed at Start (the hashed substrates' routes to a home node);
// a one-node path is the local leg of a reading that is already at its
// site.
type leg struct {
	path routing.Path
	site topology.NodeID
	// st is the join state at site; a relay leg (nil st) only forwards, so
	// losing it loses every later leg of the route, while a lost delivery
	// leg loses only itself. When the table moves on from st to another
	// state, travelled or not, site ships the matches st accumulated to the
	// base in one packet: after each Yang+07 delivery, after a hashed
	// group's last member, once per cycle at the base.
	st *window.State
}

// siteStepper is the one continuous execution of the grouped baselines.
type siteStepper struct {
	stepperBase
	routes []route
	legs   []leg
	states []*window.State // every join state, for JoinStateTuples
	// router, set for the hashed substrates, lets Recover reroute stored
	// legs around failed nodes.
	router HomeRouter

	// Per-cycle scratch, sized at Start: each route's reading and send
	// verdict, the Arrive buffer, the reversed down-leg and merged-edge
	// path, and the matches accumulated at the current join state.
	vals     []int32
	sent     []bool
	matchBuf []window.Match
	pathBuf  routing.Path
	matches  int

	// merge is Appendix E's packet merging (Naive.Merge, Base.Merge), with
	// its per-node columns: count[n] is the tuples n sends its parent this
	// cycle, lostAt[n] is cycle+1 when that packet was lost.
	merge  bool
	count  []int
	lostAt []int
}

// add appends producer slot (id, role)'s route, travelling legs in order.
func (s *siteStepper) add(id topology.NodeID, role query.Rel, legs ...leg) {
	first := int32(len(s.legs))
	s.legs = append(s.legs, legs...)
	s.routes = append(s.routes, route{id: id, role: role, first: first, end: int32(len(s.legs))})
}

// ready snapshots the initiation costs charged so far, sizes the scratch,
// and prices the table's dense slices for MemBytes.
func (s *siteStepper) ready() *siteStepper {
	snapshotInit(s.cfg, s.res)
	s.vals, s.sent = make([]int32, len(s.routes)), make([]bool, len(s.routes))
	perRoute := unsafe.Sizeof(route{}) + unsafe.Sizeof(int32(0)) + 1 // the route, its vals and sent entries
	s.memBytes = int64(len(s.routes))*int64(perRoute) +
		int64(len(s.legs))*int64(unsafe.Sizeof(leg{})) + int64(len(s.states))*wordBytes
	if s.merge {
		s.count, s.lostAt = make([]int, s.cfg.Topo.N()), make([]int, s.cfg.Topo.N())
		s.memBytes += int64(len(s.count)) * 2 * wordBytes
	}
	return s
}

// Step implements Stepper: every route samples its reading (a reading is
// a function of node, role and cycle, so sampling first changes none),
// then walks its legs in table order. The sequence of transfers is
// behaviour (loss draws and relay-queue drops depend on it), so each
// baseline's table order, and with it the points where a site ships its
// results, is its cycle order.
//
//aspen:allocfree
func (s *siteStepper) Step(cycle int) {
	s.cfg.Net.BeginCycle(cycle)
	for i, r := range s.routes {
		s.vals[i], s.sent[i] = s.cfg.Sampler.Sample(r.id, r.role, cycle)
	}
	if s.merge {
		s.chargeMerged(cycle)
	}
	for i := range s.routes {
		r := &s.routes[i]
		alive := s.sent[i]
		for j := r.first; j < r.end; j++ {
			l := &s.legs[j]
			if alive {
				// A merged first leg has already been charged, and sent
				// now says whether the tuple reached the base.
				ok := (s.merge && j == r.first) || s.ship(r.id, l)
				if ok && l.st != nil {
					if r.both {
						s.matchBuf = l.st.ArriveBothAppend(s.matchBuf[:0], r.id, s.vals[i], cycle)
					} else {
						s.matchBuf = l.st.ArriveAppend(s.matchBuf[:0], r.id, r.role, s.vals[i], cycle)
					}
					s.matches += len(s.matchBuf)
				}
				alive = ok || l.st != nil
			}
			// The table moves on to another join state: ship this one's
			// matches.
			if l.st != nil && (int(j)+1 == len(s.legs) || s.legs[j+1].st != l.st) {
				sendResults(s.cfg, s.rec, l.site, s.matches, cycle)
				s.matches = 0
			}
		}
	}
}

// ship charges one tuple's transfer along leg l of producer from's route.
//
//aspen:allocfree
func (s *siteStepper) ship(from topology.NodeID, l *leg) bool {
	path := l.path
	if path == nil && l.site == topology.Base {
		path = s.cfg.Sub.PathToBase(from)
	} else if path == nil {
		s.pathBuf = s.pathBuf.ReverseOf(s.cfg.Sub.PathToBase(l.site))
		path = s.pathBuf
	}
	ok, _ := s.cfg.Net.Transfer(path, sim.TupleBytes, sim.Data, sim.Flow{})
	return ok
}

// chargeMerged is Appendix E's opportunistic merging of the cycle's first
// legs, all of which run up the base tree: tuples sharing a tree edge ride
// one packet. Deepest node first (so a parent sends after its children),
// each node sends its parent one packet with its own tuple and every tuple
// its children delivered to it, and nothing when that count is 0. A lost
// packet loses the tuple of every sender below it: their sent verdicts
// are cleared.
//
//aspen:allocfree
func (s *siteStepper) chargeMerged(cycle int) {
	tree := s.cfg.Sub.Trees[0]
	for i, r := range s.routes {
		if s.sent[i] {
			s.count[r.id]++
		}
	}
	for _, n := range tree.DeepFirst() {
		if c := s.count[n]; c > 0 && n != tree.Root {
			s.pathBuf = append(s.pathBuf[:0], n, tree.Parent[n])
			if ok, _ := s.cfg.Net.Transfer(s.pathBuf, c*sim.TupleBytes, sim.Data, sim.Flow{}); ok {
				s.count[tree.Parent[n]] += c
			} else {
				s.lostAt[n] = cycle + 1
			}
		}
		s.count[n] = 0
	}
	for i, r := range s.routes {
		for at := r.id; s.sent[i] && at != tree.Root; at = tree.Parent[at] {
			s.sent[i] = s.lostAt[at] != cycle+1
		}
	}
}

// Recover implements Stepper for the hash-addressed substrates, for node
// failures only (link faults surface as observable drops): the router's
// memoized routing state (dht.Ring's parent vectors) is invalidated
// against the deployment liveness, then every stored leg crossing a
// failed node is recomputed. A reroute that now avoids the failure counts
// as a repair; legs the substrate can no longer route (home node dead, or
// the member cut off) keep their stale path, whose transmissions are
// charged and dropped at the dead hop — hash substrates have no
// base-station fallback (the home node IS the rendezvous), which is part
// of why the paper finds them fragile. Tree-routed baselines repair
// nothing: the engine rebuilds the trees they resolve each cycle.
func (s *siteStepper) Recover(failed []topology.NodeID, _ *routing.Repairer) (repaired, fallbacks int) {
	if s.router == nil || failed == nil {
		return 0, 0
	}
	s.router.ObserveFailures(s.cfg.Net.Liveness())
	for _, r := range s.routes {
		l := &s.legs[r.first]
		if !s.cfg.Net.Alive(l.site) || !s.cfg.Net.Alive(r.id) || !l.path.ContainsAny(failed) {
			continue
		}
		if np := s.router.Route(r.id, l.site); np != nil && !np.ContainsAny(failed) {
			l.path = np
			repaired++
		}
	}
	return repaired, 0
}

// JoinStateTuples implements Stepper: tuples buffered across the join
// states.
func (s *siteStepper) JoinStateTuples() int {
	n := 0
	for _, st := range s.states {
		n += st.Tuples()
	}
	return n
}

// Finish implements Stepper.
func (s *siteStepper) Finish() *Result { return finish(s.cfg, s.res) }
