package join

import (
	"slices"
	"unsafe"

	"repro/internal/mpo"
	"repro/internal/query"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/window"
)

// All seven algorithms are one dataflow with different choices of join
// site (section 2.2, section 3, Table 3): each producer's tuple travels a
// fixed sequence of legs to the sites that join it, and each site ships
// its matches to the base. siteStepper is that dataflow. A baseline's Start
// fills its route table once; In-Net rewrites its rows whenever its
// placement changes.

// route is one producer slot's row of the route table: the reading it
// samples and the legs legs[first:end] the tuple travels, in order.
type route struct {
	id   topology.NodeID
	role query.Rel
	// both marks a node filling both roles of a join at one site (Query 3's
	// symmetric join): one reading, sampled as S, serves both.
	both bool
	// recent, when set, retains the last w tuples sent (In-Net's failover
	// window reconstruction).
	recent     *window.Ring
	first, end int32
}

// site is one join state and the node hosting it, with the batch of
// matches it has computed and not yet shipped to the base up the base
// tree.
type site struct {
	node  topology.NodeID
	st    window.State
	batch tally
}

// newSite returns an empty join site at node, its state holding windows of
// cfg's w tuples joined by cfg's dynamic predicate.
func newSite(node topology.NodeID, cfg *Config) *site {
	at := &site{node: node}
	at.st.Init(cfg.Spec.W, cfg.Spec.DynJoin)
	return at
}

// leg is one transfer of a route. A stored path is fixed when the row is
// written; a one-node path is the local leg of a reading that is already at
// its site. A base leg keeps no path: it walks the base tree as it stands
// when it is sent (overBase), up from the producer when to is the base,
// down from the base to to otherwise. A route's first leg under merging is
// a base leg charged edge by edge.
type leg struct {
	path routing.Path
	to   topology.NodeID
	// slot is the producer's handle in the join state of site at; -1 when
	// the producer is in no pair there and its tuple joins nothing. A relay
	// leg (nil at) only forwards, so losing it loses every later leg of the
	// route, while a lost delivery leg loses only itself.
	slot int32
	// ids locates the radio link ids of path's hops, written with it, in
	// the legs slab (see linkSlabs).
	ids int32
	// num, on a leg after a tree leg, is to's number in that leg's tree
	// (mpo.MulticastTree.EdgeList), -1 when to is not on it: where the
	// walk marks whether it reached to.
	num int32
	at  *site
	// flush ships at's batch to the base once the table has passed this
	// leg, travelled or not; every other batch ships at the end of the
	// cycle, in the order the sites first computed a match.
	flush bool
	// base marks a base leg.
	base bool
	// tree, on a tree leg, is the multicast tree the tuple is disseminated
	// over, edge by edge. The route's later legs travel nothing: each
	// arrives if the walk reached its node.
	tree *mpo.MulticastTree
}

// siteStepper is the one continuous execution of every algorithm: the
// run's config, result and recorder, and the route table it steps.
type siteStepper struct {
	cfg *Config
	res *Result
	rec *recorder
	// memBytes is the size of the stepper's route table and the scratch
	// beside it, set by price whenever the table is written.
	memBytes int64

	routes []route
	legs   []leg
	sites  []*site // every join site, for JoinStateTuples
	// router, set for the hashed substrates, lets Recover reroute stored
	// legs around failed nodes.
	router HomeRouter
	// innet, set for In-Net, hears by row number what only it acts on:
	// every arrival (its learning estimators), and every failed leg with a
	// site or tree edge that failed at a dead child (its detection clocks).
	innet *engine

	// links holds the stored paths' link ids, made on first use on a
	// network with a fault injector and nil on any other.
	links *linkSlabs

	// Per-cycle scratch: each route's reading and send verdict, the Arrive
	// buffer, the merged edge's and the down leg's path and the down leg's
	// link ids, and the sites in the order their batches started (a shipped
	// batch starts again).
	// mark[k] == pass marks the node numbered k in the multicast tree being
	// walked (mpo.MulticastTree.EdgeList) as reached in the current walk,
	// so it is as long as the largest tree, not the deployment.
	vals     []int32
	sent     []bool
	matchBuf []window.Match
	pathBuf  routing.Path
	idBuf    []int32
	touched  []*site
	mark     []uint32
	pass     uint32

	// merge is Appendix E's packet merging (Naive.Merge, Base.Merge), with
	// its per-node columns: count[n] is the tuples n sends its parent this
	// cycle, lostAt[n] is cycle+1 when that packet was lost.
	merge         bool
	count, lostAt []int
}

// newSiteStepper returns an empty route table for cfg's run of algorithm.
func newSiteStepper(cfg *Config, algorithm string) *siteStepper {
	res := &Result{Algorithm: algorithm}
	return &siteStepper{cfg: cfg, res: res, rec: newRecorder(res)}
}

// add appends r's row, travelling legs in order.
func (s *siteStepper) add(r route, legs ...leg) {
	r.first = int32(len(s.legs))
	s.legs = append(s.legs, legs...)
	r.end = int32(len(s.legs))
	s.routes = append(s.routes, r)
}

// ready marks a baseline's legs to ship its batches whenever the table
// moves on to another join site, sizes the scratch, snapshots the
// initiation costs charged so far, and prices the table for MemBytes.
func (s *siteStepper) ready() *siteStepper {
	for j := range s.legs {
		l := &s.legs[j]
		l.flush = l.at != nil && (j+1 == len(s.legs) || s.legs[j+1].at != l.at)
	}
	s.vals, s.sent = make([]int32, len(s.routes)), make([]bool, len(s.routes))
	s.size()
	snapshotInit(s.cfg, s.res)
	if s.merge {
		s.count, s.lostAt = make([]int, s.cfg.Topo.N()), make([]int, s.cfg.Topo.N())
	}
	s.price()
	return s
}

// price sets memBytes from the table as it stands: each route with its
// vals and sent entries, each leg, each site and its pointer, the link
// ids, the walk's tree marks, and merging's two node columns.
func (s *siteStepper) price() {
	s.memBytes = int64(len(s.routes))*int64(unsafe.Sizeof(route{})+5) + int64(len(s.legs))*int64(unsafe.Sizeof(leg{})) +
		int64(len(s.sites))*(int64(unsafe.Sizeof(site{}))+wordBytes) + int64(len(s.mark))*int64(unsafe.Sizeof(s.pass))
	if s.links != nil {
		s.memBytes += int64(cap(s.links.legs)) * 4
	}
	s.memBytes += int64(len(s.count)+len(s.lostAt)) * wordBytes
}

// linkSlabs holds the radio link ids a stepper sends its stored paths over
// (sim.Network.TransferLinks), found when a path is written and copied
// when it is only moved. A stored leg's ids field locates its path's ids in
// legs: 1 + the offset of the path's first hop, 0 for none. Base legs and
// sites read theirs off the base tree (overBase).
type linkSlabs struct {
	// legs holds the hashed members' ids, written at Start and again after
	// each reroute, or In-Net's segment ids, rewritten with the rows. pairs
	// holds In-Net's pairs' path ids, by pair, when the rows send over
	// segments (no multicast).
	legs  []int32
	pairs [][]int32
}

// linkSlabs returns the stepper's link ids, made on first use on a network
// with a fault injector; nil on any other.
func (s *siteStepper) linkSlabs() *linkSlabs {
	if s.links == nil && s.cfg.Net.Faulted() {
		s.links = &linkSlabs{} //aspen:alloc once per stepper
	}
	return s.links
}

// idsFrom is the ids field of a path whose link ids run from from to to in
// their slab: from+1, or 0 when there are none.
func idsFrom(from, to int) int32 {
	if to == from {
		return 0
	}
	return int32(from) + 1
}

// linksOf returns the link ids of path that ids locates in the legs slab;
// nil when it has none.
//
//aspen:allocfree
func (s *siteStepper) linksOf(ids int32, path routing.Path) []int32 {
	if ids == 0 {
		return nil
	}
	return s.links.legs[ids-1 : int(ids)+len(path)-2]
}

// resolveLinks appends path's link ids to the legs slab and returns the ids
// field that locates them: 0 without a fault injector.
func (s *siteStepper) resolveLinks(path routing.Path) int32 {
	ls := s.linkSlabs()
	if ls == nil {
		return 0
	}
	from := len(ls.legs)
	ls.legs = s.cfg.Net.AppendLinks(ls.legs, path)
	return idsFrom(from, len(ls.legs))
}

// size gives Step's buffers their capacity for the current table, so no
// cycle grows them: one arrival matches at most the producer's partners at
// the site, w buffered tuples each, and a site's batch starts once per
// cycle plus once after each flush.
func (s *siteStepper) size() {
	most, starts := 0, len(s.sites)
	for _, l := range s.legs {
		if l.at != nil && l.slot >= 0 {
			most = max(most, l.at.st.Partners(l.slot))
		}
		if l.flush {
			starts++
		}
	}
	s.matchBuf = slices.Grow(s.matchBuf[:0], most*s.cfg.Spec.W)
	s.touched = slices.Grow(s.touched[:0], starts)
}

// growMarks makes mark at least n long: a new column, none marked. The
// rows that carry a tree grow it to the tree's node count when they are
// written, so no walk grows it.
func (s *siteStepper) growMarks(n int) {
	if n > len(s.mark) {
		s.mark, s.pass = make([]uint32, n), 0
	}
}

// Step implements Stepper: every route whose producer is alive samples
// its reading (a reading is a function of node, role and cycle, so
// sampling first changes none), then walks its legs in table order; a dead
// producer sends nothing, not even over a local leg. The sequence of
// transfers is behaviour (loss draws and relay-queue drops depend on it),
// so each algorithm's table order, and with it the points where a site
// ships its results, is its cycle order.
//
//aspen:allocfree
func (s *siteStepper) Step(cycle int) {
	s.cfg.Net.BeginCycle(cycle)
	for i := range s.routes {
		r := &s.routes[i]
		s.sent[i] = false
		if s.cfg.Net.Alive(r.id) {
			s.vals[i], s.sent[i] = s.cfg.Sampler.Sample(r.id, r.role, cycle)
			if s.sent[i] && r.recent != nil {
				r.recent.Push(window.Tuple{Producer: r.id, Value: s.vals[i], Cycle: cycle})
			}
		}
	}
	if s.merge {
		s.chargeMerged(cycle)
	}
	for i := range s.routes {
		r := &s.routes[i]
		alive, walked := s.sent[i], false
		for j := r.first; j < r.end; j++ {
			l := &s.legs[j]
			if alive {
				var ok bool
				switch {
				case walked:
					ok = l.num >= 0 && s.mark[l.num] == s.pass
				case l.tree != nil:
					s.walk(i, l, cycle)
					walked = true
				case s.merge && j == r.first:
					// Charged already, and sent now says whether the tuple
					// reached the base.
					ok = true
				case l.base:
					ok = s.overBase(r.id, l.to, sim.TupleBytes, sim.Data)
				default:
					if ok, _ = s.cfg.Net.TransferLinks(l.path, s.linksOf(l.ids, l.path), sim.TupleBytes, sim.Data); !ok && l.at != nil && s.innet != nil {
						s.innet.failed(i, l, cycle)
					}
				}
				if ok && l.at != nil && l.slot >= 0 {
					// Join by handle, and fold the matches into the batch.
					if r.both {
						s.matchBuf = l.at.st.ArriveBoth(s.matchBuf[:0], l.slot, s.vals[i], cycle)
					} else {
						s.matchBuf = l.at.st.ArriveSlot(s.matchBuf[:0], l.slot, r.role, s.vals[i], cycle)
					}
					if l.at.batch.n == 0 && len(s.matchBuf) > 0 {
						s.touched = append(s.touched, l.at)
					}
					l.at.batch.add(s.matchBuf)
					if s.innet != nil {
						s.innet.arrived(i, l, s.matchBuf)
					}
				}
				alive = ok || l.at != nil || walked
			}
			if l.flush {
				s.send(l.at, cycle)
			}
		}
	}
	for _, at := range s.touched {
		s.send(at, cycle)
	}
	s.touched = s.touched[:0]
}

// send forwards at's batch up the base tree to the base station,
// opportunistically merged into one physical packet (the Appendix E merging
// technique), and empties it. A batch computed at the base itself is
// recorded without traffic.
//
//aspen:allocfree
func (s *siteStepper) send(at *site, cycle int) {
	b := at.batch
	at.batch = tally{}
	ok := b.n == 0 || at.node == topology.Base
	if !ok {
		ok = s.overBase(at.node, topology.Base, b.n*sim.ResultBytes, sim.Result)
	}
	if ok {
		s.rec.record(b, cycle)
	} else {
		s.rec.drop(b)
	}
}

// overBase is every send over the base tree, tree 0, as it stands: up
// from's parent chain when to is the base, and down to's chain from the
// base otherwise, whatever from is. Up, the hop loop walks the chain
// (sim.Network.TransferUp); down, the chain is written into pathBuf, and
// its up-link ids into idBuf, and both are sent reversed. Under a fault
// injector each hop reads the tree's up-link id, or finds its link when
// the tree keeps none; without one no id is read.
//
//aspen:allocfree
func (s *siteStepper) overBase(from, to topology.NodeID, bytes int, kind sim.MsgKind) bool {
	tree, net := s.cfg.Sub.Trees[0], s.cfg.Net
	var up, ids []int32
	if net.Faulted() {
		up = tree.UpLink
	}
	if to == topology.Base {
		ok, _ := net.TransferUp(tree.Parent, up, from, bytes, kind)
		return ok
	}
	s.pathBuf = tree.AppendPathToRoot(s.pathBuf[:0], to) //aspen:alloc inlined growth, for the first chain this deep
	if up != nil {
		s.idBuf = s.idBuf[:0]
		for _, n := range s.pathBuf[:len(s.pathBuf)-1] {
			s.idBuf = append(s.idBuf, up[n]) //aspen:alloc the first chain this deep
		}
		ids = s.idBuf
		slices.Reverse(ids)
	}
	slices.Reverse(s.pathBuf)
	ok, _ := net.TransferLinks(s.pathBuf, ids, bytes, kind)
	return ok
}

// walk disseminates row i's tuple over tree leg l's multicast tree in
// the tree's edge order: an edge whose parent the walk did not reach is
// skipped, so a failed edge prunes its subtree. Interior nodes cache the
// subtree state, so the payload is just the tuple. An edge that failed at
// a dead child is reported. The reached nodes are marked by their numbers
// in the tree: the root is 0 and edge k delivers to k+1, and h, the number
// of the current edge's parent, only moves forward (see
// mpo.MulticastTree.EdgeList). The rows made mark as long as the largest
// tree they carry, and a tree is only rebuilt between cycles, with the rows
// marked stale. With a fault injector each edge is sent over its link id,
// which the tree keeps until its next rebuild. Without one the walk is the
// plain loop: a nil id carried through it costs a fault-free run
// measurably.
//
//aspen:allocfree
func (s *siteStepper) walk(i int, l *leg, cycle int) {
	edges := l.tree.EdgeList()
	s.newPass()
	mark, pass := s.mark, s.pass
	mark[0] = pass
	h, parent := 0, l.tree.Root
	if s.cfg.Net.Faulted() {
		links := l.tree.EdgeLinks(s.cfg.Net)
		for k, e := range edges {
			for e[0] != parent {
				h++
				parent = edges[h-1][1]
			}
			if mark[h] != pass {
				continue
			}
			if ok, _ := s.cfg.Net.TransferLinks(e[:], links[k:k+1], sim.TupleBytes, sim.Data); ok {
				mark[k+1] = pass
			} else if !s.cfg.Net.Alive(e[1]) {
				s.innet.failed(i, l, cycle)
			}
		}
		return
	}
	for k, e := range edges {
		for e[0] != parent {
			h++
			parent = edges[h-1][1]
		}
		if mark[h] != pass {
			continue
		}
		if ok, _ := s.cfg.Net.Transfer(e[:], sim.TupleBytes, sim.Data, sim.Flow{}); ok {
			mark[k+1] = pass
		} else if !s.cfg.Net.Alive(e[1]) {
			s.innet.failed(i, l, cycle)
		}
	}
}

// newPass starts a pass in which no node is marked.
//
//aspen:allocfree
func (s *siteStepper) newPass() {
	if s.pass++; s.pass == 0 {
		clear(s.mark)
		s.pass = 1
	}
}

// chargeMerged is Appendix E's opportunistic merging of the cycle's first
// legs, all of which run up the base tree: tuples sharing a tree edge ride
// one packet. Deepest node first (so a parent sends after its children),
// each node sends its parent one packet with its own tuple and every tuple
// its children delivered to it, and nothing when that count is 0. A lost
// packet loses the tuple of every sender below it: their sent verdicts
// are cleared. A packet goes over its sender's up-link id when the tree
// keeps them.
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
			var id []int32
			if tree.UpLink != nil {
				id = tree.UpLink[n : n+1]
			}
			if ok, _ := s.cfg.Net.TransferLinks(s.pathBuf, id, c*sim.TupleBytes, sim.Data); ok {
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
// of why the paper finds them fragile. After a reroute every stored leg's
// link ids are written afresh, so the slab holds no stale ones. Tree-routed
// baselines repair nothing: the engine repairs the base tree, and their
// base legs walk it as it stands when they are sent.
func (s *siteStepper) Recover(failed []topology.NodeID, _ *routing.Repairer) (repaired, fallbacks int) {
	if s.router == nil || failed == nil {
		return 0, 0
	}
	s.router.ObserveFailures(s.cfg.Net.Liveness())
	for _, r := range s.routes {
		l := &s.legs[r.first]
		if !s.cfg.Net.Alive(l.to) || !s.cfg.Net.Alive(r.id) || !l.path.ContainsAny(failed) {
			continue
		}
		if np := s.router.Route(r.id, l.to); np != nil && !np.ContainsAny(failed) {
			l.path = np
			repaired++
		}
	}
	if repaired > 0 && s.links != nil {
		s.links.legs = s.links.legs[:0]
		for _, r := range s.routes {
			l := &s.legs[r.first]
			l.ids = s.resolveLinks(l.path)
		}
	}
	return repaired, 0
}

// JoinStateTuples implements Stepper: tuples buffered across the join
// sites.
func (s *siteStepper) JoinStateTuples() int {
	n := 0
	for _, at := range s.sites {
		n += at.st.Tuples()
	}
	return n
}

// Adapt implements Stepper: a baseline never re-places.
func (s *siteStepper) Adapt(int) (migrated, aborted int) { return 0, 0 }

// Result implements Stepper.
func (s *siteStepper) Result() *Result { return s.res }

// MemBytes implements Stepper: the route table as price last set it, and
// the join state of every site as it stands.
func (s *siteStepper) MemBytes() int64 {
	b := s.memBytes
	for _, at := range s.sites {
		b += at.st.MemBytes()
	}
	return b
}

// Finish implements Stepper.
func (s *siteStepper) Finish() *Result { return finish(s.cfg, s.res) }
