package join

import (
	"cmp"
	"maps"
	"slices"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/mpo"
	"repro/internal/query"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/window"
)

// nominationBytes is the (sourceID, targetID, sequence) triple of the
// section 3.2 nomination protocol.
const nominationBytes = 3 * sim.ValueBytes

// InnetOptions selects the In-Net variant. The paper's names compose as
// Innet-c m p g: cached multicast trees (cm), path collapsing (p), group
// optimization (g). Learning (section 6) is not a variant: Config.Adapt
// switches it on for the run.
type InnetOptions struct {
	// Multicast enables producer-rooted multicast trees with cached
	// interior state (section 5.1).
	Multicast bool
	// PathCollapse enables the snooping path-collapse optimization
	// (Algorithms 2-3); requires Multicast.
	PathCollapse bool
	// GroupOpt enables GROUPOPT (Algorithm 1) group-level decisions.
	GroupOpt bool
	// Trigger overrides the 33% divergence trigger when positive.
	Trigger float64
	// EstimateInterval overrides the adaptivity estimation period when
	// positive.
	EstimateInterval int
	// PlacementOverride, when non-nil, replaces the cost-model placement
	// (used by the ablation benches: midpoint, endpoint, ...).
	PlacementOverride func(p costmodel.Params, depths []int) costmodel.Placement
}

// Innet is the pairwise in-network join with cost-based join-node
// placement (section 3) and the section 5/6 extensions.
type Innet struct {
	Opts InnetOptions
}

// innetNames are the paper's variant names, indexed by the Multicast (1),
// PathCollapse (2) and GroupOpt (4) bits, so that naming a variant
// allocates nothing.
var innetNames = [8]string{"Innet", "Innet-cm", "Innet-p", "Innet-cmp", "Innet-g", "Innet-cmg", "Innet-pg", "Innet-cmpg"}

// Name implements Continuous, matching the paper's variant naming.
func (in Innet) Name() string {
	i := 0
	if in.Opts.Multicast {
		i |= 1
	}
	if in.Opts.PathCollapse {
		i |= 2
	}
	if in.Opts.GroupOpt {
		i |= 4
	}
	return innetNames[i]
}

// pairState tracks one (s,t) pair's placement and learning state.
type pairState struct {
	s, t topology.NodeID
	// path runs s..t; jIdx indexes the join node on it, or -1 when the
	// pair joins at the base station.
	path routing.Path
	jIdx int
	est  *adapt.Estimator
	// group indexes the engine's group table (-1 when ungrouped).
	group int
	dead  bool // endpoint failed; pair abandoned
	// sSlot and tSlot are s's and t's slots in the join state at the join
	// node: window.State handles, refreshed whenever the pair registers.
	sSlot, tSlot int32
	// i is the pair's index in the engine's pairs, and in its pair link
	// ids (linkSlabs.pairs).
	i int32
	// prodS and prodT are the producer slots of s and t; site is the join
	// site the pair is registered at, its join node's.
	prodS, prodT *producerState
	site         *site
	// recoverAt is the cycle at which the pair's detection clock is due:
	// a delivery toward its join node failed at a dead node, and the
	// producers spend failureRecoveryCycles noticing before recovery runs.
	// 0 = no clock running.
	recoverAt int
}

func (p *pairState) joinNode() topology.NodeID {
	if p.jIdx < 0 {
		return topology.Base
	}
	return p.path[p.jIdx]
}

// segment returns the path from p's producer in role to its in-network
// join node: s's is a subslice of p.path, t's is written reversed at the
// end of *hops, where growing hops leaves earlier segments intact.
func (p *pairState) segment(role query.Rel, hops *routing.Path) routing.Path {
	if role == query.S {
		return p.path[:p.jIdx+1]
	}
	from := len(*hops)
	*hops = append(*hops, p.path[p.jIdx:]...)
	slices.Reverse((*hops)[from:])
	return (*hops)[from:len(*hops):len(*hops)]
}

// appendSegment appends the link ids of p's segment(role) to ids, from
// pathIDs, the ids of p's path: s's are a prefix, and t's, its hops walked
// backwards over the same links, are the rest reversed.
func (p *pairState) appendSegment(ids, pathIDs []int32, role query.Rel) []int32 {
	if role == query.S {
		return append(ids, pathIDs[:p.jIdx]...)
	}
	from := len(ids)
	ids = append(ids, pathIDs[p.jIdx:]...)
	slices.Reverse(ids[from:])
	return ids
}

// slot is p's handle for its producer in role at p's join node.
func (p *pairState) slot(role query.Rel) int32 {
	if role == query.S {
		return p.sSlot
	}
	return p.tSlot
}

// placement is a pair's join-node index and node, saved before a move.
type placement struct {
	idx  int
	node topology.NodeID
}

// producerState tracks one producer slot's pairs, multicast tree and
// retained recent tuples: a ring of the last w sent, for failover window
// reconstruction. rebuild and replay mark it for settle's tree rebuild and
// window replay.
type producerState struct {
	key   producerKey
	pairs []*pairState
	tree  *mpo.MulticastTree
	// nums[i] is pairs[i]'s join node's number in tree (mpo.Builder.Ends),
	// -1 for a pair the tree was not built for. Every move is settled
	// before compile reads it, so it is exact for every live in-network
	// pair.
	nums            []int32
	recent          window.Ring
	rebuild, replay bool
}

// engine is the mutable run state of one In-Net execution: the pairs, their
// placement and their producers, compiled into the route table of the
// siteStepper it runs on. A pair holds its producers and its join site, and
// the kernel marks tree nodes by their numbers in the tree, so the engine
// keeps no table the length of the deployment: its state is sized by the
// query. The deployment-sized scratch its set-up, recovery and Adapt need
// is the substrate's, borrowed for each of those phases (lendIndex).
type engine struct {
	siteStepper
	opts InnetOptions
	// learn is cfg.Adapt, fixed at Start: pairs carry estimators and Adapt
	// re-places them.
	learn bool
	pairs []*pairState
	// producers lists every producer slot by (ID, role): the iteration
	// order, and the order of the rows.
	producers []*producerState
	// siteAt[j] is the join site hosted at node j, made on demand: one
	// entry per join node, looked up when a pair registers.
	siteAt map[topology.NodeID]*site
	groups [][]*pairState
	// nextRecover is the earliest running detection clock (0 = none), so
	// Step looks at pairs only on the cycle a clock is due.
	nextRecover int
	// dirty marks the rows stale: a pair was registered or moved, or its
	// path changed. Step rewrites them before the cycle.
	dirty bool
	// hops backs the rows' reversed t -> join node segments; tupleBuf is
	// window transfers' and replays' scratch.
	hops     routing.Path
	tupleBuf []window.Tuple

	// Tree-rebuild scratch, so rebuildTree allocates nothing once it and
	// the producers' trees have grown. All three stay empty until a
	// multicast query builds a tree.
	treeBuilder mpo.Builder
	treePaths   []routing.Path // the producer's in-network segments
	treeHops    routing.Path   // backs the reversed t -> join node segments
	// index is the substrate's scratch column while a phase that builds
	// trees runs (see lendIndex), nil otherwise: Shortcut's scratch and
	// the tree builder's node index.
	index []int32
	// route is the scratch every route charged once and then dropped is
	// written into: nominations, collapse notices, window transfers and the
	// link-fault sweep's base paths; routeLinks holds the link ids it is
	// sent over. Both are valid until the next of those.
	// groupRoutes is GROUPOPT's, made by the first group decision.
	route       routing.Path
	routeLinks  []int32
	groupRoutes *mpo.Routes
	// groupOld saves adaptGroup's pre-move placements, one per group pair.
	groupOld []placement
	// repairer is the detection-clock sweep's path repair on the query's
	// own network, made on the first silent failure.
	repairer *routing.Repairer

	// Group-decision scratch, reused across producerCosts calls (one per
	// group per estimate boundary under learning). Empty without GroupOpt.
	groupFacts  []groupFact
	groupCosts  []mpo.ProducerCost
	groupNodes  []costmodel.GroupJoinNode // backs every groupCosts[i].JoinNodes
	groupDepths []int
	// adaptedAt[g] is the last cycle Adapt re-decided group g, plus one
	// (zero = never); sized with groups.
	adaptedAt []int
}

// Start implements Continuous: it runs initiation (exploration, placement,
// group optimization, multicast trees, path collapsing) and returns the
// cycle-steppable execution. The state it keeps is sized by the query: its
// pairs, producer slots, join sites and multicast trees, and the route
// table MemBytes prices.
func (in Innet) Start(cfg *Config) Stepper {
	e := &engine{
		siteStepper: *newSiteStepper(cfg, in.Name()),
		opts:        in.Opts,
		learn:       cfg.Adapt,
		siteAt:      map[topology.NodeID]*site{},
	}
	e.innet = e
	e.initiate()
	// A row has a tree or base leg, then about a leg per pair.
	e.routes, e.legs = make([]route, 0, len(e.producers)), make([]leg, 0, len(e.producers)+len(e.pairs))
	e.vals, e.sent = make([]int32, len(e.producers)), make([]bool, len(e.producers))
	e.compile()
	snapshotInit(cfg, e.res)
	return e
}

// Step implements Stepper: the recovery sweep of any detection clock due
// by now, then one cycle of the kernel, over rows rewritten first if a
// pair changed. The kernel's arrivals feed the estimators; closing the
// cycle on them and migrating is Adapt's job.
//
//aspen:allocfree
func (e *engine) Step(cycle int) {
	if e.nextRecover != 0 && cycle >= e.nextRecover {
		e.cfg.Net.BeginCycle(cycle)
		e.recoverDue(cycle)
	}
	if e.dirty {
		e.compile()
	}
	e.siteStepper.Step(cycle)
}

// Finish implements Stepper.
func (e *engine) Finish() *Result {
	for _, p := range e.pairs {
		switch {
		case p.dead:
		case p.jIdx < 0:
			e.res.AtBasePairs++
		default:
			e.res.InNetPairs++
			e.res.PairJoinNodes = append(e.res.PairJoinNodes, p.joinNode())
			e.res.PairPaths = append(e.res.PairPaths, p.path.Clone())
		}
	}
	return finish(e.cfg, e.res)
}

// --- Initiation (section 3) -------------------------------------------------

func (e *engine) initiate() {
	cfg := e.cfg
	e.lendIndex()
	defer e.endIndex()
	// Exploration: every eligible s searches the substrate for matching
	// targets; traffic charged inside FindTargets.
	for i := 0; i < cfg.Topo.N(); i++ {
		s := topology.NodeID(i)
		if !cfg.Spec.EligibleS(s) {
			continue
		}
		found := cfg.Sub.FindTargets(s, cfg.Spec.SearchMatcher(s, cfg.Sub), cfg.Net)
		for _, t := range slices.Sorted(maps.Keys(found)) {
			// Compress the discovered path: the response path vector is
			// shortcut through known one-hop neighbourhoods ([11]).
			path := routing.Shortcut(cfg.Topo, found[t], e.index)
			p := &pairState{s: s, t: t, group: -1, i: int32(len(e.pairs))}
			e.setPath(p, path)
			e.placePair(p, cfg.Opt, true)
			e.pairs = append(e.pairs, p)
			if e.learn {
				p.est = adapt.New(e.placementParams(cfg.Opt))
				if e.opts.Trigger > 0 {
					p.est.Trigger = e.opts.Trigger
				}
				if e.opts.EstimateInterval > 0 {
					p.est.Interval = e.opts.EstimateInterval
				}
			}
		}
	}
	// Producer bookkeeping: slots is the set-up's lookup by (ID, role);
	// after it, each pair holds its own.
	slots := map[producerKey]*producerState{}
	for _, p := range e.pairs {
		p.prodS = e.addProducerPair(slots, producerKey{p.s, query.S}, p)
		p.prodT = e.addProducerPair(slots, producerKey{p.t, query.T}, p)
	}
	slices.SortFunc(e.producers, func(a, b *producerState) int {
		return cmp.Or(cmp.Compare(a.key.id, b.key.id), cmp.Compare(a.key.role, b.key.role))
	})
	if e.opts.GroupOpt {
		// GROUPOPT moves whole groups to the base when the summed deltas
		// favour it.
		e.buildGroups()
		for _, group := range e.groups {
			e.groupDecision(group, e.cfg.Opt, true)
		}
	}
	for _, p := range e.pairs {
		e.registerPair(p)
	}
	if e.opts.Multicast {
		for _, ps := range e.producers {
			e.rebuildTree(ps)
		}
	}
	if e.opts.PathCollapse {
		e.collapsePaths()
	}
}

// setPath writes p's path and, when the rows will send over its segments
// on a network with a fault injector, the link ids of its hops: they are
// found here, once per path, and compile only copies them.
func (e *engine) setPath(p *pairState, path routing.Path) {
	p.path = path
	if e.opts.Multicast {
		return
	}
	if ls := e.linkSlabs(); ls != nil {
		if int(p.i) == len(ls.pairs) {
			ls.pairs = append(ls.pairs, nil)
		}
		ls.pairs[p.i] = e.cfg.Net.AppendLinks(ls.pairs[p.i][:0], path)
	}
}

// placementParams returns the per-pair parameter view of opt.
func (e *engine) placementParams(opt costmodel.Params) costmodel.Params {
	opt.W = e.cfg.Spec.W
	return opt
}

// placePair runs the section 3.1 cost minimization for p (via the core
// decision procedure), charging the nomination protocol when charge is
// set (sim.Control). Migrations place uncharged and pay their nomination
// as sim.Migration at the commit point (commit).
func (e *engine) placePair(p *pairState, opt costmodel.Params, charge bool) {
	pl := core.PlacePair(e.placementParams(opt), p.path, e.cfg.Sub.DepthToBase, core.PlacePolicy(e.opts.PlacementOverride))
	if pl.AtBase {
		p.jIdx = -1
	} else {
		p.jIdx = pl.PathIndex
	}
	if charge && e.cfg.Net != nil && p.jIdx >= 0 {
		e.nominate(p, sim.Control)
	}
}

// nominate charges the section 3.2 nomination exchange toward p's
// in-network join node: t nominates j; j notifies s. The messages go over
// the pair's path ids when it keeps them (see setPath).
func (e *engine) nominate(p *pairState, kind sim.MsgKind) {
	var pathIDs, ids []int32
	if e.links != nil && !e.opts.Multicast {
		pathIDs = e.links.pairs[p.i]
	}
	e.route = e.route[:0]
	if pathIDs != nil {
		e.routeLinks = p.appendSegment(e.routeLinks[:0], pathIDs, query.T)
		ids = e.routeLinks
	}
	e.cfg.Net.TransferLinks(p.segment(query.T, &e.route), ids, nominationBytes, kind)
	e.route = e.route.ReverseOf(p.segment(query.S, nil))
	if pathIDs != nil {
		e.routeLinks = p.appendSegment(e.routeLinks[:0], pathIDs, query.S)
		slices.Reverse(e.routeLinks)
		ids = e.routeLinks
	}
	e.cfg.Net.TransferLinks(e.route, ids, nominationBytes, kind)
}

// addProducerPair adds p to the pairs of producer slot key, found in
// slots, creating the slot on first sight, and returns the slot.
func (e *engine) addProducerPair(slots map[producerKey]*producerState, key producerKey, p *pairState) *producerState {
	ps := slots[key]
	if ps == nil {
		ps = &producerState{key: key, recent: window.NewRing(e.cfg.Spec.W)}
		slots[key] = ps
		e.producers = append(e.producers, ps)
	}
	ps.pairs = append(ps.pairs, p)
	return ps
}

// siteOf returns the join site at node j, creating it on demand.
func (e *engine) siteOf(j topology.NodeID) *site {
	at := e.siteAt[j]
	if at == nil {
		at = newSite(j, e.cfg)
		e.siteAt[j] = at
		e.sites = append(e.sites, at)
	}
	return at
}

// registerPair registers p at its join node's site and takes its handles.
func (e *engine) registerPair(p *pairState) {
	p.site = e.siteOf(p.joinNode())
	p.sSlot, p.tSlot = p.site.st.AddPair(p.s, p.t)
	e.dirty = true
}

// unregisterPair drops p from the site it is registered at.
func (e *engine) unregisterPair(p *pairState) {
	e.dirty = true
	st := &p.site.st
	st.RemovePair(p.s, p.t)
	for _, id := range [2]topology.NodeID{p.s, p.t} {
		if st.PairsFor(id, query.S) == 0 && st.PairsFor(id, query.T) == 0 {
			st.DropProducer(id)
		}
	}
}

// --- Group optimization (section 5.2) ----------------------------------------

func (e *engine) buildGroups() {
	byKey := map[int64][]*pairState{}
	var keys []int64
	for _, p := range e.pairs {
		key, ok := e.cfg.Spec.GroupKeyS(p.s)
		if !ok {
			// Non-transitive predicate: each pair is its own group.
			key = int64(p.s)<<20 | int64(p.t)
		}
		if _, seen := byKey[key]; !seen {
			keys = append(keys, key)
		}
		byKey[key] = append(byKey[key], p)
	}
	slices.Sort(keys)
	for gi, key := range keys {
		group := byKey[key]
		for _, p := range group {
			p.group = gi
		}
		e.groups = append(e.groups, group)
	}
	e.adaptedAt = make([]int, len(e.groups))
}

func (e *engine) groupDecision(group []*pairState, opt costmodel.Params, charge bool) {
	var net *sim.Network
	if charge {
		net = e.cfg.Net
	}
	if e.groupRoutes == nil {
		e.groupRoutes = new(mpo.Routes)
	}
	decision := mpo.GroupOpt(e.cfg.Sub, net, e.groupRoutes, e.producerCosts(group, opt), opt.SigmaST, e.cfg.Spec.W)
	for _, p := range group {
		if p.dead {
			continue
		}
		if decision == mpo.DecideBase {
			p.jIdx = -1
		} else if p.jIdx < 0 {
			e.placePair(p, opt, charge)
		}
	}
}

// groupFact is one assignment fact producerCosts notes: producer key sends
// to join node j over dPJ hops.
type groupFact struct {
	key producerKey
	j   topology.NodeID
	dPJ int
}

// producerCosts assembles GROUPOPT's inputs for one group: one
// ProducerCost per producer slot, ordered by (node ID, role), each listing
// its join nodes in ascending ID order. The result lives in engine scratch
// and is valid until the next call.
func (e *engine) producerCosts(group []*pairState, opt costmodel.Params) []mpo.ProducerCost {
	// Collect per-producer join-node facts over the group's in-network
	// assignments: two per live pair, in pair order.
	facts := e.groupFacts[:0]
	for _, p := range group {
		if p.dead {
			continue
		}
		jIdx := p.jIdx
		if jIdx < 0 {
			// Evaluate the in-network alternative: pretend the pair sits
			// at its cost-model placement for delta purposes.
			depths := e.groupDepths[:0]
			for _, n := range p.path {
				depths = append(depths, e.cfg.Sub.DepthToBase(n))
			}
			e.groupDepths = depths
			pl := costmodel.BestPlacement(e.placementParams(opt), depths)
			if pl.AtBase {
				// In-network is never chosen for this pair; treat its
				// hypothetical join node as the path midpoint.
				jIdx = len(p.path) / 2
			} else {
				jIdx = pl.Index
			}
		}
		j := p.path[jIdx]
		facts = append(facts,
			groupFact{producerKey{p.s, query.S}, j, jIdx},
			groupFact{producerKey{p.t, query.T}, j, len(p.path) - 1 - jIdx})
	}
	e.groupFacts = facts
	// Stable, so among a producer's facts for one join node the first one
	// noted stays first: its dPJ is the one the fold keeps.
	slices.SortStableFunc(facts, func(a, b groupFact) int {
		if c := cmp.Compare(a.key.id, b.key.id); c != 0 {
			return c
		}
		if c := cmp.Compare(a.key.role, b.key.role); c != 0 {
			return c
		}
		return cmp.Compare(a.j, b.j)
	})
	// Run-length fold: one ProducerCost per (id, role) run, one
	// GroupJoinNode per join node within it. Both scratch slices are sized
	// up front, so every JoinNodes sub-slice stays on one backing array.
	costs := slices.Grow(e.groupCosts[:0], len(facts))
	nodes := slices.Grow(e.groupNodes[:0], len(facts))
	first := 0 // the current producer's first entry in nodes
	for i, f := range facts {
		newProducer := i == 0 || f.key != facts[i-1].key
		if newProducer {
			sigma := opt.SigmaS
			if f.key.role == query.T {
				sigma = opt.SigmaT
			}
			costs = append(costs, mpo.ProducerCost{
				Producer: f.key.id,
				SigmaP:   sigma,
				DPR:      e.cfg.Sub.DepthToBase(f.key.id),
			})
			first = len(nodes)
		}
		if newProducer || f.j != facts[i-1].j {
			nodes = append(nodes, costmodel.GroupJoinNode{DPJ: f.dPJ, DJR: e.cfg.Sub.DepthToBase(f.j)})
		}
		nodes[len(nodes)-1].NPJ++
		costs[len(costs)-1].JoinNodes = nodes[first:]
	}
	e.groupCosts, e.groupNodes = costs, nodes
	return costs
}

// --- Multicast and path collapsing (section 5.1, Appendix E) ----------------

// rebuildTree rebuilds ps's tree in place, in its own edge storage (a
// producer with no in-network pair keeps an empty tree), and charges its
// interior state push. In place is safe because the only EdgeList walker,
// the kernel's tree leg, never reaches a rebuild: rebuilds run from
// initiation and settle, never inside the kernel's cycle. The row's tree
// leg holds the tree itself, so it stays current; its later legs' tree
// numbers are rewritten with the rows, which every rebuild marks stale.
// The build's node index is the substrate's scratch, lent for the phase
// (lendIndex).
func (e *engine) rebuildTree(ps *producerState) {
	paths, hops := e.treePaths[:0], e.treeHops[:0]
	for _, p := range ps.pairs {
		if !p.dead && p.jIdx >= 0 {
			paths = append(paths, p.segment(ps.key.role, &hops))
		}
	}
	e.treePaths, e.treeHops = paths, hops
	ps.tree = e.treeBuilder.Rebuild(ps.tree, ps.key.id, paths, e.index)
	ends, nums := e.treeBuilder.Ends(), ps.nums[:0]
	for _, p := range ps.pairs {
		num := int32(-1)
		if !p.dead && p.jIdx >= 0 {
			num, ends = ends[0], ends[1:]
		}
		nums = append(nums, num)
	}
	ps.nums = nums
	e.dirty = true
	if e.cfg.Net != nil {
		if bytes := ps.tree.InteriorStateBytes(sim.PathEntryBytes); bytes > 0 {
			// The producer pushes cached subtree state one hop at a time
			// along the tree; modelled as one charge at the producer.
			e.cfg.Net.Broadcast(ps.key.id, bytes, sim.Control)
		}
	}
}

// lendIndex borrows the substrate's scratch column (routing.Substrate.Borrow)
// as index for one phase that builds trees: set-up, a recovery sweep or
// Adapt. endIndex hands it back, all zero. Borrowing once a phase, not once
// a tree, keeps the lock off rebuildTree, which an Adapt phase runs hundreds
// of times.
func (e *engine) lendIndex() { e.index = e.cfg.Sub.Borrow() }

// endIndex hands back the column lendIndex borrowed.
func (e *engine) endIndex() {
	e.cfg.Sub.Return(e.index)
	e.index = nil
}

// collapsePaths runs the Appendix E path-collapse optimization for every
// producer with at least two node-disjoint in-network paths.
func (e *engine) collapsePaths() {
	for _, ps := range e.producers {
		key := ps.key
		var segs []routing.Path
		var segPairs []*pairState
		for _, p := range ps.pairs {
			if !p.dead && p.jIdx >= 0 {
				segs = append(segs, p.segment(key.role, new(routing.Path)))
				segPairs = append(segPairs, p)
			}
		}
		if len(segs) < 2 {
			continue
		}
		opps := mpo.FindCollapses(e.cfg.Topo, segs)
		if len(opps) == 0 {
			continue
		}
		// Each discovered opportunity costs one notification from the
		// snooping node to the producer (Algorithm 2, line 8).
		for _, o := range opps {
			e.route = e.cfg.Sub.AppendBestTreePath(e.route[:0], o.N1, key.id)
			e.cfg.Net.Transfer(e.route, nominationBytes, sim.Control, sim.Flow{})
		}
		newSegs, _, applied := mpo.ApplyCollapses(e.cfg.Topo, key.id, segs, opps)
		if applied == 0 {
			continue
		}
		// Adopt the rerouted segments: splice each back into its pair's
		// full path (producer..j stays rerouted; j..other-end unchanged).
		for i, p := range segPairs {
			seg := newSegs[i]
			if key.role == query.S {
				rest := routing.Path(p.path[p.jIdx:])
				e.setPath(p, seg.Concat(rest))
				p.jIdx = len(seg) - 1
			} else {
				// seg is t..j reversed orientation: rebuild path as
				// s..j + reverse(seg)[1:].
				sPart := routing.Path(p.path[:p.jIdx+1])
				e.setPath(p, sPart.Concat(seg.Reverse()))
				// jIdx unchanged: join node index still at len(sPart)-1.
				p.jIdx = len(sPart) - 1
			}
		}
		e.rebuildTree(ps)
	}
}

// --- Rows and the kernel's reports -------------------------------------------

// compile rewrites the route table from the pairs as they stand, in the
// table's own storage: one row per producer slot, in order, carrying its
// retained ring. A row's first leg goes up the base tree when any of its
// live pairs joins at the base. Then, with multicast, one tree leg walks
// the producer's tree and one leg per join node, in ascending ID, arrives
// where the walk reached; without, one leg per join node, in pair order,
// travels the first such pair's segment. Data tuples carry no path vector:
// the nomination protocol left soft flow state (src, dst, next-hop) at
// intermediate nodes (Appendix E's data flow buffer). Under multicast a
// join node is marked by its number in its producer's tree (nums); without,
// its leg is looked for among the row's legs written so far. Either way
// compile keeps no column per node.
func (e *engine) compile() {
	e.routes, e.legs, e.hops = e.routes[:0], e.legs[:0], e.hops[:0]
	if e.links != nil {
		e.links.legs = e.links.legs[:0]
	}
	for _, ps := range e.producers {
		role := ps.key.role
		r := route{id: ps.key.id, role: role, recent: &ps.recent, first: int32(len(e.legs))}
		if k := slices.IndexFunc(ps.pairs, func(p *pairState) bool { return !p.dead && p.jIdx < 0 }); k >= 0 {
			e.legs = append(e.legs, leg{to: topology.Base, at: ps.pairs[k].site, slot: ps.pairs[k].slot(role), base: true})
		}
		tree := e.opts.Multicast
		if tree {
			e.legs = append(e.legs, leg{to: r.id, tree: ps.tree})
		}
		sites := len(e.legs)
		if tree {
			e.growMarks(ps.tree.Edges() + 1)
			e.newPass()
		}
		mark, pass := e.mark, e.pass
		for i, p := range ps.pairs {
			if p.dead || p.jIdx < 0 {
				continue
			}
			j := p.joinNode()
			num := int32(-1)
			if tree {
				if num = ps.nums[i]; mark[num] == pass {
					continue
				}
				mark[num] = pass
			} else if hasLegTo(e.legs[sites:], j) {
				continue
			}
			l := leg{to: j, at: p.site, slot: p.slot(role), num: num}
			if !tree {
				l.path = p.segment(role, &e.hops)
				if ls := e.links; ls != nil {
					from := len(ls.legs)
					ls.legs = p.appendSegment(ls.legs, ls.pairs[p.i], role)
					l.ids = idsFrom(from, len(ls.legs))
				}
			}
			e.legs = append(e.legs, l)
		}
		if tree {
			slices.SortFunc(e.legs[sites:], func(a, b leg) int { return cmp.Compare(a.to, b.to) })
		}
		r.end = int32(len(e.legs))
		e.routes = append(e.routes, r)
	}
	e.size()
	e.price()
	e.dirty = false
}

// hasLegTo reports whether legs hold a leg to j.
func hasLegTo(legs []leg, j topology.NodeID) bool {
	for i := range legs {
		if legs[i].to == j {
			return true
		}
	}
	return false
}

// arrived is told of every arrival of row i's producer at leg l's site:
// with learning on, each of the producer's live pairs joined there
// observes the arrival, and each match's pair, one of them, its result.
//
//aspen:allocfree
func (e *engine) arrived(i int, l *leg, ms []window.Match) {
	if !e.learn {
		return
	}
	ps := e.producers[i]
	for _, p := range ps.pairs {
		if !p.dead && p.joinNode() == l.to {
			if ps.key.role == query.S {
				p.est.ObserveS()
			} else {
				p.est.ObserveT()
			}
		}
	}
	for _, m := range ms {
		for _, p := range ps.pairs {
			if p.s == m.S && p.t == m.T {
				p.est.ObserveResults(1)
				break
			}
		}
	}
}

// failed is told of every failed segment or tree leg of row i. A failed
// segment leg suspects the pair that owns it, the first live pair joined at
// its node; a tree walk that failed at a dead child suspects every live
// pair whose join node is dead. The kernel reports no failed base leg:
// base-station failure is outside the model (Appendix C assumes a powered,
// reliable base).
func (e *engine) failed(i int, l *leg, cycle int) {
	for _, p := range e.producers[i].pairs {
		switch {
		case p.dead || p.jIdx < 0:
		case l.tree != nil:
			if !e.cfg.Net.Alive(p.joinNode()) {
				e.suspect(p, cycle)
			}
		case p.joinNode() == l.to:
			e.suspect(p, cycle)
			return
		}
	}
}

// --- Failure handling (section 7) --------------------------------------------

// failureRecoveryCycles is how many sampling cycles a producer spends
// detecting a silent join node (retransmission timeouts) and running the
// limited-exploration repair before giving up and switching to the base
// station. Section 7 observes the resulting result delay is about 6
// cycles.
const failureRecoveryCycles = 5

// suspect is all Step does about a failed delivery toward p's join node:
// it detects. A dead node on p's path starts the pair's detection clock,
// and the sweep Step runs once the clock is due acts on it; tuples sent
// meanwhile are lost (the paper's ~6-cycle result-delay bump). A loss or
// a cut link starts nothing: the hop's retry budget answers a loss, and
// link faults have their own trigger.
func (e *engine) suspect(p *pairState, cycle int) {
	if p.recoverAt != 0 {
		return
	}
	for _, id := range p.path {
		if !e.cfg.Net.Alive(id) {
			p.recoverAt = cycle + failureRecoveryCycles
			if e.nextRecover == 0 {
				// Clocks start in cycle order: a running one is due first.
				e.nextRecover = p.recoverAt
			}
			return
		}
	}
}

// recoverDue is the detection clock's trigger of the recovery sweep: a
// pair whose clock is due is broken, repairable while its join node
// survives, and repaired by its producers' own limited exploration,
// charged to the query's network. The repairer forgets its detours before
// each pair, so every pair pays for its own probes.
func (e *engine) recoverDue(cycle int) {
	cfg := e.cfg
	if e.repairer == nil {
		e.repairer = routing.NewRepairer(cfg.Topo, cfg.Net, routing.DefaultRepairLimit)
	}
	e.sweep(func(p *pairState) (broken, repairable bool) {
		return p.recoverAt != 0 && p.recoverAt <= cycle, cfg.Net.Alive(p.joinNode())
	}, func(path routing.Path) (routing.Path, bool) {
		e.repairer.Reset()
		return e.repairer.Repair(path)
	})
	// A clock the sweep skipped — its pair was abandoned or has moved to the
	// base since — has nothing left to detect.
	e.nextRecover = 0
	for _, p := range e.pairs {
		if p.recoverAt <= cycle {
			p.recoverAt = 0
		} else if e.nextRecover == 0 || p.recoverAt < e.nextRecover {
			e.nextRecover = p.recoverAt
		}
	}
}

// Recover implements Stepper: the churn and link-fault triggers of the
// recovery sweep. Node failures (failed non-nil): a pair whose path crosses
// a freshly failed node is broken, and repairable while its join node
// survives. Link faults (failed nil; every node is alive, so liveness sees
// nothing): a pair is broken when the query's own network — which consults
// the installed fault plan — reports a cut hop on its s..t path or on its
// join node's result path to the base, and repairable only when the base
// path is intact. Repairs go through rp, whose probes are charged once to
// the SHARED stream. The deployment-wide view needs no multi-cycle
// detection, so a pair that cannot be repaired falls back at once.
func (e *engine) Recover(failed []topology.NodeID, rp *routing.Repairer) (repaired, fallbacks int) {
	net := e.cfg.Net
	return e.sweep(func(p *pairState) (broken, repairable bool) {
		j := p.joinNode()
		if failed != nil {
			return p.path.ContainsAny(failed), net.Alive(j)
		}
		e.route = e.cfg.Sub.AppendPathToBase(e.route[:0], j)
		baseCut := net.PathCut(e.route)
		return baseCut || net.PathCut(p.path), !baseCut
	}, rp.Repair)
}

// sweep is section 7's one recovery body, whichever trigger runs it. It
// abandons every pair with a dead endpoint. An in-network pair that check
// reports broken gets repair when check also reports it repairable; a pair
// that is not repairable, whose gap is unbridgeable, or whose detour
// splices the join node out switches to the base station. Either way it
// moves, and settle then replays each fallen-back pair's producers' windows
// and rebuilds each broken pair's producers' trees. Pairs already at the
// base route over the substrate tree, which the engine rebuilds
// separately; their delivery failures surface as observable drops and
// losses, not silent stalls.
func (e *engine) sweep(check func(p *pairState) (broken, repairable bool), repair func(routing.Path) (routing.Path, bool)) (repaired, fallbacks int) {
	cfg := e.cfg
	e.lendIndex()
	defer e.endIndex()
	for _, p := range e.pairs {
		if p.dead {
			continue
		}
		if !cfg.Net.Alive(p.s) || !cfg.Net.Alive(p.t) {
			e.unregisterPair(p)
			p.dead = true
			continue
		}
		if p.jIdx < 0 {
			continue
		}
		broken, repairable := check(p)
		if !broken {
			continue
		}
		old := placement{p.jIdx, p.joinNode()}
		if repairable {
			if rep, ok := repair(p.path); ok {
				if at := rep.Index(old.node); at >= 0 {
					e.setPath(p, rep)
					p.jIdx = at
					e.move(p, old, false)
					repaired++
					continue
				}
			}
		}
		p.jIdx = -1
		e.move(p, old, false)
		fallbacks++
	}
	e.settle()
	return repaired, fallbacks
}

// --- Adaptive re-optimization (section 6) -------------------------------------

// Adapt implements Stepper. It closes the given cycle on every live pair's
// estimator and re-optimizes on every trigger. Ungrouped pairs are
// re-placed individually; grouped pairs are re-decided once per group per
// call with the triggering pair's fresh estimates as the authority, so the
// individual and group optima never fight each other across cycles. The
// moves are settled once, at the end.
func (e *engine) Adapt(cycle int) (migrated, aborted int) {
	if !e.learn {
		return 0, 0
	}
	e.lendIndex()
	defer e.endIndex()
	for _, p := range e.pairs {
		if p.dead {
			continue
		}
		fresh, triggered := p.est.EndCycle(cycle)
		if !triggered {
			continue
		}
		var m, a int
		if e.opts.GroupOpt && p.group >= 0 {
			if e.adaptedAt[p.group] == cycle+1 {
				continue
			}
			e.adaptedAt[p.group] = cycle + 1
			m, a = e.adaptGroup(e.groups[p.group], fresh)
		} else {
			old := placement{p.jIdx, p.joinNode()}
			e.placePair(p, fresh, false)
			m, a = e.commit(p, old, true)
		}
		migrated += m
		aborted += a
	}
	e.settle()
	return migrated, aborted
}

// adaptGroup re-optimizes one GROUPOPT group with fresh estimates: every
// in-network pair is individually re-placed (uncharged — the nomination
// point), then the group-level base-versus-in-network decision runs with
// its usual coordination and nomination charging, and finally each move is
// committed.
func (e *engine) adaptGroup(group []*pairState, fresh costmodel.Params) (migrated, aborted int) {
	old := e.groupOld[:0]
	for _, p := range group {
		old = append(old, placement{p.jIdx, p.joinNode()})
		if !p.dead && p.jIdx >= 0 {
			e.placePair(p, fresh, false)
		}
	}
	e.groupOld = old
	e.groupDecision(group, fresh, true)
	for i, p := range group {
		// In-network repositioning came from the uncharged individual pass
		// and still owes its nomination; base-to-in-network moves were
		// already nominated by the group decision's charged placement.
		m, a := e.commit(p, old[i], old[i].idx >= 0)
		migrated += m
		aborted += a
	}
	return migrated, aborted
}

// commit is the commit point of a re-placement already written to p.jIdx,
// from old. A placement that did not actually move is restored and costs
// nothing. Otherwise the producers are re-nominated toward a live
// in-network target (when nominate is set), charged as sim.Migration, and
// the pair migrates. Returns (1,0) for a committed move, (0,1) for an
// abort, (0,0) when nothing moved.
func (e *engine) commit(p *pairState, old placement, nominate bool) (migrated, aborted int) {
	if p.jIdx == old.idx || p.joinNode() == old.node {
		p.jIdx = old.idx
		return 0, 0
	}
	if nominate && p.jIdx >= 0 && e.cfg.Net.Alive(p.joinNode()) {
		e.nominate(p, sim.Migration)
	}
	if e.move(p, old, true) {
		e.res.MigrationsAborted++
		return 0, 1
	}
	e.res.Migrations++
	return 1, 0
}

// --- Moving a pair and settling (sections 6 and 7) ---------------------------

// move finishes a change to p, placed at old, whose new path and join-node
// index are already written: a section-6 migration (ship set), or a
// section-7 path repair or base fallback. After Start it is the one place a
// placed pair's join node, path or registration changes, but for sweep's
// abandoning a pair with a dead endpoint. Every move marks both producers
// for settle's tree rebuild, and reports whether a migration aborted.
//
// A repair keeps the join node and the registration; any other move
// re-registers the pair at its new join node, and the old node drops the
// windows of producers with no pairs left there. A repair or a fallback
// stops the pair's detection clock, and a fallback moves no window: both
// producers replay theirs at settle.
//
// A migration snapshots the pair's window at the old node, ships it along
// the one connecting path (charged as sim.Migration) and restores it at the
// new node. Producer windows are physically shared by every pair colocated
// at a node, so the restore skips producers the target already buffers:
// the live window there is current, and the snapshot on top would
// duplicate tuples and hence join results. A migration aborts when its
// target is dead or its connecting path is cut: a pair that was in-network
// falls back to the base, one that was at the base stays.
func (e *engine) move(p *pairState, old placement, ship bool) (aborted bool) {
	to := p.joinNode()
	var tuples []window.Tuple
	delivered := true
	if ship {
		aborted = p.jIdx >= 0 && !e.cfg.Net.Alive(to)
		var bytes int
		tuples, bytes = p.site.st.SnapshotAppend(e.tupleBuf[:0], p.s, p.t)
		e.tupleBuf = tuples
		if bytes > 0 && !aborted {
			var path routing.Path
			var ids []int32 // the base paths' link ids, read off the base tree
			switch {
			case old.idx < 0: // base -> in-network
				e.route = e.cfg.Sub.AppendPathToBase(e.route[:0], to)
				slices.Reverse(e.route)
			case p.jIdx < 0: // in-network -> base
				e.route = e.cfg.Sub.AppendPathToBase(e.route[:0], old.node)
			case old.idx > p.jIdx: // back along the pair path
				e.route = e.route.ReverseOf(p.path[p.jIdx : old.idx+1])
			default:
				path = p.path[old.idx : p.jIdx+1]
			}
			if path == nil {
				path = e.route
			}
			if old.idx < 0 || p.jIdx < 0 {
				e.routeLinks = e.cfg.Sub.AppendTreeLinks(e.routeLinks[:0], path, e.cfg.Net)
				ids = e.routeLinks
			}
			delivered, _ = e.cfg.Net.TransferLinks(path, ids, bytes, sim.Migration)
			// A cut path cannot carry the snapshot to the target, and
			// installing the pair there would leave a half-transferred
			// window.
			aborted = !delivered && e.cfg.Net.PathCut(path)
		}
		if aborted {
			if p.jIdx = old.idx; old.idx < 0 {
				return true
			}
			p.jIdx, to, ship = -1, topology.Base, false
		}
	}
	p.prodS.rebuild, p.prodT.rebuild, e.dirty = true, true, true
	if !ship {
		p.recoverAt = 0
		if to == old.node {
			return aborted
		}
		p.prodS.replay, p.prodT.replay = true, true
	}
	e.unregisterPair(p) // from the old node's site, where it is still registered
	at := &e.siteOf(to).st
	skipS, skipT := at.WindowLen(p.s) > 0, at.WindowLen(p.t) > 0
	e.registerPair(p)
	if ship && delivered {
		keep := tuples[:0]
		for _, tp := range tuples {
			if !(tp.Producer == p.s && skipS || tp.Producer == p.t && skipT) {
				keep = append(keep, tp)
			}
		}
		at.Restore(keep)
	}
	return aborted
}

// settle ends a phase that moved pairs, visiting the producers move marked
// in producer order, which keeps the charges deterministic: each replays
// its retained window to the base once and rebuilds its multicast tree
// once, however many of its pairs moved.
func (e *engine) settle() {
	for _, ps := range e.producers {
		if ps.replay {
			e.replayWindowToBase(ps)
		}
		if e.opts.Multicast && ps.rebuild {
			e.rebuildTree(ps)
		}
		ps.rebuild, ps.replay = false, false
	}
}

// replayWindowToBase ships ps's retained tuples, oldest first, up the base
// tree so the base can reconstruct the join window of a pair that just
// fell back — data traffic, charged to the query's own stream.
func (e *engine) replayWindowToBase(ps *producerState) {
	if ps.recent.Len() == 0 || !e.cfg.Net.Alive(ps.key.id) {
		return
	}
	if e.overBase(ps.key.id, topology.Base, ps.recent.Len()*sim.TupleBytes, sim.Data) {
		e.tupleBuf = ps.recent.AppendTo(e.tupleBuf[:0])
		e.siteOf(topology.Base).st.Restore(e.tupleBuf)
	}
}
