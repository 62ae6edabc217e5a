package join

import (
	"cmp"
	"slices"
	"sort"

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
// optimization (g); learning is orthogonal (section 6).
type InnetOptions struct {
	// Multicast enables producer-rooted multicast trees with cached
	// interior state (section 5.1).
	Multicast bool
	// PathCollapse enables the snooping path-collapse optimization
	// (Algorithms 2-3); requires Multicast.
	PathCollapse bool
	// GroupOpt enables GROUPOPT (Algorithm 1) group-level decisions.
	GroupOpt bool
	// Learn enables adaptive selectivity learning and join-node
	// migration (section 6): the stepper feeds per-pair estimators during
	// Step and re-places in Adapt.
	Learn bool
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

// Name implements Continuous, matching the paper's variant naming.
func (in Innet) Name() string {
	name := "Innet"
	suffix := ""
	if in.Opts.Multicast {
		suffix += "cm"
	}
	if in.Opts.PathCollapse {
		suffix += "p"
	}
	if in.Opts.GroupOpt {
		suffix += "g"
	}
	if suffix != "" {
		name += "-" + suffix
	}
	if in.Opts.Learn {
		name += " learn"
	}
	return name
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

// sSegment returns the s -> join node path (nil for base joins).
func (p *pairState) sSegment() routing.Path {
	if p.jIdx < 0 {
		return nil
	}
	return p.path[:p.jIdx+1]
}

// tSegment writes the t -> join node path into dst's storage and returns
// it (nil for base joins): a nil dst gives a new path the caller keeps.
func (p *pairState) tSegment(dst routing.Path) routing.Path {
	if p.jIdx < 0 {
		return nil
	}
	return dst.ReverseOf(p.path[p.jIdx:])
}

// placement is a pair's join-node index and node, saved before a move.
type placement struct {
	idx  int
	node topology.NodeID
}

// producerKey identifies a producer slot.
type producerKey struct {
	id   topology.NodeID
	role query.Rel
}

// producerState tracks one producer slot's pairs, multicast tree and
// retained recent tuples: a ring of the last w sent, for failover window
// reconstruction.
type producerState struct {
	key    producerKey
	pairs  []*pairState
	tree   *mpo.MulticastTree
	recent window.Ring
}

// engine is the mutable run state of one In-Net execution. All per-node
// lookup tables are dense NodeID-indexed slices rather than maps: at
// thousands of nodes the per-cycle map hashing dominated the hot path, and
// NodeIDs are already a compact [0, n) key space.
type engine struct {
	stepperBase
	opts InnetOptions
	// learn is opts.Learn or cfg.ExternalAdapt, fixed at Start: pairs carry
	// estimators and Adapt re-places them.
	learn bool
	pairs []*pairState
	// pairsOfS[s] lists the pairs whose source endpoint is s; a (s,t)
	// match resolves to its pairState by scanning this (short) bucket.
	pairsOfS [][]*pairState
	// prodS[id] / prodT[id] are the producer slots by role (nil when the
	// node does not fill that role).
	prodS, prodT []*producerState
	order        []producerKey // deterministic iteration order
	// states[j] is the join state hosted at node j (nil until created).
	states []*window.State
	groups [][]*pairState
	// nextRecover is the earliest running detection clock (0 = none), so
	// Step looks at pairs only on the cycle a clock is due.
	nextRecover int

	// Per-cycle scratch, sized to the topology at Start, so steady-state
	// Step calls do not allocate: dense NodeID-indexed marks replace the
	// per-cycle maps, touched lists bound the reset work, and the match /
	// hop buffers are reused across cycles. Every buffer is reset before
	// (or immediately after) use, so no state leaks between cycles.
	matchCount  []int             // per-join-node matches this cycle
	matchOrder  []topology.NodeID // join nodes with matches, first-touch order
	matchBuf    []window.Match    // reusable Arrive result buffer
	tupleBuf    []window.Tuple    // window transfers and replays
	reached     []bool            // multicast: nodes reached this dissemination
	reachedIDs  []topology.NodeID // touched entries of reached
	isJoin      []bool            // multicast: join-node membership marks
	joinList    []topology.NodeID // touched entries of isJoin
	delivered   []bool            // unicast: join nodes already served
	deliveredTo []topology.NodeID // touched entries of delivered
	hop         [2]topology.NodeID

	// Tree-rebuild scratch, so rebuildTree allocates nothing once it and
	// the producers' trees have grown. All three stay empty until a
	// multicast query builds a tree.
	treeBuilder mpo.Builder
	treePaths   []routing.Path // the producer's in-network segments
	treeHops    routing.Path   // backs the reversed t -> join node segments
	// route is the scratch every route charged once and then dropped is
	// written into: nominations, GROUPOPT coordination, window transfers
	// and unicast t-side deliveries. It is valid until the next of those.
	route routing.Path
	// groupOld saves adaptGroup's pre-move placements, one per group pair.
	groupOld []placement

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
// cycle-steppable execution.
func (in Innet) Start(cfg *Config) Stepper {
	n := cfg.Topo.N()
	e := &engine{
		stepperBase: newStepperBase(cfg, in.Name()),
		opts:        in.Opts,
		learn:       in.Opts.Learn || cfg.ExternalAdapt,
		pairsOfS:    make([][]*pairState, n),
		prodS:       make([]*producerState, n),
		prodT:       make([]*producerState, n),
		states:      make([]*window.State, n),
		matchCount:  make([]int, n),
		reached:     make([]bool, n),
		isJoin:      make([]bool, n),
		delivered:   make([]bool, n),
	}
	e.memBytes = int64(n) * (sliceBytes + 4*wordBytes + 3) // pairsOfS; prodS, prodT, states, matchCount; three mark columns
	e.initiate()
	e.sizeArrivalBuffers()
	snapshotInit(cfg, e.res)
	return e
}

// sizeArrivalBuffers gives Step's per-arrival buffers their final capacity,
// so no steady cycle grows them. The pair set is fixed at initiation: one
// arrival probes at most its producer's pairs' partner windows of w tuples
// each and reaches at most that many join nodes, and a cycle's matches land
// at no more join nodes than there are pairs.
func (e *engine) sizeArrivalBuffers() {
	most := 0 // the most pairs any producer slot serves
	for _, key := range e.order {
		most = max(most, len(e.prodFor(key).pairs))
	}
	e.matchBuf = make([]window.Match, 0, most*e.cfg.Spec.W)
	e.deliveredTo = make([]topology.NodeID, 0, most)
	e.joinList = make([]topology.NodeID, 0, most)
	e.matchOrder = make([]topology.NodeID, 0, len(e.pairs))
}

// Step implements Stepper: one sampling cycle, after the recovery sweep of
// any detection clock due by now. The estimators are fed here; closing the
// cycle on them and migrating is Adapt's job.
//
//aspen:allocfree
func (e *engine) Step(cycle int) {
	e.cfg.Net.BeginCycle(cycle)
	if e.nextRecover != 0 && cycle >= e.nextRecover {
		e.recoverDue(cycle)
	}
	e.runCycle(cycle)
}

// Adaptive implements Stepper.
func (e *engine) Adaptive() bool { return e.learn }

// JoinStateTuples implements Stepper: the tuples buffered across every
// join node's window state.
func (e *engine) JoinStateTuples() int {
	n := 0
	for _, st := range e.states {
		if st != nil {
			n += st.Tuples()
		}
	}
	return n
}

// Finish implements Stepper.
func (e *engine) Finish() *Result {
	for _, p := range e.pairs {
		if p.dead {
			continue
		}
		if p.jIdx < 0 {
			e.res.AtBasePairs++
		} else {
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
	// Exploration: every eligible s searches the substrate for matching
	// targets; traffic charged inside FindTargets.
	for i := 0; i < cfg.Topo.N(); i++ {
		s := topology.NodeID(i)
		if !cfg.Spec.EligibleS(s) {
			continue
		}
		found := cfg.Sub.FindTargets(s, cfg.Spec.SearchMatcher(s, cfg.Sub), cfg.Net)
		targets := make([]topology.NodeID, 0, len(found))
		//aspen:orderinvariant keys collected then sorted before use
		for t := range found {
			targets = append(targets, t)
		}
		sort.Slice(targets, func(a, b int) bool { return targets[a] < targets[b] })
		for _, t := range targets {
			// Compress the discovered path: the response path vector is
			// shortcut through known one-hop neighbourhoods ([11]).
			path := routing.Shortcut(cfg.Topo, found[t])
			p := &pairState{s: s, t: t, path: path, group: -1}
			e.placePair(p, cfg.Opt, true)
			e.pairs = append(e.pairs, p)
			e.pairsOfS[s] = append(e.pairsOfS[s], p)
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
	// Producer bookkeeping.
	for _, p := range e.pairs {
		e.addProducerPair(producerKey{p.s, query.S}, p)
		e.addProducerPair(producerKey{p.t, query.T}, p)
	}
	sort.Slice(e.order, func(a, b int) bool {
		if e.order[a].id != e.order[b].id {
			return e.order[a].id < e.order[b].id
		}
		return e.order[a].role < e.order[b].role
	})
	if e.opts.GroupOpt {
		e.buildGroups()
		e.runGroupOpt(e.cfg.Opt, true)
	}
	for _, p := range e.pairs {
		e.registerPair(p)
	}
	if e.opts.Multicast {
		e.rebuildTrees(true)
	}
	if e.opts.PathCollapse {
		e.collapsePaths()
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
// as sim.Migration at the commit point (commitMove).
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
// in-network join node: t nominates j; j notifies s.
func (e *engine) nominate(p *pairState, kind sim.MsgKind) {
	e.route = p.tSegment(e.route)
	e.cfg.Net.Transfer(e.route, nominationBytes, kind, sim.Flow{})
	e.route = e.route.ReverseOf(p.sSegment())
	e.cfg.Net.Transfer(e.route, nominationBytes, kind, sim.Flow{})
}

// prodFor returns the producer slot for key, or nil when absent.
func (e *engine) prodFor(key producerKey) *producerState {
	if key.role == query.S {
		return e.prodS[key.id]
	}
	return e.prodT[key.id]
}

func (e *engine) addProducerPair(key producerKey, p *pairState) {
	ps := e.prodFor(key)
	if ps == nil {
		ps = &producerState{key: key, recent: window.NewRing(e.cfg.Spec.W)}
		if key.role == query.S {
			e.prodS[key.id] = ps
		} else {
			e.prodT[key.id] = ps
		}
		e.order = append(e.order, key)
	}
	ps.pairs = append(ps.pairs, p)
}

// pairFor resolves a (s, t) match back to its pairState (nil when absent).
func (e *engine) pairFor(s, t topology.NodeID) *pairState {
	for _, p := range e.pairsOfS[s] {
		if p.t == t {
			return p
		}
	}
	return nil
}

// stateAt returns (creating on demand) the join state at node j.
func (e *engine) stateAt(j topology.NodeID) *window.State {
	st := e.states[j]
	if st == nil {
		st = window.NewState(e.cfg.Spec.W, e.cfg.Spec.DynJoin)
		e.states[j] = st
	}
	return st
}

// registerPair registers p at its join node's state and takes its handles.
func (e *engine) registerPair(p *pairState) {
	p.sSlot, p.tSlot = e.stateAt(p.joinNode()).AddPair(p.s, p.t)
}

func (e *engine) unregisterPair(p *pairState) {
	j := p.joinNode()
	st := e.stateAt(j)
	st.RemovePair(p.s, p.t)
	if st.PairsFor(p.s, query.S) == 0 && st.PairsFor(p.s, query.T) == 0 {
		st.DropProducer(p.s)
	}
	if st.PairsFor(p.t, query.T) == 0 && st.PairsFor(p.t, query.S) == 0 {
		st.DropProducer(p.t)
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
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	for gi, key := range keys {
		group := byKey[key]
		for _, p := range group {
			p.group = gi
		}
		e.groups = append(e.groups, group)
	}
	e.adaptedAt = make([]int, len(e.groups))
}

// runGroupOpt executes GROUPOPT for every group, moving whole groups to
// the base when the summed deltas favour it.
func (e *engine) runGroupOpt(opt costmodel.Params, charge bool) {
	for _, group := range e.groups {
		e.groupDecision(group, opt, charge)
	}
}

func (e *engine) groupDecision(group []*pairState, opt costmodel.Params, charge bool) {
	var net *sim.Network
	if charge {
		net = e.cfg.Net
	}
	decision := mpo.GroupOpt(e.cfg.Sub, net, &e.route, e.producerCosts(group, opt), opt.SigmaST, e.cfg.Spec.W)
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

// rebuildTrees reconstructs every producer's multicast tree from its
// current in-network segments, charging interior state pushes when charge
// is set.
func (e *engine) rebuildTrees(charge bool) {
	for _, key := range e.order {
		e.rebuildTree(e.prodFor(key), charge)
	}
}

// rebuildTree rebuilds ps's tree in place, in its own edge storage (a
// producer with no in-network pair keeps an empty tree), and charges its
// interior state push when charge is set. In place is safe because the only
// EdgeList walker, deliverMulticast, never reaches a rebuild: its loop calls
// only Transfer, arriveAt and suspect, and suspect just starts a detection
// clock. Rebuilds run from initiation, the recovery sweep and Adapt, never
// inside a dissemination.
func (e *engine) rebuildTree(ps *producerState, charge bool) {
	paths, hops := e.treePaths[:0], e.treeHops[:0]
	for _, p := range ps.pairs {
		if p.dead || p.jIdx < 0 {
			continue
		}
		if ps.key.role == query.S {
			paths = append(paths, p.sSegment())
			continue
		}
		// tSegment, written into the shared hop buffer instead of a copy
		// per pair. Growing hops leaves earlier segments on the old array,
		// still intact.
		from := len(hops)
		for i := len(p.path) - 1; i >= p.jIdx; i-- {
			hops = append(hops, p.path[i])
		}
		paths = append(paths, hops[from:])
	}
	e.treePaths, e.treeHops = paths, hops
	ps.tree = e.treeBuilder.Rebuild(ps.tree, ps.key.id, paths)
	if charge && e.cfg.Net != nil {
		if bytes := ps.tree.InteriorStateBytes(sim.PathEntryBytes); bytes > 0 {
			// The producer pushes cached subtree state one hop at a time
			// along the tree; modelled as one charge at the producer.
			e.cfg.Net.Broadcast(ps.key.id, bytes, sim.Control)
		}
	}
}

// collapsePaths runs the Appendix E path-collapse optimization for every
// producer with at least two node-disjoint in-network paths.
func (e *engine) collapsePaths() {
	for _, key := range e.order {
		ps := e.prodFor(key)
		var segs []routing.Path
		var segPairs []*pairState
		for _, p := range ps.pairs {
			if p.dead || p.jIdx < 0 {
				continue
			}
			if key.role == query.S {
				segs = append(segs, p.sSegment())
			} else {
				segs = append(segs, p.tSegment(nil))
			}
			segPairs = append(segPairs, p)
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
			e.cfg.Net.Transfer(e.cfg.Sub.BestTreePath(o.N1, key.id), nominationBytes, sim.Control, sim.Flow{})
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
				p.path = seg.Concat(rest)
				p.jIdx = len(seg) - 1
			} else {
				// seg is t..j reversed orientation: rebuild path as
				// s..j + reverse(seg)[1:].
				sPart := routing.Path(p.path[:p.jIdx+1])
				p.path = sPart.Concat(seg.Reverse())
				// jIdx unchanged: join node index still at len(sPart)-1.
				p.jIdx = len(sPart) - 1
			}
		}
		e.rebuildTree(ps, true)
	}
}

// --- Per-cycle execution ------------------------------------------------------

// runCycle samples every producer once and delivers what it sends.
//
//aspen:allocfree
func (e *engine) runCycle(cycle int) {
	cfg := e.cfg
	// Per cycle, deliveries from a producer are deduplicated per join
	// node, and results are merged per join node (dense counts in
	// e.matchCount, first-touch order in e.matchOrder).
	e.matchOrder = e.matchOrder[:0]
	for _, key := range e.order {
		ps := e.prodFor(key)
		if !cfg.Net.Alive(key.id) {
			continue
		}
		v, send := cfg.Sampler.Sample(key.id, key.role, cycle)
		if !send {
			continue
		}
		ps.recent.Push(window.Tuple{Producer: key.id, Value: v, Cycle: cycle})
		e.deliver(ps, v, cycle)
	}
	for _, j := range e.matchOrder {
		sendResults(cfg, e.rec, j, e.matchCount[j], cycle)
		e.matchCount[j] = 0
	}
}

// noteMatches merges ms into the per-cycle result accounting and feeds the
// learning estimators; it replaces the per-cycle addMatches closure.
//
//aspen:allocfree
func (e *engine) noteMatches(j topology.NodeID, ms []window.Match) {
	if len(ms) > 0 {
		if e.matchCount[j] == 0 {
			e.matchOrder = append(e.matchOrder, j)
		}
		e.matchCount[j] += len(ms)
	}
	if !e.learn {
		return // no pair carries an estimator
	}
	for i := range ms {
		if p := e.pairFor(ms[i].S, ms[i].T); p != nil && p.est != nil {
			p.est.ObserveResults(1)
		}
	}
}

// deliver sends producer ps's tuple to all its join nodes (multicast or
// pairwise) and to the base for its base-joined pairs.
//
//aspen:allocfree
func (e *engine) deliver(ps *producerState, v int32, cycle int) {
	cfg := e.cfg
	// Base-side pairs: one tree-routed send serves all of them.
	hasBase := false
	for _, p := range ps.pairs {
		if !p.dead && p.jIdx < 0 {
			hasBase = true
			break
		}
	}
	if hasBase {
		if ok, _ := cfg.Net.Transfer(cfg.Sub.PathToBase(ps.key.id), sim.TupleBytes, sim.Data, sim.Flow{Src: ps.key.id, Dst: topology.Base}); ok {
			e.arriveAt(topology.Base, ps, v, cycle)
		}
		// Base-station failure is outside the model (Appendix C assumes a
		// powered, reliable base).
	}
	if e.opts.Multicast && ps.tree != nil {
		e.deliverMulticast(ps, v, cycle)
		return
	}
	// Pairwise unicast with explicit path vectors.
	e.deliveredTo = e.deliveredTo[:0]
	for _, p := range ps.pairs {
		if p.dead || p.jIdx < 0 {
			continue
		}
		j := p.joinNode()
		if e.delivered[j] {
			continue
		}
		e.delivered[j] = true
		e.deliveredTo = append(e.deliveredTo, j)
		seg := p.sSegment()
		if ps.key.role == query.T {
			e.route = p.tSegment(e.route)
			seg = e.route
		}
		// Data tuples carry no path vector: the nomination protocol left
		// soft flow state (src, dst, next-hop) at intermediate nodes
		// (Appendix E's data flow buffer), so steady-state payloads are
		// just the tuple.
		if ok, _ := cfg.Net.Transfer(seg, sim.TupleBytes, sim.Data, sim.Flow{Src: ps.key.id, Dst: j, Path: seg}); ok {
			e.arriveAt(j, ps, v, cycle)
		} else {
			e.suspect(p, cycle)
		}
	}
	for _, j := range e.deliveredTo {
		e.delivered[j] = false
	}
}

// deliverMulticast walks the producer's tree edge by edge; a failed edge
// prunes its subtree for this cycle. Cached interior state means the
// payload is just the tuple.
//
//aspen:allocfree
func (e *engine) deliverMulticast(ps *producerState, v int32, cycle int) {
	cfg := e.cfg
	tree := ps.tree
	e.reachedIDs = e.reachedIDs[:0]
	e.reached[ps.key.id] = true
	e.reachedIDs = append(e.reachedIDs, ps.key.id) //aspen:alloc warm-up growth to the largest tree disseminated
	e.joinList = e.joinList[:0]
	for _, p := range ps.pairs {
		if !p.dead && p.jIdx >= 0 {
			if j := p.joinNode(); !e.isJoin[j] {
				e.isJoin[j] = true
				e.joinList = append(e.joinList, j)
			}
		}
	}
	anyFailure := false
	for _, edge := range tree.EdgeList() {
		parent, child := edge[0], edge[1]
		if !e.reached[parent] {
			continue
		}
		e.hop[0], e.hop[1] = parent, child
		ok, _ := cfg.Net.Transfer(e.hop[:], sim.TupleBytes, sim.Data, sim.Flow{Src: ps.key.id, Dst: child})
		if !ok {
			if !cfg.Net.Alive(child) {
				anyFailure = true
			}
			continue
		}
		e.reached[child] = true
		e.reachedIDs = append(e.reachedIDs, child) //aspen:alloc warm-up growth to the largest tree disseminated
	}
	// Insertion sort: join-node fan-out is small and sort.Slice allocates
	// (closure + reflect-based swapper) on every call.
	routing.SortNodeIDs(e.joinList)
	for _, j := range e.joinList {
		e.isJoin[j] = false
		if e.reached[j] {
			e.arriveAt(j, ps, v, cycle)
		}
	}
	for _, id := range e.reachedIDs {
		e.reached[id] = false
	}
	if anyFailure {
		for _, p := range ps.pairs {
			if !p.dead && p.jIdx >= 0 && !cfg.Net.Alive(p.joinNode()) {
				e.suspect(p, cycle)
			}
		}
	}
}

// arriveAt feeds the tuple into the join state at j for every of ps's
// pairs joined there, observing learning counters.
//
//aspen:allocfree
func (e *engine) arriveAt(j topology.NodeID, ps *producerState, v int32, cycle int) {
	slot := int32(-1) // ps's handle in the join state at j
	for _, p := range ps.pairs {
		if p.dead || p.joinNode() != j {
			continue
		}
		if slot = p.tSlot; ps.key.role == query.S {
			slot = p.sSlot
		}
		if p.est != nil {
			if ps.key.role == query.S {
				p.est.ObserveS()
			} else {
				p.est.ObserveT()
			}
		}
	}
	if slot < 0 {
		return
	}
	e.matchBuf = e.states[j].ArriveSlot(e.matchBuf[:0], slot, ps.key.role, v, cycle)
	e.noteMatches(j, e.matchBuf)
}

// --- Failure handling (section 7) --------------------------------------------

// failureRecoveryCycles is how many sampling cycles a producer spends
// detecting a silent join node (retransmission timeouts) and running the
// limited-exploration repair before giving up and switching to the base
// station. Section 7 observes the resulting result delay is about 6
// cycles.
const failureRecoveryCycles = 5

// fallbackToBase switches p to joining at the base station — section 7's
// last resort, shared by the recovery sweep and aborted migrations. Window
// registrations move to the base's state; callers replay retained windows
// separately.
func (e *engine) fallbackToBase(p *pairState) {
	e.unregisterPair(p)
	p.jIdx = -1
	p.recoverAt = 0
	e.registerPair(p)
}

// replayWindowToBase ships ps's retained tuples, oldest first, up the base
// tree so the base can reconstruct the join window of a pair that just
// fell back — data traffic, charged to the query's own stream.
func (e *engine) replayWindowToBase(ps *producerState) {
	if ps == nil || ps.recent.Len() == 0 || !e.cfg.Net.Alive(ps.key.id) {
		return
	}
	path := e.cfg.Sub.PathToBase(ps.key.id)
	if ok, _ := e.cfg.Net.Transfer(path, ps.recent.Len()*sim.TupleBytes, sim.Data, sim.Flow{Src: ps.key.id, Dst: topology.Base}); ok {
		e.tupleBuf = ps.recent.AppendTo(e.tupleBuf[:0])
		e.stateAt(topology.Base).Restore(e.tupleBuf)
	}
}

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
// survives, and repaired by its producers' own limited exploration
// (routing.RepairPath, charged to the query's network).
func (e *engine) recoverDue(cycle int) {
	cfg := e.cfg
	e.sweep(func(p *pairState) (broken, repairable bool) {
		return p.recoverAt != 0 && p.recoverAt <= cycle, cfg.Net.Alive(p.joinNode())
	}, func(path routing.Path) (routing.Path, bool) {
		return routing.RepairPath(cfg.Topo, cfg.Net, path, routing.DefaultRepairLimit)
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
		baseCut := net.PathCut(e.cfg.Sub.PathToBase(j))
		return baseCut || net.PathCut(p.path), !baseCut
	}, rp.Repair)
}

// sweep is section 7's one recovery body, whichever trigger runs it. It
// abandons every pair with a dead endpoint. An in-network pair that check
// reports broken gets repair when check also reports it repairable; a pair
// that is not repairable, whose gap is unbridgeable, or whose detour
// splices the join node out switches to the base station. Each producer of
// a pair that fell back replays its retained window to the base once,
// charged to the query's own stream like any data, and the multicast trees
// of every broken pair's producers are rebuilt. Pairs already at the base
// route over the substrate tree, which the engine rebuilds separately;
// their delivery failures surface as observable drops and losses, not
// silent stalls.
func (e *engine) sweep(check func(p *pairState) (broken, repairable bool), repair func(routing.Path) (routing.Path, bool)) (repaired, fallbacks int) {
	cfg := e.cfg
	n := cfg.Topo.N()
	// rebuild[role][id] marks producers needing a multicast-tree rebuild;
	// replay[role][id] marks producers whose retained window must reach
	// the base. Dense marks + the ordered e.order pass keep everything
	// deterministic.
	var rebuild, replay [2][]bool
	mark := func(set *[2][]bool, p *pairState) {
		if set[query.S] == nil {
			set[query.S], set[query.T] = make([]bool, n), make([]bool, n)
		}
		set[query.S][p.s], set[query.T][p.t] = true, true
	}
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
		mark(&rebuild, p)
		if repairable {
			if rep, ok := repair(p.path); ok {
				if at := rep.Index(p.joinNode()); at >= 0 {
					p.path, p.jIdx, p.recoverAt = rep, at, 0
					repaired++
					continue
				}
			}
		}
		e.fallbackToBase(p)
		fallbacks++
		mark(&replay, p)
	}
	for _, key := range e.order {
		ps := e.prodFor(key)
		if replay[key.role] != nil && replay[key.role][key.id] {
			e.replayWindowToBase(ps)
		}
		if e.opts.Multicast && rebuild[key.role] != nil && rebuild[key.role][key.id] {
			e.rebuildTree(ps, true)
		}
	}
	return repaired, fallbacks
}

// --- Adaptive re-optimization (section 6) -------------------------------------

// Adapt implements Stepper. It closes the given cycle on every live pair's
// estimator and re-optimizes on every trigger. Ungrouped pairs are
// re-placed individually; grouped pairs are re-decided once per group per
// call with the triggering pair's fresh estimates as the authority, so the
// individual and group optima never fight each other across cycles.
func (e *engine) Adapt(cycle int) (migrated, aborted int) {
	if !e.learn {
		return 0, 0
	}
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
			oldIdx, oldNode := p.jIdx, p.joinNode()
			e.placePair(p, fresh, false)
			m, a = e.commitMove(p, oldIdx, oldNode, true)
		}
		migrated += m
		aborted += a
	}
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
		m, a := e.commitMove(p, old[i].idx, old[i].node, old[i].idx >= 0)
		migrated += m
		aborted += a
	}
	return migrated, aborted
}

// commitMove finalizes a re-placement already written to p.jIdx — the
// commit point of every migration. A placement that did not actually move
// is restored and costs nothing. A target that died since the nomination
// aborts into the base fallback, never installing state at the dead node.
// Otherwise the producers are re-nominated toward an in-network target
// (when nominate is set) and the pair's window ships over, all charged as
// sim.Migration traffic. Returns (1,0) for a committed move, (0,1) for an
// abort, (0,0) when nothing moved.
func (e *engine) commitMove(p *pairState, oldIdx int, oldNode topology.NodeID, nominate bool) (migrated, aborted int) {
	if p.jIdx == oldIdx || p.joinNode() == oldNode {
		p.jIdx = oldIdx
		return 0, 0
	}
	if p.jIdx >= 0 && !e.cfg.Net.Alive(p.joinNode()) {
		e.abortToBase(p, oldIdx)
		return 0, 1
	}
	if p.jIdx >= 0 && nominate {
		e.nominate(p, sim.Migration)
	}
	if !e.transferWindow(p, oldIdx, oldNode) {
		return 0, 1
	}
	return 1, 0
}

// abortToBase abandons a nominated move: the old placement is restored —
// so the fallback unregisters the correct (live) node — and the pair takes
// the section-7 path, re-joining at the base with its producers' retained
// windows replayed once. A pair that was already joining at the base just
// stays there: nothing moved, and the base still holds the window.
func (e *engine) abortToBase(p *pairState, oldIdx int) {
	p.jIdx = oldIdx
	e.res.MigrationsAborted++
	if oldIdx < 0 {
		return
	}
	e.fallbackToBase(p)
	e.replayWindowToBase(e.prodS[p.s])
	e.replayWindowToBase(e.prodT[p.t])
	e.rebuildPairTrees(p)
}

// rebuildPairTrees rebuilds both producers' multicast trees after p moved.
func (e *engine) rebuildPairTrees(p *pairState) {
	if e.opts.Multicast {
		e.rebuildTree(e.prodS[p.s], true)
		e.rebuildTree(e.prodT[p.t], true)
	}
}

// transferWindow moves the pair's join window from oldNode to the
// placement already written to p.jIdx: snapshot at the old node, ship
// along the connecting path (charged as sim.Migration), restore at the new
// node. Producer windows are physically shared by every pair colocated at
// a node, so the restore skips producers the target already buffers — the
// live window there is current, and pushing the snapshot on top would
// duplicate tuples and hence join results. Registration moves through
// unregisterPair so a producer with no remaining pairs at the old node
// drops its window rather than leaving stale tuples behind.
// It returns whether the move committed: a transfer whose path is severed
// by a fault-injected partition aborts into the base-station fallback and
// returns false.
func (e *engine) transferWindow(p *pairState, oldIdx int, oldNode topology.NodeID) bool {
	newNode := p.joinNode()
	tuples, bytes := e.stateAt(oldNode).SnapshotAppend(e.tupleBuf[:0], p.s, p.t)
	e.tupleBuf = tuples
	var path routing.Path
	switch {
	case oldIdx < 0: // base -> in-network
		e.route = e.route.ReverseOf(e.cfg.Sub.PathToBase(newNode))
		path = e.route
	case p.jIdx < 0: // in-network -> base
		path = e.cfg.Sub.PathToBase(oldNode)
	default: // along the pair path
		lo, hi := oldIdx, p.jIdx
		if lo > hi {
			e.route = e.route.ReverseOf(p.path[hi : lo+1])
			path = e.route
		} else {
			path = routing.Path(p.path[lo : hi+1])
		}
	}
	delivered := true
	if bytes > 0 {
		delivered, _ = e.cfg.Net.Transfer(path, bytes, sim.Migration, sim.Flow{})
		if !delivered && e.cfg.Net.PathCut(path) {
			// The charged transfer path is partitioned mid-epoch: the
			// snapshot cannot reach the target, and installing the pair
			// there would leave a half-transferred window.
			e.abortToBase(p, oldIdx)
			return false
		}
	}
	newIdx := p.jIdx
	p.jIdx = oldIdx
	e.unregisterPair(p)
	p.jIdx = newIdx
	newState := e.stateAt(newNode)
	skipS := newState.WindowLen(p.s) > 0
	skipT := newState.WindowLen(p.t) > 0
	p.sSlot, p.tSlot = newState.AddPair(p.s, p.t)
	if delivered {
		keep := tuples[:0]
		for _, tp := range tuples {
			if (tp.Producer == p.s && skipS) || (tp.Producer == p.t && skipT) {
				continue
			}
			keep = append(keep, tp)
		}
		newState.Restore(keep)
	}
	e.res.Migrations++
	e.rebuildPairTrees(p)
	return true
}
