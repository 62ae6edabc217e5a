// Package faults is the deterministic fault-injection layer for the
// simulator: a seeded plan of per-link loss boosts, transient link failures
// with revive epochs, scheduled bisecting/regional partitions, duplicate
// deliveries and bounded delay. A Plan implements sim.FaultInjector, so a
// sim.Network consults it on every hop; everything random about the plan is
// drawn from its own seeded rng streams when the plan is built (static
// per-link draws) or advanced (per-epoch link churn in BeginEpoch, called
// from the engine's sequential section) — the same discipline as the
// engine's SeededChurn — so Link is a pure read and a run is byte-identical
// for a fixed seed at any worker count.
//
// The layer composes with, and deliberately mirrors, the paper's section-7
// whole-node fault model: a cut link behaves at the hop like a dead
// receiver (the sender burns its full retry budget before giving up), but
// is invisible to liveness, so recovery has to be link-aware — the engine
// reroutes around cut links with the link-aware routing.Repairer and falls
// back to the base station when a partition isolates a join node.
package faults

import (
	"fmt"
	"sort"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// PartitionKind selects how a scheduled partition splits the deployment.
type PartitionKind uint8

const (
	// Bisect splits the deployment at the median x coordinate: every
	// radio link between the low-x half and the high-x half is cut while
	// the partition is active.
	Bisect PartitionKind = iota
	// Region isolates one row band of the deployment — the same 4x4-grid
	// row the workload generator assigns as rid — from the rest of the
	// network.
	Region
)

// Partition schedules one network partition: links crossing the split are
// cut for epochs From <= e < Until. Overlapping windows resolve to the
// first matching entry.
type Partition struct {
	From, Until int
	Kind        PartitionKind
	// Region is the row band (0-3) isolated when Kind == Region.
	Region int
}

// Config parameterizes a fault plan. The zero value injects nothing, and a
// plan built from it leaves every run byte-identical to a plan-free engine.
type Config struct {
	// Seed feeds the plan's private rng streams; independent of the
	// workload and loss seeds.
	Seed uint64
	// LinkLoss is the mean extra per-hop loss probability. Each link
	// draws its own boost in [0.5, 1.5) x LinkLoss at build time, so loss
	// is heterogeneous per link but fixed for the run.
	LinkLoss float64
	// LinkFailRate is the per-epoch probability that a healthy link goes
	// down (drawn in BeginEpoch, link order deterministic).
	LinkFailRate float64
	// LinkReviveAfter revives a failed link after this many epochs;
	// 0 means failed links stay down for the rest of the run.
	LinkReviveAfter int
	// DupProb is the per-hop duplicate-delivery probability.
	DupProb float64
	// DelayMax bounds per-link injected delay: each link draws a fixed
	// delay in [0, DelayMax] transmission slots at build time.
	DelayMax int
	// Partitions schedules network partitions.
	Partitions []Partition
}

// Validate reports the first out-of-range field: a probability outside
// [0, 1] (NaN included), a negative LinkReviveAfter or DelayMax, a Region
// partition naming a row band outside 0..3, or a partition window that is
// empty or starts before epoch 0. NewPlan does not check; callers taking
// configs from outside the program validate first.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"LinkLoss", c.LinkLoss}, {"LinkFailRate", c.LinkFailRate}, {"DupProb", c.DupProb}} {
		if !(p.v >= 0 && p.v <= 1) {
			return fmt.Errorf("faults: %s %v is not a probability in [0, 1]", p.name, p.v)
		}
	}
	if c.LinkReviveAfter < 0 {
		return fmt.Errorf("faults: LinkReviveAfter must be >= 0, got %d", c.LinkReviveAfter)
	}
	if c.DelayMax < 0 {
		return fmt.Errorf("faults: DelayMax must be >= 0, got %d", c.DelayMax)
	}
	for i, pt := range c.Partitions {
		switch {
		case pt.Kind != Bisect && pt.Kind != Region:
			return fmt.Errorf("faults: partition %d has unknown kind %d", i, pt.Kind)
		case pt.Kind == Region && (pt.Region < 0 || pt.Region > 3):
			return fmt.Errorf("faults: partition %d isolates region %d, want 0..3", i, pt.Region)
		case pt.From < 0 || pt.From >= pt.Until:
			return fmt.Errorf("faults: partition %d window %d..%d is empty or starts before epoch 0", i, pt.From, pt.Until)
		}
	}
	return nil
}

// linkFault is the mutable per-link fault state of one undirected link.
type linkFault struct {
	extraLoss float64
	delay     int
	down      bool
	// reviveAt is the epoch the link comes back up; 0 means permanent.
	reviveAt int
}

// Plan is a built fault plan over one deployment. BeginEpoch advances it
// (sequential sections only); Link and LinkAt are the concurrent-safe pure
// reads the networks consult per hop.
type Plan struct {
	topo  *topology.Topology
	cfg   Config
	churn *rng.Source

	// links holds one entry per undirected radio link in canonical build
	// order (lower endpoint ascending, then higher endpoint in neighbour
	// order) — the order every static draw and every BeginEpoch churn draw
	// is made in. Empty when the config has no per-link fault.
	links []linkFault
	// slot is the hop index over the topology's directed edges: the k-th
	// neighbour of node id is the link links[slot[topo.EdgeIndex(id)+k]],
	// so both directions of a link share one entry. Nil when links is
	// empty.
	slot []int32
	// downDeg[id] counts node id's links currently down from link churn, so
	// Cut can clear most hops without the neighbour scan. Nil unless the
	// config fails links.
	downDeg []int32

	// loX[i] reports node i on the low-x side of the bisect split.
	loX []bool
	// rid[i] is node i's 4x4-grid row band, for Region partitions.
	rid []int8

	// side is the active partition membership (hop cut iff sides differ);
	// nil when no partition is active. It aliases sideBuf, which is filled
	// only when the active Partitions entry changes.
	side    []int8
	sideBuf []int8

	epoch     int
	downLinks int
	partIdx   int // index+1 of the Partitions entry sideBuf holds, 0 = none
}

// NewPlan builds the plan for topo: all static per-link draws (loss boosts,
// delays) happen here, in canonical link order, from the config seed.
func NewPlan(topo *topology.Topology, cfg Config) *Plan {
	root := rng.New(cfg.Seed).Split(0xFA017)
	static := root.Split(1)
	p := &Plan{
		topo:  topo,
		cfg:   cfg,
		churn: root.Split(2),
		epoch: -1,
	}
	n := topo.N()
	if cfg.LinkLoss > 0 || cfg.LinkFailRate > 0 || cfg.DupProb > 0 || cfg.DelayMax > 0 {
		edges := topo.EdgeIndex(topology.NodeID(n))
		p.slot = make([]int32, edges)
		p.links = make([]linkFault, 0, edges/2)
		for id := 0; id < n; id++ {
			from := topology.NodeID(id)
			for k, nb := range topo.Neighbors(from) {
				if nb <= from {
					continue
				}
				var lf linkFault
				if cfg.LinkLoss > 0 {
					lf.extraLoss = cfg.LinkLoss * (0.5 + static.Float64())
					if lf.extraLoss > 1 {
						lf.extraLoss = 1
					}
				}
				if cfg.DelayMax > 0 {
					lf.delay = static.Intn(cfg.DelayMax + 1)
				}
				li := int32(len(p.links))
				p.links = append(p.links, lf)
				p.slot[topo.EdgeIndex(from)+k] = li
				// The reverse direction shares the entry: links are
				// symmetric, so from sits in nb's list too.
				for rk, back := range topo.Neighbors(nb) {
					if back == from {
						p.slot[topo.EdgeIndex(nb)+rk] = li
						break
					}
				}
			}
		}
	}
	if p.links != nil && cfg.LinkFailRate > 0 {
		p.downDeg = make([]int32, n)
	}
	for _, pt := range cfg.Partitions {
		switch pt.Kind {
		case Bisect:
			if p.loX == nil {
				p.loX = bisectSides(topo)
			}
		case Region:
			if p.rid == nil {
				p.rid = rowBands(topo)
			}
		}
	}
	return p
}

// bisectSides splits the deployment at the median x coordinate.
func bisectSides(topo *topology.Topology) []bool {
	n := topo.N()
	xs := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = topo.Pos(topology.NodeID(i)).X
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	median := sorted[n/2]
	lo := make([]bool, n)
	for i := 0; i < n; i++ {
		lo[i] = xs[i] < median
	}
	return lo
}

// rowBands assigns each node its 4x4-grid row (topology.Cell), the
// workload's rid attribute, so a Region partition isolates the same nodes
// a rid predicate selects.
func rowBands(topo *topology.Topology) []int8 {
	rid := make([]int8, topo.N())
	for i := range rid {
		_, r := topology.Cell(topo.Pos(topology.NodeID(i)))
		rid[i] = int8(r)
	}
	return rid
}

// BeginEpoch advances the plan to the given epoch: links revive and fail
// (seeded draws in canonical link order) and scheduled partitions activate
// or heal. Sequential sections only — the engine calls it once at the top
// of every epoch, before any worker steps.
func (p *Plan) BeginEpoch(epoch int) {
	p.epoch = epoch
	if p.downDeg != nil {
		// Walk the links in canonical order through the hop index, so each
		// link's endpoints are at hand for the down counts.
		for id := range p.topo.N() {
			from := topology.NodeID(id)
			for k, nb := range p.topo.Neighbors(from) {
				if nb <= from {
					continue
				}
				lf := &p.links[p.slot[p.topo.EdgeIndex(from)+k]]
				if lf.down {
					if lf.reviveAt > 0 && epoch >= lf.reviveAt {
						lf.down = false
						lf.reviveAt = 0
						p.downLinks--
						p.downDeg[from]--
						p.downDeg[nb]--
					}
					continue
				}
				if p.churn.Bool(p.cfg.LinkFailRate) {
					lf.down = true
					p.downLinks++
					p.downDeg[from]++
					p.downDeg[nb]++
					if p.cfg.LinkReviveAfter > 0 {
						lf.reviveAt = epoch + p.cfg.LinkReviveAfter
					}
				}
			}
		}
	}
	p.side = nil
	for i := range p.cfg.Partitions {
		pt := &p.cfg.Partitions[i]
		if epoch < pt.From || epoch >= pt.Until {
			continue
		}
		if p.partIdx != i+1 {
			p.partIdx = i + 1
			p.fillSide(pt)
		}
		p.side = p.sideBuf
		break
	}
}

// fillSide writes pt's membership into the plan's one side buffer.
func (p *Plan) fillSide(pt *Partition) {
	if p.sideBuf == nil {
		p.sideBuf = make([]int8, p.topo.N())
	}
	clear(p.sideBuf)
	switch pt.Kind {
	case Bisect:
		for id, lo := range p.loX {
			if lo {
				p.sideBuf[id] = 1
			}
		}
	case Region:
		for id, r := range p.rid {
			if int(r) == pt.Region {
				p.sideBuf[id] = 1
			}
		}
	}
}

// Link implements sim.FaultInjector: the current fault verdict for one
// directed hop, LinkAt on the hop's HopLink. Pure read, safe for concurrent
// use between BeginEpoch calls. A hop between nodes that share no radio
// link has no entry and gets the zero LinkState (partition cuts aside).
//
//aspen:allocfree
func (p *Plan) Link(from, to topology.NodeID) sim.LinkState {
	return p.LinkAt(from, to, p.HopLink(from, to))
}

// HopLink implements sim.FaultInjector: the index of the radio link between
// from and to, the same for both directions, or -1 when they share none
// (or the plan keeps no per-link state). It is the plan's one neighbour
// scan; ids depend on the topology alone, so a caller may keep them for as
// long as it keeps the hop.
//
//aspen:allocfree
func (p *Plan) HopLink(from, to topology.NodeID) int32 {
	if p.links == nil {
		return -1
	}
	lo := p.topo.EdgeIndex(from)
	for k, nb := range p.topo.Neighbors(from) {
		if nb == to {
			return p.slot[lo+k]
		}
	}
	return -1
}

// LinkAt implements sim.FaultInjector: Link for a hop whose HopLink the
// caller already holds as id. The partition check reads the endpoints; the
// link's own state is read by id, with no scan.
//
//aspen:allocfree
func (p *Plan) LinkAt(from, to topology.NodeID, id int32) sim.LinkState {
	var st sim.LinkState
	if p.side != nil && p.side[from] != p.side[to] {
		st.Cut = true
		return st
	}
	if id < 0 {
		return st
	}
	lf := &p.links[id]
	if lf.down {
		st.Cut = true
		return st
	}
	st.ExtraLoss = lf.extraLoss
	st.DupProb = p.cfg.DupProb
	st.DelaySlots = lf.delay
	return st
}

// Cut implements sim.FaultInjector: Link(from, to).Cut, answered without
// the neighbour scan when either endpoint has no link down — the common
// case, since link churn cuts few links at a time.
//
//aspen:allocfree
func (p *Plan) Cut(from, to topology.NodeID) bool {
	if p.side != nil && p.side[from] != p.side[to] {
		return true
	}
	if p.downDeg == nil || p.downDeg[from] == 0 || p.downDeg[to] == 0 {
		return false
	}
	return p.Link(from, to).Cut
}

// LinkUsable is the routing predicate form of Cut: true when the hop is
// not cut. Handed to routing.Repairer so detours avoid down links and
// partition-crossing edges.
func (p *Plan) LinkUsable(from, to topology.NodeID) bool {
	return !p.Cut(from, to)
}

// AnyCut reports whether any link is currently cut — down by link churn or
// severed by an active partition. The engine runs its link-fault recovery
// sweep whenever this holds.
func (p *Plan) AnyCut() bool { return p.downLinks > 0 || p.side != nil }

// PartitionActive reports whether a scheduled partition is in force this
// epoch (feeds the faults.partition_epochs counter).
func (p *Plan) PartitionActive() bool { return p.side != nil }

// DownLinks returns the number of links currently down from link churn
// (partition cuts not included).
func (p *Plan) DownLinks() int { return p.downLinks }
