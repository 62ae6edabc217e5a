package routing

import (
	"slices"

	"repro/internal/sim"
	"repro/internal/topology"
)

// DefaultRepairLimit bounds the limited-exploration repair to a small
// neighbourhood, per [11]: repair is local or it is abandoned in favour of
// falling back to the base station (section 7).
const DefaultRepairLimit = 3

// LinkCheck reports whether the directed hop from -> to is usable. The
// fault-injection layer supplies one (faults.Plan.LinkUsable) so repair can
// route around cut links and partition edges, which are invisible to node
// liveness; nil means every link between live nodes is usable.
type LinkCheck func(from, to topology.NodeID) bool

// repairWith is Repairer.Repair's loop, the limited-exploration repair of
// section 7: it splices detours (from the given finder) around every failed
// node — and, with a LinkCheck, around every cut link — until the path is
// clean or some gap is unbridgeable. A dead node is bridged pred..succ around the node; a
// cut link is bridged between its own endpoints, which both stay on the
// path. Every splice is written into buf's storage, growing it only when
// short, and the result aliases it: the caller copies out a path it keeps.
// The returned path carries buf's grown storage even when ok is false.
//
//aspen:allocfree
func repairWith(buf Path, net *sim.Network, links LinkCheck, path Path, detour func(pred, succ topology.NodeID) (Path, bool)) (Path, bool) {
	out := append(buf[:0], path...)
	for {
		nodeIdx, linkIdx := -1, -1
		for idx, id := range out {
			if !net.Alive(id) {
				nodeIdx = idx
				break
			}
			if links != nil && idx+1 < len(out) && !links(id, out[idx+1]) {
				linkIdx = idx
				break
			}
		}
		// spliceAt is the first index the detour replaces; tail resumes the
		// original path after the bridged segment (pred, gap, succ).
		var pred, succ topology.NodeID
		var spliceAt, tail int
		switch {
		case nodeIdx == -1 && linkIdx == -1:
			return out, true
		case nodeIdx >= 0:
			if nodeIdx == 0 || nodeIdx == len(out)-1 {
				return out, false // endpoint failed; cannot repair
			}
			pred, succ = out[nodeIdx-1], out[nodeIdx+1]
			spliceAt, tail = nodeIdx-1, nodeIdx+2
		default:
			pred, succ = out[linkIdx], out[linkIdx+1]
			spliceAt, tail = linkIdx, linkIdx+2
		}
		d, ok := detour(pred, succ)
		if !ok {
			return out, false
		}
		out = dedupeLoops(slices.Replace(out, spliceAt, tail, d...)) //aspen:alloc growth of a short buf
	}
}

// boundedDetour BFS-searches from pred for succ within limit hops, charging
// one probe per explored edge — including probes toward failed neighbours
// and across cut links, which are transmitted and simply never acked
// (section 7: the explorer only learns a neighbour is gone by paying for
// the probe). Failed nodes and unusable links are never traversed. Ties
// break toward lower node IDs for determinism.
func boundedDetour(topo *topology.Topology, net *sim.Network, links LinkCheck, pred, succ topology.NodeID, limit int) (Path, bool) {
	type state struct {
		id   topology.NodeID
		hops int
	}
	parent := map[topology.NodeID]topology.NodeID{pred: -1}
	queue := []state{{pred, 0}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.hops == limit {
			continue
		}
		for _, nb := range topo.Neighbors(cur.id) {
			if _, seen := parent[nb]; seen {
				continue
			}
			// One probe transmission per explored edge; a probe into a
			// failed node is charged (1+MaxRetries unacked attempts, see
			// sim.Transfer) but yields no frontier to expand.
			net.Transfer(Path{cur.id, nb}, probeKeyBytes, sim.Control, sim.Flow{})
			if !net.Alive(nb) {
				continue
			}
			if links != nil && !links(cur.id, nb) {
				continue
			}
			parent[nb] = cur.id
			if nb == succ {
				var detour Path
				for at := succ; at != -1; at = parent[at] {
					detour = append(detour, at)
				}
				slices.Reverse(detour)
				return detour, true
			}
			queue = append(queue, state{nb, cur.hops + 1})
		}
	}
	return nil, false
}

// detourKey identifies one broken gap a detour bridges.
type detourKey struct{ pred, succ topology.NodeID }

// Repairer memoizes bounded-detour searches so a deployment-wide recovery
// pass (internal/engine) explores each broken link neighbourhood once no
// matter how many query paths route through it: the first repair of a
// (pred, succ) gap charges the exploration probes to the Repairer's
// network — the engine points it at the SHARED metrics stream — and later
// paths broken at the same gap reuse the detour for free. Repaired paths
// are identical to a fresh Repairer's with the same limit; only the
// duplicate probe traffic is deduplicated. A Repairer's memos are made for
// one liveness state: Reset it after further failures or revivals to get
// a fresh Repairer's paths and charges. A memoized detour that has since
// lost a node or a link is never spliced: the gap is searched again. Each
// gap's preceding live node searches its bounded
// neighbourhood (at most limit hops, avoiding failed nodes) for a detour to
// the following live node; failure of an endpoint is never repairable.
type Repairer struct {
	topo    *topology.Topology
	net     *sim.Network
	limit   int
	links   LinkCheck
	detours map[detourKey]Path // nil entry = known-unbridgeable gap
	// buf is the splices' scratch, kept grown across repairs.
	buf Path
}

// NewRepairer returns a Repairer charging exploration to net (limit <= 0
// uses DefaultRepairLimit).
func NewRepairer(topo *topology.Topology, net *sim.Network, limit int) *Repairer {
	if limit <= 0 {
		limit = DefaultRepairLimit
	}
	return &Repairer{topo: topo, net: net, limit: limit, detours: map[detourKey]Path{}}
}

// SetLinkCheck makes the repairer link-aware: repairs detour around hops
// the check rejects as well as around dead nodes. Installing a check drops
// the memoized detours — they were computed for a different link state.
func (r *Repairer) SetLinkCheck(lc LinkCheck) {
	r.links = lc
	r.Reset()
}

// Repair runs the section 7 limited-exploration repair of path, reusing
// memoized detours. It returns the repaired path, a new slice the caller
// keeps, and whether it succeeded.
func (r *Repairer) Repair(path Path) (Path, bool) {
	out, ok := repairWith(r.buf, r.net, r.links, path, func(pred, succ topology.NodeID) (Path, bool) {
		key := detourKey{pred, succ}
		if d, seen := r.detours[key]; seen && r.usable(d) {
			return d, d != nil
		}
		d, ok := boundedDetour(r.topo, r.net, r.links, pred, succ, r.limit)
		if !ok {
			d = nil
		}
		r.detours[key] = d
		return d, ok
	})
	r.buf = out
	if !ok {
		return nil, false
	}
	return out.Clone(), true
}

// Reset drops the memoized detours; call it when liveness changes again.
func (r *Repairer) Reset() { clear(r.detours) }

// usable reports whether memoized detour d can still be spliced: every
// node alive and, with a link check, every hop usable. A nil memo, an
// unbridgeable gap, is kept as it is.
func (r *Repairer) usable(d Path) bool {
	for i, id := range d {
		if !r.net.Alive(id) || r.links != nil && i+1 < len(d) && !r.links(id, d[i+1]) {
			return false
		}
	}
	return true
}

// Shortcut compresses a discovered path by skipping ahead whenever a later
// path node is a direct radio neighbour of an earlier one. The multi-tree
// substrate applies this as the response path vector travels back to the
// initiator: every node on the path knows its one-hop neighbourhood, so a
// detour through the tree structure that re-enters the neighbourhood is
// cut out. The result is link-valid, loop-free, and never longer.
//
// Each kept node jumps to the farthest later path node among its
// neighbours, which one look at its neighbour list finds: last, the
// caller's scratch of one entry per node, all zero (Substrate.Borrow
// lends one), holds 1 + each path node's last index while Shortcut runs,
// and is all zero again when it returns. A path of L nodes costs O(L·deg),
// and one allocation of L entries: a discovered path rarely compresses
// much.
func Shortcut(topo *topology.Topology, p Path, last []int32) Path {
	if len(p) < 3 {
		return p.Clone()
	}
	for i, id := range p {
		last[id] = int32(i) + 1
	}
	out := append(make(Path, 0, len(p)), p[0])
	for i := 0; i < len(p)-1; {
		next := i + 1
		for _, nb := range topo.Neighbors(p[i]) {
			next = max(next, int(last[nb])-1)
		}
		out = append(out, p[next])
		i = next
	}
	for _, id := range p {
		last[id] = 0
	}
	return out
}

// dedupeLoops removes any cycle introduced by splicing a detour that
// rejoins the original path early: if a node appears twice, the segment
// between occurrences is cut. It works in place — every kept node moves to
// an index at or below its own, and the scan for a node's last occurrence
// only reads past it — and returns p shortened.
//
//aspen:allocfree
func dedupeLoops(p Path) Path {
	w := 0
	for i := 0; i < len(p); i++ {
		id := p[i]
		for j := len(p) - 1; j > i; j-- {
			if p[j] == id {
				i = j // skip ahead to the final occurrence
				break
			}
		}
		p[w] = id
		w++
	}
	return p[:w]
}
