// Package sim is the network simulator substrate that replaces TOSSIM in
// this reproduction. Every figure in the paper measures bytes (or, for mesh
// networks, messages) transmitted per node and end-to-end delay in sampling
// cycles, so the simulator is a hop-accurate byte-accounting engine rather
// than a radio-bit-level one: a message sent along a multi-hop path charges
// each traversed link, per-hop losses trigger bounded retransmissions (each
// attempt charged), and all traffic is attributed to the transmitting node,
// with the base station's send+receive load tracked separately.
//
// Determinism: the loss process draws from a dedicated rng stream, and all
// iteration is in node-ID order, so a run is a pure function of
// (topology, workload seed, loss seed).
package sim

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/topology"
)

// Wire-format modelling constants. TOSSIM's TinyOS packets carry an ~8-byte
// active-message header; attribute values are 16-bit integers (section 4);
// path-vector entries are delta-encoded to about a byte per hop (section
// 3.1). These constants are the only place byte sizes are defined.
const (
	// HeaderBytes is charged per transmission attempt on every hop.
	HeaderBytes = 8
	// ValueBytes is the size of one 16-bit attribute value.
	ValueBytes = 2
	// PathEntryBytes is the delta-encoded size of one path-vector hop.
	PathEntryBytes = 1
	// TupleBytes is a minimal data tuple: node id + one value + sequence.
	TupleBytes = 3 * ValueBytes
	// ResultBytes is a join result: both producer ids and both values.
	ResultBytes = 2 * TupleBytes
)

// MsgKind classifies traffic so metrics can be broken down by phase.
type MsgKind uint8

const (
	// Control covers initiation/optimization traffic (exploration,
	// nominations, group coordination, multicast-tree updates).
	Control MsgKind = iota
	// Data covers producer tuples flowing to join nodes.
	Data
	// Result covers join outputs flowing to the base station.
	Result
	// Migration covers section-6 adaptivity traffic: window snapshots in
	// flight to a re-placed join node plus the accompanying nomination
	// handoffs. Observability folds this class into the control gauge
	// (sim.bytes.control) — it is control-plane traffic — but keeping a
	// distinct ledger class lets tests assert migrations are charged
	// exactly once.
	Migration
)

// String returns the metric label for the kind.
func (k MsgKind) String() string {
	switch k {
	case Control:
		return "control"
	case Data:
		return "data"
	case Result:
		return "result"
	case Migration:
		return "migration"
	default:
		return fmt.Sprintf("MsgKind(%d)", uint8(k))
	}
}

// Metrics accumulates everything the paper's figures report.
type Metrics struct {
	// TotalBytes is the sum of bytes transmitted over all links, including
	// retransmissions (the "Total traffic" axis of Figs 2, 3, 9-13).
	TotalBytes int64
	// TotalMessages counts transmission attempts (the mesh-network metric
	// of Figs 19-20, where header overhead dominates byte size).
	TotalMessages int64
	// BaseBytes is bytes sent or received by the base station ("Traffic at
	// the Base station", Figs 2b, 3b, 6a, 13).
	BaseBytes int64
	// BaseMessages is the message-count analogue of BaseBytes.
	BaseMessages int64
	// NodeBytes[i] is bytes transmitted by node i (Fig 5's load
	// distribution and Fig 13's "max traffic by any node").
	NodeBytes []int64
	// ByKind breaks TotalBytes down by traffic class.
	ByKind [4]int64
	// Drops counts messages abandoned after exhausting retransmissions.
	Drops int64
	// Retransmissions counts extra attempts beyond the first, per hop.
	Retransmissions int64
	// QueueDrops counts messages lost to per-cycle relay-queue overflow
	// (only with Network.QueueLimit set).
	QueueDrops int64
	// Attempted counts Transfer calls that entered the charging loop (a
	// live sender with a multi-hop path). Together with Delivered it pins
	// the end-to-end accounting identity
	//   Attempted == Delivered + Drops + QueueDrops
	// which the fault-injection property tests assert under every plan.
	Attempted int64
	// Delivered counts Transfer calls that reached the end of the path.
	Delivered int64
	// CutDrops counts transfers abandoned at a fault-injected cut link (a
	// link taken down by the fault plan or severed by a partition). Every
	// CutDrop is also a Drop; the separate counter is what feeds the
	// faults.injected_drops gauge.
	CutDrops int64
	// Duplicates counts fault-injected duplicate deliveries: the receiver
	// acked but the ack was lost, so the sender transmitted one extra
	// (charged) copy the receiver must deduplicate.
	Duplicates int64
	// DelaySlots accumulates fault-injected bounded delay, in transmission
	// slots, over all delivered hops. Delay is observational: it charges
	// nothing and reorders nothing, it measures how late traffic would be.
	DelaySlots int64
}

// KindBytes returns the bytes charged to one traffic class — the
// per-class accessor the engine's observability sampling reads at the
// epoch barrier (out-of-range kinds read as 0).
func (m *Metrics) KindBytes(k MsgKind) int64 {
	if int(k) >= len(m.ByKind) {
		return 0
	}
	return m.ByKind[k]
}

// MaxNodeBytes returns the heaviest per-node transmit load.
func (m *Metrics) MaxNodeBytes() int64 {
	var max int64
	for _, b := range m.NodeBytes {
		if b > max {
			max = b
		}
	}
	return max
}

// TopLoads returns the k largest per-node byte loads in descending order
// (Fig 5 plots the 15 most-loaded nodes). One pass keeps the k largest so
// far sorted, so it allocates k entries, not a copy of the column.
func (m *Metrics) TopLoads(k int) []int64 {
	top := make([]int64, 0, min(k, len(m.NodeBytes)))
	for _, b := range m.NodeBytes {
		if len(top) == cap(top) {
			if len(top) == 0 || b <= top[len(top)-1] {
				continue
			}
			top = top[:len(top)-1]
		}
		i := len(top)
		top = append(top, b)
		for ; i > 0 && top[i-1] < b; i-- {
			top[i] = top[i-1]
		}
		top[i] = b
	}
	return top
}

// Flow identifies a data stream: the producer it originates at, the join
// node it targets, and the path vector in use. Transfer ignores it; the
// parameter stays because the repository benchmark's API surface pins
// Transfer's signature.
type Flow struct {
	Src  topology.NodeID
	Dst  topology.NodeID
	Path []topology.NodeID
}

// Network is the simulation substrate: a topology plus loss model, failure
// state and traffic metrics.
type Network struct {
	Topo *topology.Topology
	// LossProb is the per-hop packet loss probability. Mote experiments
	// use 5% (TOSSIM's lossy radio); mesh experiments use 0 and count
	// messages instead.
	LossProb float64
	// MaxRetries bounds retransmission attempts per hop after the first,
	// for every traffic class: the one retry knob (the paper's mote setting
	// is 3, NewSharedNetwork's default). A negative bound reads as 0 — one
	// attempt per hop, no retransmissions.
	MaxRetries int

	// QueueLimit, when positive, bounds how many messages a node can
	// relay per sampling cycle (its radio/forwarding queue). Messages
	// beyond the limit are dropped at that hop — the failure mode that
	// prevented Yang+07 from completing runs in the paper ("its routing
	// queues overflow almost immediately"). Zero disables the model.
	QueueLimit int

	metrics Metrics
	// loss is held by value, inside the Network, and never as a separate
	// 8-byte heap object: the allocator packs such tiny objects side by
	// side, so the loss states of queries submitted one after another
	// would share a cache line, and the engine's workers, each drawing
	// from its own query's stream, would write that line concurrently.
	loss rng.Source
	live *topology.Liveness
	// cycleLoad[i] counts the messages node i relayed this cycle; made on
	// the first transfer under a QueueLimit, nil while the model is off.
	cycleLoad []int
	// faults is the installed fault injector (nil = fault-free). Transfer
	// consults it once per hop, by link id when the caller holds the ids;
	// a zero LinkState must leave the hop's charge and loss-draw sequence
	// byte-identical to no injector at all.
	faults FaultInjector
	// begunCycle is the last cycle BeginCycle reset the relay queues for,
	// so steppers sharing one network cannot double-reset within a cycle.
	begunCycle int
}

// NewNetwork returns a network over topo with the given loss model and a
// private liveness view. lossSeed feeds the loss process only, keeping it
// independent of workload randomness.
func NewNetwork(topo *topology.Topology, lossProb float64, lossSeed uint64) *Network {
	return NewSharedNetwork(topo, lossProb, lossSeed, topology.NewLiveness(topo.N()))
}

// NewSharedNetwork returns a network whose failure state is the given
// liveness view. Several networks over one deployment (the engine's shared
// infrastructure stream plus every per-query stream) share one view, so a
// node failing is dead for all of them simultaneously; each network keeps
// its own metrics and loss stream.
func NewSharedNetwork(topo *topology.Topology, lossProb float64, lossSeed uint64, live *topology.Liveness) *Network {
	return &Network{
		Topo:       topo,
		LossProb:   lossProb,
		MaxRetries: 3,
		loss:       *rng.New(lossSeed).Split(0xC0FFEE),
		live:       live,
		begunCycle: -1,
		metrics:    Metrics{NodeBytes: make([]int64, topo.N())},
	}
}

// Liveness returns the network's failure view (shared when the network
// was built with NewSharedNetwork).
func (n *Network) Liveness() *topology.Liveness { return n.live }

// BeginCycle resets the per-cycle relay queues for the given sampling
// cycle. Engines call it at the start of every cycle; it is a no-op when
// QueueLimit is off, and idempotent within a cycle — repeated calls with
// the same cycle number (steppers sharing one network each announcing the
// cycle) reset nothing, so mid-cycle relay budgets survive.
func (n *Network) BeginCycle(cycle int) {
	if n.QueueLimit <= 0 || cycle == n.begunCycle {
		return
	}
	n.begunCycle = cycle
	clear(n.cycleLoad)
}

// QueueDrops counts messages lost to relay-queue overflow.
func (n *Network) QueueDrops() int64 { return n.metrics.QueueDrops }

// Metrics returns the accumulated metrics. The pointer stays valid for the
// network's lifetime; callers snapshot by dereferencing.
func (n *Network) Metrics() *Metrics { return &n.metrics }

// Fail marks a node as failed (section 7) in the network's liveness view:
// with a shared view the failure is visible to every network over the
// deployment. Transfers through or to it abort at the hop preceding it.
func (n *Network) Fail(id topology.NodeID) { n.live.Fail(id) }

// Revive clears the failure mark.
func (n *Network) Revive(id topology.NodeID) { n.live.Revive(id) }

// Alive reports whether id has not failed.
func (n *Network) Alive(id topology.NodeID) bool { return n.live.Alive(id) }

// chargeHopN is the one place traffic is accounted: `attempts` transmission
// attempts of size bytes on the hop from -> to and the attempts-1
// retransmissions among them, in one batched metrics update — the
// retransmission loop in Transfer touches each metric once per hop instead
// of once per attempt.
func (n *Network) chargeHopN(from, to topology.NodeID, bytes int, kind MsgKind, attempts int) {
	m := &n.metrics
	total := int64(bytes) * int64(attempts)
	m.TotalBytes += total
	m.TotalMessages += int64(attempts)
	m.NodeBytes[from] += total
	m.ByKind[kind] += total
	if from == topology.Base || to == topology.Base {
		m.BaseBytes += total
		m.BaseMessages += int64(attempts)
	}
	m.Retransmissions += int64(attempts - 1)
}

// Transfer sends payloadBytes along path (path[0] is the sender; each
// consecutive pair must be a radio link). Every hop is charged
// HeaderBytes+payloadBytes per attempt; a lost attempt is retried up to
// MaxRetries times. It returns whether the message reached the end of the
// path and the number of hops traversed (delivered or not).
//
// Failure semantics (section 7) are uniform at every hop: a failed node
// never transmits, so a path whose sender has already failed aborts before
// any charge; a transmission INTO a failed node is charged in full — the
// live sender burns 1+MaxRetries attempts waiting for an ack that never
// comes — but the message is not forwarded, so no hop beyond a failed node
// is ever reached (which is why only path[0] needs the sender check).
//
// flow is unused; pass Flow{}.
//
//aspen:allocfree
func (n *Network) Transfer(path []topology.NodeID, payloadBytes int, kind MsgKind, flow Flow) (delivered bool, hops int) {
	return n.send(path, nil, nil, 0, payloadBytes, kind)
}

// TransferLinks is Transfer over a path whose hops' link ids the caller
// holds: links[i] is the injector's HopLink for path[i] -> path[i+1]
// (AppendLinks), so each hop reads its fault state by id instead of finding
// its link. A nil links finds each hop's link, as Transfer does; without an
// injector links is not read. Charges and loss draws are Transfer's.
//
//aspen:allocfree
func (n *Network) TransferLinks(path []topology.NodeID, links []int32, payloadBytes int, kind MsgKind) (delivered bool, hops int) {
	return n.send(path, links, nil, 0, payloadBytes, kind)
}

// TransferUp is TransferLinks over the parent chain from `from` to its end
// (a routing tree's path to its root, read off parent, -1 at a chain's
// end), with no path written: a mote knows its parent, not its route.
// up[id] is the link id of id's hop to parent[id]; a nil up finds each
// hop's link. Charges and loss draws are those of TransferLinks over the
// chain's path with those ids.
//
//aspen:allocfree
func (n *Network) TransferUp(parent []topology.NodeID, up []int32, from topology.NodeID, payloadBytes int, kind MsgKind) (delivered bool, hops int) {
	return n.send(nil, up, parent, from, payloadBytes, kind)
}

// send is the one hop loop. It walks path when parent is nil, with the
// hop from path[i] reading its link id at links[i]; otherwise it walks the
// parent chain from `from`, with the hop from id reading links[id]: the
// chain is walked as it is sent, and never stored.
//
//aspen:allocfree
func (n *Network) send(path []topology.NodeID, links []int32, parent []topology.NodeID, from topology.NodeID, payloadBytes int, kind MsgKind) (delivered bool, hops int) {
	if parent == nil {
		if len(path) < 2 {
			return true, 0
		}
		from = path[0]
	} else if parent[from] < 0 {
		return true, 0
	}
	if !n.live.Alive(from) {
		return false, 0
	}
	retries := max(n.MaxRetries, 0)
	n.metrics.Attempted++
	size := HeaderBytes + payloadBytes
	if n.QueueLimit > 0 && n.cycleLoad == nil {
		n.cycleLoad = make([]int, n.Topo.N()) //aspen:alloc the relay queues, on the first transfer under a QueueLimit
	}
	for i := 0; ; i++ {
		var to topology.NodeID
		if parent != nil {
			if to = parent[from]; to < 0 {
				break
			}
		} else if i+1 < len(path) {
			to = path[i+1]
		} else {
			break
		}
		if n.QueueLimit > 0 {
			// The sender must enqueue the message for forwarding; a full
			// queue silently drops it (no transmission happens).
			n.cycleLoad[from]++
			if n.cycleLoad[from] > n.QueueLimit {
				n.metrics.QueueDrops++
				return false, i
			}
		}
		if !n.live.Alive(to) {
			// Charged but not forwarded: the sender transmits, gets no
			// ack after all retries, and aborts.
			n.chargeHopN(from, to, size, kind, 1+retries)
			n.metrics.Drops++
			return false, i
		}
		var fs LinkState
		if n.faults != nil {
			if link := i; links != nil {
				if parent != nil {
					link = int(from)
				}
				fs = n.faults.LinkAt(from, to, links[link])
			} else {
				fs = n.faults.Link(from, to)
			}
		}
		if fs.Cut {
			// A cut link behaves like a dead receiver: the sender cannot
			// know the link (rather than the node) is gone, so it burns
			// the full retry budget before giving up.
			n.chargeHopN(from, to, size, kind, 1+retries)
			n.metrics.Drops++
			n.metrics.CutDrops++
			return false, i
		}
		// Draw the loss process exactly as before (one draw per attempt,
		// stopping at the first success), then account all attempts in one
		// batched update. A fault-injected per-link loss boost composes
		// with the ambient loss as independent loss events.
		p := n.LossProb
		if fs.ExtraLoss > 0 {
			p += fs.ExtraLoss * (1 - p)
		}
		ok := false
		attempts := 0
		for attempt := 0; attempt <= retries; attempt++ {
			attempts++
			if !n.loss.Bool(p) {
				ok = true
				break
			}
		}
		n.chargeHopN(from, to, size, kind, attempts)
		if !ok {
			n.metrics.Drops++
			return false, i + 1
		}
		if n.faults != nil {
			// Only an injector duplicates or delays: a fault-free hop skips
			// both, so the loop holds no injected state for it.
			if fs.DupProb > 0 && n.loss.Bool(fs.DupProb) {
				// Duplicate delivery: the data arrived but the ack was
				// lost, so the sender transmits one extra charged copy the
				// receiver must deduplicate.
				n.chargeHopN(from, to, size, kind, 1)
				n.metrics.Duplicates++
			}
			n.metrics.DelaySlots += int64(fs.DelaySlots)
		}
		from, hops = to, i+1
	}
	n.metrics.Delivered++
	return true, hops
}

// Broadcast charges one local broadcast of payloadBytes from id (tree
// construction beacons, query dissemination floods).
func (n *Network) Broadcast(id topology.NodeID, payloadBytes int, kind MsgKind) {
	if !n.live.Alive(id) {
		return
	}
	n.chargeHopN(id, id, HeaderBytes+payloadBytes, kind, 1)
}
