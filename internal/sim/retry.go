package sim

import "repro/internal/topology"

// RetryPolicy is the configurable replacement for the historical hardcoded
// retry constant. MaxRetries is the default per-hop bound (the paper's mote
// experiments use 3); PerKind lets one traffic class retry harder or softer
// than the rest — control and migration traffic is small and load-bearing,
// so deployments typically retry it harder than bulk data; BackoffBytes is
// a linear backoff cost model: every retransmission beyond the first attempt
// charges this many extra bytes to the transmitting node (modelling the
// listen/backoff energy the radio spends between attempts) without counting
// as an extra message.
//
// Build policies from DefaultRetryPolicy and override fields: the zero
// value means "0 retries for every kind", which is expressible but almost
// never what a caller wants.
type RetryPolicy struct {
	// MaxRetries bounds retransmission attempts per hop after the first
	// for kinds without a PerKind override.
	MaxRetries int
	// PerKind overrides MaxRetries for one MsgKind; entries < 0 inherit
	// MaxRetries. Indexed by MsgKind (Control, Data, Result, Migration).
	PerKind [4]int
	// BackoffBytes is charged per retransmission (attempts beyond the
	// first) on top of the retransmitted frame itself.
	BackoffBytes int
}

// DefaultRetryPolicy returns the paper's policy: 3 retries for every kind,
// no backoff cost.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 3, PerKind: [4]int{-1, -1, -1, -1}}
}

// SetRetryPolicy installs p. The policy's MaxRetries replaces the network's
// public MaxRetries field, so the two stay one knob; PerKind overrides and
// the backoff cost only ever come from the policy.
func (n *Network) SetRetryPolicy(p RetryPolicy) {
	if p.MaxRetries < 0 {
		p.MaxRetries = 0
	}
	n.MaxRetries = p.MaxRetries
	n.retry = p
}

// Retry returns the installed policy with MaxRetries reflecting the
// network's current public field (which direct writers may have changed
// since SetRetryPolicy).
func (n *Network) Retry() RetryPolicy {
	p := n.retry
	p.MaxRetries = n.MaxRetries
	return p
}

// retriesFor resolves the per-hop retry bound for one traffic class: the
// PerKind override when set, the network's MaxRetries otherwise.
func (n *Network) retriesFor(kind MsgKind) int {
	if int(kind) < len(n.retry.PerKind) {
		if r := n.retry.PerKind[kind]; r >= 0 {
			return r
		}
	}
	return n.MaxRetries
}

// chargeBackoff accounts the backoff cost of `retries` retransmissions on
// the hop from -> to: bytes only, no message count — backoff is radio time,
// not frames. A no-op under the default policy, so accounting stays
// byte-identical to the pre-policy engine unless a backoff cost is set.
func (n *Network) chargeBackoff(from, to topology.NodeID, retries int, kind MsgKind) {
	if n.retry.BackoffBytes <= 0 {
		return
	}
	m := &n.metrics
	b := int64(n.retry.BackoffBytes) * int64(retries)
	m.TotalBytes += b
	m.NodeBytes[from] += b
	m.ByKind[kind] += b
	if from == topology.Base || to == topology.Base {
		m.BaseBytes += b
	}
}
