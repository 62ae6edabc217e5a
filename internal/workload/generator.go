package workload

import (
	"math"

	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/topology"
)

// Rates bundles the three selectivities of the cost model (Appendix D):
// SigmaS and SigmaT are the probabilities that an eligible s / t node sends
// a reading in a given sampling cycle; SigmaST is the probability that a
// pair of sent readings satisfies the dynamic join predicate.
type Rates struct {
	SigmaS, SigmaT, SigmaST float64
}

// DefaultRates is what a query submitted without rates runs at: the paper's
// 1/2:1/2 stage with sigma_st = 10%.
var DefaultRates = Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1}

// RatioStages are the five relative selectivity stages every bar-group
// figure sweeps: 1/10:1, 1/6:1/2, 1/2:1/2, 1/2:1/6, 1:1/10.
var RatioStages = []struct {
	Name string
	S, T float64
}{
	{"1/10:1", 1.0 / 10, 1},
	{"1/6:1/2", 1.0 / 6, 1.0 / 2},
	{"1/2:1/2", 1.0 / 2, 1.0 / 2},
	{"1/2:1/6", 1.0 / 2, 1.0 / 6},
	{"1:1/10", 1, 1.0 / 10},
}

// JoinSelectivities are the sigma_st values swept within each stage.
var JoinSelectivities = []float64{0.20, 0.10, 0.05}

// uDomain returns the size of u's uniform domain for a join selectivity:
// u ~ U[0, ceil(1/sigma_st)) makes Prob[u1 = u2] = sigma_st for integer
// 1/sigma_st (Table 1's construction).
func uDomain(sigmaST float64) int {
	if sigmaST <= 0 {
		return math.MaxInt32 // joins never match
	}
	if sigmaST >= 1 {
		return 1
	}
	return int(math.Ceil(1 / sigmaST))
}

// Generator produces each producer's per-cycle reading and send decision.
// It supports the adaptivity experiments' two skew modes (section 6.1):
// per-node rate overrides (spatial skew) and a mid-run switch of all rates
// (temporal change).
type Generator struct {
	defaults Rates
	perNode  map[topology.NodeID]Rates
	// switchCycle, when >= 0, swaps in switched (globally) from that
	// sampling cycle on.
	switchCycle int
	switched    Rates
	src         *rng.Source
}

// NewGenerator returns a generator with uniform rates, seeded for exact
// reproducibility.
func NewGenerator(defaults Rates, seed uint64) *Generator {
	return &Generator{
		defaults:    defaults,
		perNode:     map[topology.NodeID]Rates{},
		switchCycle: -1,
		src:         rng.New(seed).Split(0xDA7A),
	}
}

// SetNodeRates overrides the rates for one node (spatial skew, Fig 12a).
func (g *Generator) SetNodeRates(id topology.NodeID, r Rates) { g.perNode[id] = r }

// SetSwitch changes all rates to r from sampling cycle c (temporal change,
// Fig 12b). Per-node overrides are ignored after the switch.
func (g *Generator) SetSwitch(c int, r Rates) {
	g.switchCycle = c
	g.switched = r
}

// RatesAt returns the rates governing node id at cycle.
func (g *Generator) RatesAt(id topology.NodeID, cycle int) Rates {
	if g.switchCycle >= 0 && cycle >= g.switchCycle {
		return g.switched
	}
	if r, ok := g.perNode[id]; ok {
		return r
	}
	return g.defaults
}

// Sample returns node id's reading for the cycle and whether the node's
// dynamic selection admits it (i.e. whether it sends). role selects the
// sigma_s or sigma_t rate. Draws are a pure function of (seed, id, cycle,
// role) so algorithms compared on the same seed see identical data.
func (g *Generator) Sample(id topology.NodeID, role query.Rel, cycle int) (value int32, send bool) {
	r := g.RatesAt(id, cycle)
	stream := g.src.Split(uint64(id)<<20 ^ uint64(cycle)<<1 ^ uint64(role))
	value = int32(stream.Intn(uDomain(r.SigmaST)))
	p := r.SigmaS
	if role == query.T {
		p = r.SigmaT
	}
	return value, stream.Bool(p)
}
