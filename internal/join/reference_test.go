package join

import (
	"maps"
	"slices"

	"repro/internal/query"
	"repro/internal/topology"
	"repro/internal/window"
	"repro/internal/workload"
)

// referenceJoin is the network-free ground truth of a lossless run of
// spec: a nested-loop join over the spec's pairs and sampler's readings
// for cycles sampling cycles, with no routes, sites or window.State. Each
// producer keeps a FIFO of its last w sent readings, one window for all
// its pairs. Every cycle, the producers in some pair take their turns in
// node order, as Naive's route table does: each samples one reading (as S
// when it is eligible as S, the one reading a node filling both roles
// sends), joins it against the window of every partner, and only then
// buffers it. It returns the matches as the recorder tallies them.
func referenceJoin(spec *workload.Spec, sampler workload.Sampler, cycles int) tally {
	var pairs [][2]topology.NodeID
	producers := map[topology.NodeID]bool{}
	for _, g := range spec.Groups() {
		for _, pr := range g.Pairs {
			if !slices.Contains(pairs, pr) {
				pairs = append(pairs, pr)
				producers[pr[0]], producers[pr[1]] = true, true
			}
		}
	}
	order := slices.Sorted(maps.Keys(producers))
	win := map[topology.NodeID][]window.Tuple{}
	var out tally
	var ms []window.Match
	for cycle := 0; cycle < cycles; cycle++ {
		for _, id := range order {
			role := query.S
			if !spec.EligibleS(id) {
				role = query.T
			}
			v, ok := sampler.Sample(id, role, cycle)
			if !ok {
				continue
			}
			ms = ms[:0]
			for _, pr := range pairs {
				if pr[0] == id {
					for _, old := range win[pr[1]] {
						if spec.DynJoin(v, old.Value) {
							ms = append(ms, window.Match{S: id, T: pr[1], SV: v, TV: old.Value, Cycle: cycle, OldCycle: old.Cycle})
						}
					}
				}
				if pr[1] == id {
					for _, old := range win[pr[0]] {
						if spec.DynJoin(old.Value, v) {
							ms = append(ms, window.Match{S: pr[0], T: id, SV: old.Value, TV: v, Cycle: cycle, OldCycle: old.Cycle})
						}
					}
				}
			}
			out.add(ms)
			if w := append(win[id], window.Tuple{Producer: id, Value: v, Cycle: cycle}); len(w) > spec.W {
				win[id] = w[1:]
			} else {
				win[id] = w
			}
		}
	}
	return out
}
