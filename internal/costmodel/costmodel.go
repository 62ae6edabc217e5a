// Package costmodel implements the paper's join cost model: the pairwise
// placement expression of section 3.1, the group-relative expression
// delta-C_p of section 5.2 and section 6's divergence trigger. Costs are
// expected tuple transmissions per sampling cycle; the optimizer only ever
// compares costs, so units cancel.
//
// Table 3's computation costs (Appendix D) are not expected values here.
// The simulator counts every byte, so internal/join's TestTable3Identity
// checks them exactly on realized sends: at loss 0 each algorithm's data
// bytes equal (header + tuple) times its sent tuples' hop terms (D_sr,
// D_sj/D_tj, routed or tree hops), and its result bytes equal the D_jr
// term plus one header per batch. The named departures (DESIGN.md, "Wire
// model") are result batch headers, a both-role node's one reading, no
// path vector on data tuples, Appendix E's merged packets, and
// retransmissions, excluded by running at loss 0.
package costmodel

// Params are the selectivity estimates the optimizer runs with. They may
// be wrong — the adaptivity experiments (section 6) deliberately feed
// incorrect values and learn the truth online.
type Params struct {
	// SigmaS, SigmaT are producer send rates per cycle.
	SigmaS, SigmaT float64
	// SigmaST is the pairwise join selectivity.
	SigmaST float64
	// W is the join window size.
	W int
}

// PairPlacement evaluates the section 3.1 expression for a join node j on
// the path between s and t:
//
//	sigma_s*D_sj + sigma_t*D_tj + (sigma_s+sigma_t)*w*sigma_st*D_jr
//
// dSJ and dTJ are j's hop distances to s and t along the path; dJR is j's
// hop distance to the base station.
func PairPlacement(p Params, dSJ, dTJ, dJR int) float64 {
	return p.SigmaS*float64(dSJ) +
		p.SigmaT*float64(dTJ) +
		(p.SigmaS+p.SigmaT)*float64(p.W)*p.SigmaST*float64(dJR)
}

// PairAtBase evaluates joining the (s,t) pair at the base station:
// sigma_s*D_sr + sigma_t*D_tr. (Result forwarding is free — results are
// already at the base.)
func PairAtBase(p Params, dSR, dTR int) float64 {
	return p.SigmaS*float64(dSR) + p.SigmaT*float64(dTR)
}

// Placement is the outcome of pairwise optimization for one (s,t) pair.
type Placement struct {
	// Index is the chosen join node's position on the path (0 = s itself,
	// len(path)-1 = t). AtBase overrides Index.
	Index int
	// AtBase is set when joining at the base station is cheapest.
	AtBase bool
	// Cost is the winning expected cost.
	Cost float64
}

// BestPlacement minimizes the section 3.1 expression over every candidate
// join node on the path (given each node's distance to the base in
// depthToBase) and the join-at-base alternative. pathLen is the number of
// nodes on the path; depthToBase[i] is node i's hop count to the root.
// Ties prefer the in-network placement closest to t (the nominating node),
// matching the paper's t-side nomination protocol.
func BestPlacement(p Params, depthToBase []int) Placement {
	n := len(depthToBase)
	if n == 0 {
		return Placement{AtBase: true}
	}
	best := Placement{Index: -1, Cost: 0}
	for i := 0; i < n; i++ {
		c := PairPlacement(p, i, n-1-i, depthToBase[i])
		if best.Index == -1 || c < best.Cost || (c == best.Cost && i > best.Index) {
			best = Placement{Index: i, Cost: c}
		}
	}
	baseCost := PairAtBase(p, depthToBase[0], depthToBase[n-1])
	if baseCost < best.Cost {
		return Placement{AtBase: true, Cost: baseCost}
	}
	return best
}

// GroupDelta evaluates delta-C_p of section 5.2 for one producer p in a
// join group: the cost difference between fully in-network computation and
// computation at the base,
//
//	delta-C_p = sigma_p * sum_j (D_pj + w*sigma_st*N_pj*D_jr) - sigma_p*D_pr
//
// joinNodes lists, per join node j handling p, the producer-to-j distance
// D_pj, j's pair count N_pj for this producer, and j's distance to the
// root D_jr.
type GroupJoinNode struct {
	DPJ, NPJ, DJR int
}

// GroupDelta returns delta-C_p. sigmaP is the producer's send rate; dPR its
// distance to the root.
func GroupDelta(sigmaP, sigmaST float64, w int, joinNodes []GroupJoinNode, dPR int) float64 {
	var sum float64
	for _, j := range joinNodes {
		sum += float64(j.DPJ) + float64(w)*sigmaST*float64(j.NPJ)*float64(j.DJR)
	}
	return sigmaP*sum - sigmaP*float64(dPR)
}

// Diverged reports whether a fresh estimate differs from the previous one
// by more than the adaptivity trigger ratio (section 6 uses 33%; the
// ablation bench varies it). A previous value of zero triggers whenever
// the new value is non-zero.
func Diverged(prev, now, ratio float64) bool {
	if prev == 0 {
		return now != 0
	}
	d := (now - prev) / prev
	if d < 0 {
		d = -d
	}
	return d > ratio
}
