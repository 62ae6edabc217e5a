package costmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPairPlacementFormula(t *testing.T) {
	p := Params{SigmaS: 0.5, SigmaT: 0.1, SigmaST: 0.2, W: 3}
	// sigma_s*2 + sigma_t*3 + (sigma_s+sigma_t)*3*0.2*4
	want := 0.5*2 + 0.1*3 + (0.6)*3*0.2*4
	if got := PairPlacement(p, 2, 3, 4); math.Abs(got-want) > 1e-12 {
		t.Fatalf("PairPlacement = %v, want %v", got, want)
	}
}

func TestPairAtBaseFormula(t *testing.T) {
	p := Params{SigmaS: 0.5, SigmaT: 0.25}
	if got := PairAtBase(p, 4, 8); got != 0.5*4+0.25*8 {
		t.Fatalf("PairAtBase = %v", got)
	}
}

func TestBestPlacementSkewTowardQuietSide(t *testing.T) {
	// When sigma_s >> sigma_t, data flows mostly from s: the join node
	// should sit near s (index 0 side); and vice versa.
	depth := []int{5, 5, 5, 5, 5, 5, 5} // flat distance to base isolates the skew
	loud := BestPlacement(Params{SigmaS: 1, SigmaT: 0.1, SigmaST: 0, W: 3}, depth)
	quiet := BestPlacement(Params{SigmaS: 0.1, SigmaT: 1, SigmaST: 0, W: 3}, depth)
	if loud.AtBase || quiet.AtBase {
		t.Fatal("zero join selectivity should keep the join in-network")
	}
	if loud.Index >= quiet.Index {
		t.Fatalf("placement ignores selectivity skew: loud=%d quiet=%d", loud.Index, quiet.Index)
	}
	if loud.Index != 0 || quiet.Index != len(depth)-1 {
		t.Fatalf("extreme skew should pin to endpoints: %d, %d", loud.Index, quiet.Index)
	}
}

func TestBestPlacementPrefersBaseWhenResultsDominate(t *testing.T) {
	// High sigma_st and a path far from the base: forwarding results
	// dwarfs producer traffic, so join at the base.
	depth := []int{10, 11, 12, 11, 10}
	got := BestPlacement(Params{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 1, W: 5}, depth)
	if !got.AtBase {
		t.Fatalf("expected base join, got index %d", got.Index)
	}
}

func TestBestPlacementNeverWorseThanBase(t *testing.T) {
	// The paper's claim in section 3.2: explicit minimization is never
	// more expensive than joining at the base.
	f := func(sS, sT, sST uint8, d0, d1, d2, d3 uint8) bool {
		p := Params{
			SigmaS:  float64(sS%100) / 100,
			SigmaT:  float64(sT%100) / 100,
			SigmaST: float64(sST%100) / 100,
			W:       3,
		}
		depth := []int{int(d0%15) + 1, int(d1%15) + 1, int(d2%15) + 1, int(d3%15) + 1}
		got := BestPlacement(p, depth)
		baseCost := PairAtBase(p, depth[0], depth[len(depth)-1])
		return got.Cost <= baseCost+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBestPlacementEmptyPath(t *testing.T) {
	if !BestPlacement(Params{}, nil).AtBase {
		t.Fatal("empty path must fall back to base")
	}
}

func TestGroupDeltaSign(t *testing.T) {
	// A producer adjacent to its join node, join node adjacent to root,
	// producer far from root: in-network wins (negative delta).
	d := GroupDelta(1, 0.1, 3, []GroupJoinNode{{DPJ: 1, NPJ: 1, DJR: 1}}, 10)
	if d >= 0 {
		t.Fatalf("delta = %v, want negative (in-network cheaper)", d)
	}
	// Producer next to the root but join node far away: base wins.
	d2 := GroupDelta(1, 0.1, 3, []GroupJoinNode{{DPJ: 9, NPJ: 1, DJR: 9}}, 1)
	if d2 <= 0 {
		t.Fatalf("delta = %v, want positive (base cheaper)", d2)
	}
}

func TestGroupDeltaFormula(t *testing.T) {
	// sigma_p * sum(D_pj + w*sigma_st*N_pj*D_jr) - sigma_p*D_pr
	got := GroupDelta(0.5, 0.2, 3, []GroupJoinNode{
		{DPJ: 2, NPJ: 4, DJR: 5},
		{DPJ: 1, NPJ: 1, DJR: 2},
	}, 7)
	want := 0.5*((2+3*0.2*4*5)+(1+3*0.2*1*2)) - 0.5*7
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("GroupDelta = %v, want %v", got, want)
	}
}

func TestDiverged(t *testing.T) {
	cases := []struct {
		prev, now, ratio float64
		want             bool
	}{
		{1, 1.2, 0.33, false},
		{1, 1.34, 0.33, true},
		{1, 0.66, 0.33, true},
		{1, 0.7, 0.33, false},
		{0, 0, 0.33, false},
		{0, 0.1, 0.33, true},
	}
	for _, c := range cases {
		if got := Diverged(c.prev, c.now, c.ratio); got != c.want {
			t.Errorf("Diverged(%v,%v,%v) = %v, want %v", c.prev, c.now, c.ratio, got, c.want)
		}
	}
}
