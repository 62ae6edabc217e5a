package experiments

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

func quick() Config { return Config{Runs: 2, Quick: true, Seed: 1} }

func TestRegistryComplete(t *testing.T) {
	// Every evaluation artifact of the paper must be registered.
	want := []string{
		"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14",
		"fig16", "fig17", "fig18", "fig19", "fig20",
		"tab3", "mobility", "ablation",
	}
	for _, id := range want {
		if Lookup(id) == nil {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(IDs()) < len(want) {
		t.Fatalf("registry has %d experiments, want >= %d", len(IDs()), len(want))
	}
}

func TestLookupUnknown(t *testing.T) {
	if Lookup("nope") != nil {
		t.Fatal("Lookup of unknown id returned an experiment")
	}
}

// runExperiment executes an experiment in quick mode and sanity-checks the
// row structure against the declared columns.
func runExperiment(t *testing.T, id string) []Row {
	t.Helper()
	e := Lookup(id)
	if e == nil {
		t.Fatalf("experiment %s missing", id)
	}
	rows := e.Run(quick())
	if len(rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	for _, r := range rows {
		if len(r.Labels) != len(e.Columns)-1 {
			t.Fatalf("%s row has %d labels for %d columns: %v", id, len(r.Labels), len(e.Columns), r.Labels)
		}
	}
	return rows
}

func value(rows []Row, labels ...string) (float64, bool) {
outer:
	for _, r := range rows {
		if len(r.Labels) != len(labels) {
			continue
		}
		for i := range labels {
			if r.Labels[i] != labels[i] {
				continue outer
			}
		}
		return r.Value.Mean, true
	}
	return 0, false
}

func TestFig2Shapes(t *testing.T) {
	rows := runExperiment(t, "fig2")
	// GHT must be worse than Innet-cmg on total traffic in every cell.
	bad := 0
	cells := 0
	for _, r := range rows {
		if r.Labels[2] == "GHT" && r.Labels[3] == "total" {
			cells++
			cmg, ok := value(rows, r.Labels[0], r.Labels[1], "Innet-cmg", "total")
			if !ok {
				t.Fatal("missing Innet-cmg cell")
			}
			if cmg >= r.Value.Mean {
				bad++
			}
		}
	}
	if cells == 0 {
		t.Fatal("no GHT cells")
	}
	if bad > cells/3 {
		t.Fatalf("Innet-cmg lost to GHT in %d/%d cells", bad, cells)
	}
}

func TestFig4DiagonalDominance(t *testing.T) {
	rows := runExperiment(t, "fig4")
	// For each actual stage, the run optimized for the true ratios should
	// be at least near-best in its group ("the dark bar will be the
	// lowest in each group").
	stages := ratioStages(quick())
	wins := 0
	for _, actual := range stages {
		diag, ok := value(rows, actual.Name, actual.Name)
		if !ok {
			t.Fatalf("missing diagonal cell %s", actual.Name)
		}
		best := diag
		for _, assumed := range stages {
			if v, ok := value(rows, actual.Name, assumed.Name); ok && v < best {
				best = v
			}
		}
		if diag <= best*1.10 { // within 10% of the group's best
			wins++
		}
	}
	if wins < len(stages)-1 {
		t.Fatalf("diagonal near-best in only %d/%d groups", wins, len(stages))
	}
}

func TestFig5RanksDescend(t *testing.T) {
	rows := runExperiment(t, "fig5")
	// Within one algorithm, rank-k load must not increase with k.
	prev := map[string]float64{}
	for _, r := range rows {
		alg := r.Labels[0]
		if last, ok := prev[alg]; ok && r.Value.Mean > last+1e-9 {
			t.Fatalf("%s load increases along ranks", alg)
		}
		prev[alg] = r.Value.Mean
	}
}

func TestFig6CentralizedCostlier(t *testing.T) {
	rows := runExperiment(t, "fig6")
	cb, _ := value(rows, "centralized", "base traffic KB")
	db, _ := value(rows, "distributed", "base traffic KB")
	cl, _ := value(rows, "centralized", "latency (txn cycles)")
	dl, _ := value(rows, "distributed", "latency (txn cycles)")
	if db >= cb {
		t.Fatalf("distributed base traffic (%v) not below centralized (%v)", db, cb)
	}
	if dl >= cl {
		t.Fatalf("distributed latency (%v) not below centralized (%v)", dl, cl)
	}
}

func TestFig7DistributedNearOptimal(t *testing.T) {
	rows := runExperiment(t, "fig7")
	for i := 0; i+1 < len(rows); i += 2 {
		o := rows[i].Value.Mean
		d := rows[i+1].Value.Mean
		if o == 0 {
			continue
		}
		// Paper: within 3% of optimal; allow slack for our byte model
		// (the distributed paths may differ from true shortest paths).
		if d > 1.5*o {
			t.Fatalf("%v: distributed %.1f vs optimal %.1f — too far", rows[i].Labels, d, o)
		}
	}
}

func TestFig14FailureAddsDelay(t *testing.T) {
	rows := runExperiment(t, "fig14")
	for _, sst := range []string{"10%", "20%"} {
		no, ok1 := value(rows, sst, "no failure", "delay (cycles)")
		yes, ok2 := value(rows, sst, "with failure", "delay (cycles)")
		if !ok1 || !ok2 {
			t.Fatalf("missing delay rows for %s", sst)
		}
		if yes < no {
			t.Fatalf("%s: failure decreased delay (%v -> %v)", sst, no, yes)
		}
	}
}

func TestFig16MoreTreesBetter(t *testing.T) {
	rows := runExperiment(t, "fig16")
	for _, r := range rows {
		if r.Labels[1] != "1 Tree" || r.Labels[2] != "avg path (hops)" {
			continue
		}
		three, ok := value(rows, r.Labels[0], "3 Trees", "avg path (hops)")
		if !ok {
			t.Fatal("missing 3 Trees row")
		}
		if three > r.Value.Mean {
			t.Fatalf("%s: 3 trees (%v) longer than 1 tree (%v)", r.Labels[0], three, r.Value.Mean)
		}
		full, ok := value(rows, r.Labels[0], "Full graph", "avg path (hops)")
		if !ok {
			t.Fatal("missing full graph row")
		}
		if full > three {
			t.Fatalf("%s: full graph (%v) longer than 3 trees (%v)", r.Labels[0], full, three)
		}
		gpsr, ok := value(rows, r.Labels[0], "GPSR", "avg path (hops)")
		if !ok {
			t.Fatal("missing GPSR row")
		}
		if gpsr < full {
			t.Fatalf("%s: GPSR (%v) beat the full graph (%v)", r.Labels[0], gpsr, full)
		}
	}
}

// TestFig18QuickNormalizesByPathsWalked: quick mode walks the paths from
// every third source, ⌈n/3⌉ of them, so its per-path max load divides by
// ⌈n/3⌉·(n−1) paths, not n/3·(n−1).
func TestFig18QuickNormalizesByPathsWalked(t *testing.T) {
	rows := runExperiment(t, "fig18")
	for _, n := range []int{50, 100} {
		topo := topology.Generate(topology.MediumRandom, n, 1)
		sub := routing.NewSubstrate(topo, routing.Options{NumTrees: 1}, nil)
		load := make([]int, n)
		paths := 0
		for a := 0; a < n; a += 3 {
			for b := 0; b < n; b++ {
				if a == b {
					continue
				}
				for _, v := range sub.BestTreePath(topology.NodeID(a), topology.NodeID(b)) {
					load[v]++
				}
				paths++
			}
		}
		want := float64(slices.Max(load)) / float64(paths)
		got, ok := value(rows, fmt.Sprintf("%d-node", n), "1 Tree", "max load (per path)")
		if !ok {
			t.Fatalf("missing %d-node 1 Tree max load row", n)
		}
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("%d nodes: max load per path %v, want %v over the %d paths walked", n, got, want, paths)
		}
	}
}

func TestTab3AnalyticMatchesMeasured(t *testing.T) {
	// A lossless run sends exactly what the replayed sampler says, each
	// tuple over its D_sr hops: the two rows are equal, not close.
	rows := runExperiment(t, "tab3")
	for _, alg := range []string{"Naive", "Base"} {
		a, _ := value(rows, alg, "analytic")
		m, _ := value(rows, alg, "measured")
		if a == 0 || m != a {
			t.Fatalf("%s: measured %v tuple-hops per cycle, analytic %v", alg, m, a)
		}
	}
}

func TestMobilityMagnitudes(t *testing.T) {
	rows := runExperiment(t, "mobility")
	traffic, _ := value(rows, "update traffic (bytes)")
	delay, _ := value(rows, "propagation delay (cycles)")
	if traffic <= 0 || delay <= 0 {
		t.Fatal("mobility produced zero costs")
	}
	// Paper: ~1195 bytes, ~19.4 cycles. Same order of magnitude expected.
	if traffic > 20000 || delay > 200 {
		t.Fatalf("mobility costs out of range: %v bytes, %v cycles", traffic, delay)
	}
}

func TestAblationPlacement(t *testing.T) {
	rows := runExperiment(t, "ablation")
	cm, _ := value(rows, "placement", "cost-model")
	mid, _ := value(rows, "placement", "midpoint")
	atT, _ := value(rows, "placement", "at-t")
	if cm == 0 {
		t.Fatal("missing cost-model row")
	}
	// With sigma_s=0.1, sigma_t=1 the cost model should sit near t and
	// beat (or match) the midpoint and never lose to it meaningfully.
	if cm > 1.05*mid {
		t.Fatalf("cost-model placement (%v) worse than midpoint (%v)", cm, mid)
	}
	if cm > 1.05*atT {
		t.Fatalf("cost-model placement (%v) worse than at-t (%v)", cm, atT)
	}
}

func TestRenderOutput(t *testing.T) {
	e := Lookup("mobility")
	rows := e.Run(quick())
	out := Render(e, rows)
	if !strings.Contains(out, "mobility") || !strings.Contains(out, "update traffic") {
		t.Fatalf("Render output malformed:\n%s", out)
	}
}

// The remaining experiments are exercised for structure only: their
// qualitative shapes show in a full `aspen-exp -run <id>`, which is too
// slow for a unit test.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick sweep still costs a few seconds")
	}
	for _, id := range []string{"fig3", "fig8", "fig9", "fig11", "fig13", "fig17", "fig18", "fig19", "fig20"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			runExperiment(t, id)
		})
	}
}

func TestFig10LearningGains(t *testing.T) {
	rows := runExperiment(t, "fig10")
	// Averaged over all off-diagonal cells, learning must not hurt.
	var offSum, onSum float64
	n := 0
	for _, r := range rows {
		if r.Labels[3] != "off" || r.Labels[1] == r.Labels[2] {
			continue
		}
		on, ok := value(rows, r.Labels[0], r.Labels[1], r.Labels[2], "on")
		if !ok {
			t.Fatal("missing learning-on cell")
		}
		offSum += r.Value.Mean
		onSum += on
		n++
	}
	if n == 0 {
		t.Fatal("no off-diagonal cells")
	}
	if onSum > offSum*1.02 {
		t.Fatalf("learning increased average off-diagonal traffic: %.1f -> %.1f", offSum/float64(n), onSum/float64(n))
	}
}

func TestFig12LearningApproachesOracle(t *testing.T) {
	rows := runExperiment(t, "fig12")
	for _, mode := range []string{"spatial", "temporal"} {
		for _, q := range []string{"Q1", "Q2"} {
			oracle, ok := value(rows, mode, q, "Full knowledge")
			if !ok {
				t.Fatalf("missing oracle row %s/%s", mode, q)
			}
			learn1, _ := value(rows, mode, q, "Sel1 learn")
			wrong1, _ := value(rows, mode, q, "Sel1")
			// Learning should move from the wrong-static cost toward the
			// oracle: no worse than the static run (with small slack).
			if learn1 > wrong1*1.10 {
				t.Fatalf("%s/%s: learning (%v) worse than static wrong estimates (%v), oracle %v",
					mode, q, learn1, wrong1, oracle)
			}
		}
	}
}

func TestFig13Shapes(t *testing.T) {
	rows := runExperiment(t, "fig13")
	yang, _ := value(rows, "Yang+07", "total")
	ghtv, _ := value(rows, "GHT/GPSR", "total")
	naive, _ := value(rows, "Naive/Base", "total")
	innet, _ := value(rows, "In-net", "total")
	learn, _ := value(rows, "In-net learn", "total")
	// The paper's log-scale ordering: Yang+07 and GHT an order worse than
	// the base-centric and in-network strategies; learning within ~25% of
	// full-knowledge In-Net.
	if yang < 1.5*naive || ghtv < 1.5*naive {
		t.Fatalf("Yang+07 (%v) / GHT (%v) not clearly worse than Naive/Base (%v)", yang, ghtv, naive)
	}
	if learn > 1.6*innet {
		t.Fatalf("learning (%v) too far from full-knowledge In-Net (%v)", learn, innet)
	}
}

func TestFig19MeshOrdering(t *testing.T) {
	rows := runExperiment(t, "fig19")
	// Appendix F: Innet-cmg outperforms all, with Base next (vs DHT and
	// Naive), on message counts. Check the symmetric stage.
	cmg, ok1 := value(rows, "1/2:1/2", "20%", "Innet-cmg", "total")
	naive, ok2 := value(rows, "1/2:1/2", "20%", "Naive", "total")
	base, ok3 := value(rows, "1/2:1/2", "20%", "Base", "total")
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("missing mesh cells")
	}
	if cmg >= naive {
		t.Fatalf("Innet-cmg (%v kmsgs) not below Naive (%v)", cmg, naive)
	}
	if base >= naive {
		t.Fatalf("Base (%v kmsgs) not below Naive (%v)", base, naive)
	}
}
