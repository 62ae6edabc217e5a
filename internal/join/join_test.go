package join

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/dht"
	"repro/internal/ght"
	"repro/internal/query"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// harness bundles one reproducible experimental setup.
type harness struct {
	topo  *topology.Topology
	nodes []workload.NodeInfo
	spec  *workload.Spec
	rates workload.Rates
}

func newHarness(t *testing.T, queryName string, rates workload.Rates) *harness {
	t.Helper()
	topo := topology.Generate(topology.ModerateRandom, 100, 1)
	nodes := workload.BuildNodes(topo, 1)
	var spec *workload.Spec
	switch queryName {
	case "Q0":
		spec = workload.Query0(topo, nodes, 10, rates, 7)
	case "Q1":
		spec = workload.Query1(topo, nodes, rates)
	case "Q2":
		spec = workload.Query2(topo, nodes, rates)
	default:
		t.Fatalf("unknown query %s", queryName)
	}
	return &harness{topo: topo, nodes: nodes, spec: spec, rates: rates}
}

// config builds a fresh Config with independent network metrics but shared
// data seeds, so algorithms compare on identical inputs.
func (h *harness) config(cycles int, lossProb float64) *Config {
	net := sim.NewNetwork(h.topo, lossProb, 99)
	sub := routing.NewSubstrate(h.topo, routing.Options{
		NumTrees:       3,
		Indexes:        h.spec.Indexes,
		IndexPositions: h.spec.IndexPositions,
	}, nil)
	gen := workload.NewGenerator(h.rates, 42)
	opt := costmodel.Params{
		SigmaS:  h.rates.SigmaS,
		SigmaT:  h.rates.SigmaT,
		SigmaST: h.rates.SigmaST,
		W:       h.spec.W,
	}
	return NewConfig(h.topo, net, sub, h.spec, gen, opt, cycles)
}

// drive runs alg over cfg for cfg.Cycles sampling cycles and returns its
// result: Start, then driveCycles, then Finish.
func drive(alg Continuous, cfg *Config) *Result {
	st := alg.Start(cfg)
	driveCycles(st, 0, cfg.Cycles)
	return st.Finish()
}

// driveCycles runs sampling cycles [from, to) of st, each a Step followed by
// an Adapt of the same cycle. Tests that inject a failure do so between two
// calls, through the network's liveness view.
func driveCycles(st Stepper, from, to int) {
	for cycle := from; cycle < to; cycle++ {
		st.Step(cycle)
		st.Adapt(cycle)
	}
}

func allAlgorithms(h *harness) []Continuous {
	return []Continuous{
		Naive{},
		Base{},
		Yang07{},
		Hashed{Label: "GHT", Router: ght.NewRouter(h.topo)},
		Hashed{Label: "DHT", Router: dht.NewRing(h.topo)},
		Innet{},
		Innet{Opts: InnetOptions{Multicast: true}},
		Innet{Opts: InnetOptions{Multicast: true, GroupOpt: true}},
		Innet{Opts: InnetOptions{Multicast: true, PathCollapse: true, GroupOpt: true}},
		Innet{Opts: InnetOptions{Learn: true}},
		Innet{Opts: InnetOptions{Multicast: true, GroupOpt: true, Learn: true}},
		Innet{Opts: InnetOptions{Multicast: true, PathCollapse: true, GroupOpt: true, Learn: true}},
	}
}

func TestAllAlgorithmsDeliverIdenticalResults(t *testing.T) {
	// On a lossless network every algorithm computes the same windowed
	// join over the same data. Algorithms that process producers in the
	// same intra-cycle order (Naive, Base, and all In-Net variants — the
	// learning ones included: a migration moves window state without losing
	// or duplicating a match) must agree EXACTLY. Yang+07 (targets before sources) and the hashed
	// substrates (group order) interleave same-cycle arrivals differently,
	// which legitimately shifts a few matches across the window-eviction
	// boundary — those must agree within 5%.
	for _, q := range []string{"Q0", "Q1", "Q2"} {
		h := newHarness(t, q, workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.2})
		var want int
		for i, alg := range allAlgorithms(h) {
			res := drive(alg, h.config(60, 0))
			if i == 0 {
				want = res.Results
				if want == 0 {
					t.Fatalf("%s: Naive produced no results — workload degenerate", q)
				}
				continue
			}
			name := alg.Name()
			exact := name == "Base" || strings.HasPrefix(name, "Innet")
			if exact {
				if res.Results != want {
					t.Errorf("%s: %s delivered %d results, Naive delivered %d", q, name, res.Results, want)
				}
				continue
			}
			lo, hi := int(float64(want)*0.95), int(float64(want)*1.05)+1
			if res.Results < lo || res.Results > hi {
				t.Errorf("%s: %s delivered %d results, outside 5%% of Naive's %d", q, name, res.Results, want)
			}
		}
	}
}

func TestAlgorithmsDeterministic(t *testing.T) {
	h := newHarness(t, "Q1", workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1})
	for _, alg := range allAlgorithms(h) {
		a := drive(alg, h.config(30, 0.05))
		b := drive(alg, h.config(30, 0.05))
		if a.TotalBytes != b.TotalBytes || a.Results != b.Results {
			t.Errorf("%s not deterministic: (%d,%d) vs (%d,%d)",
				alg.Name(), a.TotalBytes, a.Results, b.TotalBytes, b.Results)
		}
	}
}

func TestNaiveHasNoInitiationCost(t *testing.T) {
	h := newHarness(t, "Q1", workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1})
	res := drive(Naive{}, h.config(10, 0))
	if res.InitBytes != 0 {
		t.Fatalf("Naive InitBytes = %d, want 0", res.InitBytes)
	}
	res2 := drive(Base{}, h.config(10, 0))
	if res2.InitBytes == 0 {
		t.Fatal("Base must pay initiation")
	}
}

func TestBaseCheaperThanNaiveForLongRuns(t *testing.T) {
	// Base eliminates non-joining producers; over enough cycles its total
	// traffic drops below Naive's despite the initiation cost.
	h := newHarness(t, "Q1", workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1})
	naive := drive(Naive{}, h.config(100, 0))
	base := drive(Base{}, h.config(100, 0))
	if base.TotalBytes >= naive.TotalBytes {
		t.Fatalf("Base (%d B) not cheaper than Naive (%d B) over 100 cycles",
			base.TotalBytes, naive.TotalBytes)
	}
}

func TestInnetBeatsGHT(t *testing.T) {
	// "GHT always does poorly due to its long routing paths."
	h := newHarness(t, "Q2", workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1})
	innet := drive(Innet{}, h.config(100, 0))
	ghtRes := drive(Hashed{Label: "GHT", Router: ght.NewRouter(h.topo)}, h.config(100, 0))
	if innet.TotalBytes >= ghtRes.TotalBytes {
		t.Fatalf("Innet (%d B) not cheaper than GHT (%d B) on Query 2",
			innet.TotalBytes, ghtRes.TotalBytes)
	}
}

func TestInnetBestOnPerimeterQuery(t *testing.T) {
	// "Innet provides the best performance in all cases of Query 2."
	h := newHarness(t, "Q2", workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1})
	innet := drive(Innet{Opts: InnetOptions{Multicast: true, GroupOpt: true}}, h.config(100, 0))
	for _, alg := range []Continuous{Naive{}, Base{}, Hashed{Label: "GHT", Router: ght.NewRouter(h.topo)}} {
		other := drive(alg, h.config(100, 0))
		if innet.TotalBytes >= other.TotalBytes {
			t.Errorf("Innet-cmg (%d B) not cheaper than %s (%d B) on Query 2",
				innet.TotalBytes, alg.Name(), other.TotalBytes)
		}
	}
}

func TestMulticastReducesTraffic(t *testing.T) {
	// A producer joining multiple partners should benefit from shared
	// multicast prefixes and dropped path vectors.
	h := newHarness(t, "Q1", workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.05})
	plain := drive(Innet{}, h.config(100, 0))
	cm := drive(Innet{Opts: InnetOptions{Multicast: true}}, h.config(100, 0))
	if cm.TotalBytes >= plain.TotalBytes {
		t.Fatalf("Innet-cm (%d B) not cheaper than Innet (%d B)", cm.TotalBytes, plain.TotalBytes)
	}
}

func TestGroupOptNeverWorseAtHighSharing(t *testing.T) {
	// With high sigma_s the pairwise model overpays for shared
	// computation; GROUPOPT should move groups to the base and win
	// (Fig 2's right-hand stages).
	h := newHarness(t, "Q1", workload.Rates{SigmaS: 1, SigmaT: 0.1, SigmaST: 0.2})
	plain := drive(Innet{Opts: InnetOptions{Multicast: true}}, h.config(100, 0))
	cmg := drive(Innet{Opts: InnetOptions{Multicast: true, GroupOpt: true}}, h.config(100, 0))
	if float64(cmg.TotalBytes) > 1.05*float64(plain.TotalBytes) {
		t.Fatalf("Innet-cmg (%d B) worse than Innet-cm (%d B) at high sharing",
			cmg.TotalBytes, plain.TotalBytes)
	}
}

func TestGroupOptMovesGroupsToBase(t *testing.T) {
	h := newHarness(t, "Q1", workload.Rates{SigmaS: 1, SigmaT: 1, SigmaST: 0.2})
	plain := drive(Innet{}, h.config(20, 0))
	cmg := drive(Innet{Opts: InnetOptions{Multicast: true, GroupOpt: true}}, h.config(20, 0))
	if cmg.AtBasePairs <= plain.AtBasePairs {
		t.Skipf("group opt found no base-favouring groups (plain=%d cmg=%d)",
			plain.AtBasePairs, cmg.AtBasePairs)
	}
}

func TestLearningRecoversFromWrongEstimates(t *testing.T) {
	// Initiate with badly wrong selectivities; learning must close most
	// of the gap to the oracle (Fig 10's '+' bars).
	h := newHarness(t, "Q0", workload.Rates{SigmaS: 0.1, SigmaT: 1, SigmaST: 0.2})
	wrongOpt := costmodel.Params{SigmaS: 1, SigmaT: 0.1, SigmaST: 0.2, W: h.spec.W}

	oracleCfg := h.config(200, 0)
	oracle := drive(Innet{}, oracleCfg)

	wrongCfg := h.config(200, 0)
	wrongCfg.Opt = wrongOpt
	wrong := drive(Innet{}, wrongCfg)

	learnCfg := h.config(200, 0)
	learnCfg.Opt = wrongOpt
	learned := drive(Innet{Opts: InnetOptions{Learn: true}}, learnCfg)

	if wrong.TotalBytes <= oracle.TotalBytes {
		t.Skipf("wrong estimates happened to be harmless here (wrong=%d oracle=%d)",
			wrong.TotalBytes, oracle.TotalBytes)
	}
	if learned.Migrations == 0 {
		t.Fatal("learning never migrated a join node despite wrong estimates")
	}
	if learned.TotalBytes >= wrong.TotalBytes {
		t.Fatalf("learning (%d B) did not improve on wrong estimates (%d B); oracle %d B",
			learned.TotalBytes, wrong.TotalBytes, oracle.TotalBytes)
	}
}

// TestLearningDeliversFrozenPlacementResults: on a lossless network a
// learning run started from wrong estimates must migrate, and must deliver
// exactly the results of the same run with its placement frozen — every
// result reaches the base exactly once, whether pairs move individually or
// as GROUPOPT groups.
func TestLearningDeliversFrozenPlacementResults(t *testing.T) {
	for _, q := range []string{"Q1", "Q2"} {
		h := newHarness(t, q, workload.Rates{SigmaS: 0.1, SigmaT: 1, SigmaST: 0.2})
		wrong := costmodel.Params{SigmaS: 1, SigmaT: 0.1, SigmaST: 0.2, W: h.spec.W}
		for _, opts := range []InnetOptions{
			{},
			{Multicast: true, GroupOpt: true},
			{Multicast: true, PathCollapse: true, GroupOpt: true},
		} {
			run := func(learn bool) *Result {
				cfg := h.config(200, 0)
				cfg.Opt = wrong
				opts.Learn = learn
				return drive(Innet{Opts: opts}, cfg)
			}
			frozen, learned := run(false), run(true)
			if learned.Migrations == 0 {
				t.Errorf("%s %s: never migrated despite wrong estimates", q, learned.Algorithm)
			}
			if learned.Results != frozen.Results {
				t.Errorf("%s %s: delivered %d results, frozen placement delivered %d (%d migrations)",
					q, learned.Algorithm, learned.Results, frozen.Results, learned.Migrations)
			}
		}
	}
}

func TestFailureSwitchesPairToBase(t *testing.T) {
	// Section 7: fail the join node mid-run; the pair must fail over to
	// the base station and keep producing results.
	h := newHarness(t, "Q0", workload.Rates{SigmaS: 1, SigmaT: 1, SigmaST: 0.2})
	// Find one pair's join node by running initiation only.
	probeCfg := h.config(1, 0)
	probe := drive(Innet{}, probeCfg)
	if probe.InNetPairs == 0 {
		t.Skip("no in-network pairs to fail")
	}
	// Fail the node with the highest non-base, non-producer load in the
	// no-failure run: the node observed to carry join traffic.
	noFail := drive(Innet{}, h.config(100, 0))
	var victim topology.NodeID = -1
	var best int64
	for i, b := range noFail.NodeBytes {
		id := topology.NodeID(i)
		if id == topology.Base || h.spec.EligibleS(id) || h.spec.EligibleT(id) {
			continue
		}
		if b > best {
			victim, best = id, b
		}
	}
	if victim < 0 {
		t.Skip("no interior join node found")
	}
	failCfg := h.config(100, 0)
	st := Innet{}.Start(failCfg)
	driveCycles(st, 0, 50)
	failCfg.Net.Fail(victim)
	driveCycles(st, 50, 100)
	withFail := st.Finish()
	if withFail.Results == 0 {
		t.Fatal("no results delivered despite failover")
	}
	// Results keep flowing after the failure: the run must deliver a
	// reasonable fraction of the no-failure count.
	if withFail.Results < noFail.Results/2 {
		t.Fatalf("failover lost too many results: %d vs %d", withFail.Results, noFail.Results)
	}
}

// silentJoinFailure starts Innet on a lossless one-pair Q0 where both
// producers send every cycle and every tuple pair joins (placed for fig
// 14's sigma_st of 10%, so the join node is interior), runs it to cycle
// failAt, and fails the join node silently: a liveness change between two
// Steps, no Recover. healthy is the results the last cycle before the
// failure delivered.
func silentJoinFailure(t *testing.T, failAt int) (e *engine, p *pairState, healthy int) {
	t.Helper()
	rates := workload.Rates{SigmaS: 1, SigmaT: 1, SigmaST: 1}
	h := newHarness(t, "Q0", rates)
	for seed := uint64(1); seed < 50; seed++ {
		h.spec = workload.Query0(h.topo, h.nodes, 1, rates, seed)
		cfg := h.config(0, 0)
		cfg.Opt.SigmaST = 0.1
		e = Innet{}.Start(cfg).(*engine)
		if len(e.pairs) != 1 {
			continue
		}
		p = e.pairs[0]
		if p.jIdx <= 0 || p.jIdx >= len(p.path)-1 {
			continue // joined at the base or at a producer
		}
		driveCycles(e, 0, failAt-1)
		before := e.res.Results
		driveCycles(e, failAt-1, failAt)
		cfg.Net.Fail(p.joinNode())
		return e, p, e.res.Results - before
	}
	t.Skip("no seed placed the pair at an interior join node")
	return nil, nil, 0
}

// TestSilentJoinFailureReplaysBothWindows: when a silent join-node failure
// moves the pair to the base, both producers replay their last w tuples, so
// the base holds a full window of each the cycle the pair arrives there.
func TestSilentJoinFailureReplaysBothWindows(t *testing.T) {
	e, p, _ := silentJoinFailure(t, 20)
	w := e.cfg.Spec.W
	for cycle := 20; cycle < 40; cycle++ {
		e.Step(cycle)
		if p.jIdx >= 0 {
			continue
		}
		base := e.stateAt(topology.Base)
		if s, tl := base.WindowLen(p.s), base.WindowLen(p.t); s != w || tl != w {
			t.Fatalf("cycle %d: base windows after fallback: s %d, t %d tuples, want %d each", cycle, s, tl, w)
		}
		return
	}
	t.Fatal("pair never fell back to the base")
}

// TestSilentJoinFailureDetectionDelay: results stop at the first failed
// delivery and resume exactly failureRecoveryCycles later at the healthy
// per-cycle rate — fig 14's detection delay, then a full join window.
func TestSilentJoinFailureDetectionDelay(t *testing.T) {
	const failAt = 20
	e, _, healthy := silentJoinFailure(t, failAt)
	if healthy == 0 {
		t.Fatal("no results before the failure")
	}
	firstDrop := -1
	for cycle := failAt; cycle < failAt+3*failureRecoveryCycles; cycle++ {
		drops, results := e.cfg.Net.Metrics().Drops, e.res.Results
		e.Step(cycle)
		if firstDrop < 0 && e.cfg.Net.Metrics().Drops > drops {
			firstDrop = cycle
		}
		if got := e.res.Results - results; got > 0 {
			if firstDrop < 0 || cycle != firstDrop+failureRecoveryCycles || got != healthy {
				t.Fatalf("results resumed at cycle %d with %d, want cycle %d (first failed delivery %d + %d) with %d",
					cycle, got, firstDrop+failureRecoveryCycles, firstDrop, failureRecoveryCycles, healthy)
			}
			return
		}
	}
	t.Fatal("results never resumed")
}

func TestMeanDelayReflectsJoinSelectivity(t *testing.T) {
	// Results arrive more rarely at lower sigma_st, so the inter-result
	// delay grows (the Fig 14a baseline effect).
	h20 := newHarness(t, "Q0", workload.Rates{SigmaS: 1, SigmaT: 1, SigmaST: 0.2})
	h05 := newHarness(t, "Q0", workload.Rates{SigmaS: 1, SigmaT: 1, SigmaST: 0.05})
	d20 := drive(Innet{}, h20.config(200, 0))
	d05 := drive(Innet{}, h05.config(200, 0))
	if d20.DelayCount == 0 || d05.DelayCount == 0 {
		t.Skip("not enough results for delay comparison")
	}
	if d05.MeanDelay() <= d20.MeanDelay() {
		t.Fatalf("delay at sigma_st=5%% (%.2f) not above 20%% (%.2f)",
			d05.MeanDelay(), d20.MeanDelay())
	}
}

func TestResultMergingBatchesPerCycle(t *testing.T) {
	// sendResults merges matches from one join node in one cycle into a
	// single transfer: message count at a 1-hop join node must be 1.
	h := newHarness(t, "Q0", workload.Rates{SigmaS: 1, SigmaT: 1, SigmaST: 1})
	cfg := h.config(0, 0)
	res := &Result{}
	r := newRecorder(res)
	before := cfg.Net.Metrics().TotalMessages
	j := cfg.Sub.Trees[0].Children[topology.Base][0]
	sendResults(cfg, r, j, 5, 3)
	msgs := cfg.Net.Metrics().TotalMessages - before
	if msgs != 1 {
		t.Fatalf("5 results sent as %d messages, want 1 merged packet", msgs)
	}
	if res.Results != 5 {
		t.Fatalf("recorded %d results, want 5", res.Results)
	}
}

func TestRecorderDelays(t *testing.T) {
	res := &Result{}
	r := newRecorder(res)
	r.record(1, 5)
	r.record(1, 9)
	r.record(2, 12)
	if res.Results != 4 {
		t.Fatalf("Results = %d", res.Results)
	}
	// Gaps: 9-5=4, 12-9=3, 12-12=0.
	if res.DelaySum != 7 || res.DelayCount != 3 {
		t.Fatalf("delay sum/count = %d/%d, want 7/3", res.DelaySum, res.DelayCount)
	}
	if res.MeanDelay() != 7.0/3 {
		t.Fatalf("MeanDelay = %v, want 7/3", res.MeanDelay())
	}
}

// TestRecorderAllocatesNothing: the delay statistic is a running sum, so
// recording 100k results allocates nothing however long the run. Measured
// as a TotalAlloc delta, which also sees amortized slice growth.
func TestRecorderAllocatesNothing(t *testing.T) {
	r := newRecorder(&Result{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for cycle := 0; cycle < 50_000; cycle++ {
		r.record(2, cycle)
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d != 0 {
		t.Fatalf("recording 100k results allocated %d bytes", d)
	}
	if r.res.Results != 100_000 || r.res.DelayCount != 99_999 || r.res.DelaySum != 49_999 {
		t.Fatalf("results %d, delay sum/count %d/%d", r.res.Results, r.res.DelaySum, r.res.DelayCount)
	}
}

func TestVariantNames(t *testing.T) {
	cases := []struct {
		alg  Continuous
		want string
	}{
		{Innet{}, "Innet"},
		{Innet{Opts: InnetOptions{Multicast: true}}, "Innet-cm"},
		{Innet{Opts: InnetOptions{Multicast: true, GroupOpt: true}}, "Innet-cmg"},
		{Innet{Opts: InnetOptions{Multicast: true, PathCollapse: true, GroupOpt: true}}, "Innet-cmpg"},
		{Innet{Opts: InnetOptions{Learn: true}}, "Innet learn"},
		{Naive{}, "Naive"},
		{Base{}, "Base"},
		{Yang07{}, "Yang+07"},
	}
	for _, c := range cases {
		if got := c.alg.Name(); got != c.want {
			t.Errorf("Name = %q, want %q", got, c.want)
		}
	}
}

func TestLossyNetworkStillWorks(t *testing.T) {
	h := newHarness(t, "Q1", workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.2})
	cfg := h.config(50, 0.05)
	res := drive(Innet{Opts: InnetOptions{Multicast: true, GroupOpt: true}}, cfg)
	if res.Results == 0 {
		t.Fatal("no results under 5% loss")
	}
	if cfg.Net.Metrics().Retransmissions == 0 {
		t.Fatal("no retransmissions recorded under loss")
	}
}

func TestYang07OverflowsBoundedQueues(t *testing.T) {
	// The paper could not run Yang+07 on its synthetic topologies: "its
	// routing queues overflow almost immediately". With the simulator's
	// per-cycle relay queue bound enabled, Yang+07's through-the-base
	// relaying must lose far more results than Base does.
	h := newHarness(t, "Q1", workload.Rates{SigmaS: 1, SigmaT: 1, SigmaST: 0.2})
	run := func(alg Continuous) (*Result, int64) {
		cfg := h.config(50, 0)
		cfg.Net.QueueLimit = 8 // a small TinyOS-style forwarding queue
		res := drive(alg, cfg)
		return res, cfg.Net.QueueDrops()
	}
	baseRes, baseDrops := run(Base{})
	yangRes, yangDrops := run(Yang07{})
	if yangDrops <= baseDrops {
		t.Fatalf("Yang+07 drops (%d) not above Base drops (%d)", yangDrops, baseDrops)
	}
	if yangRes.Results >= baseRes.Results {
		t.Fatalf("Yang+07 delivered %d results vs Base %d under bounded queues — expected heavy loss",
			yangRes.Results, baseRes.Results)
	}
}

func TestMeshModeCountsMessages(t *testing.T) {
	// Appendix F: mesh runs compare message counts; verify the metric is
	// populated and no losses occur at LossProb 0.
	h := newHarness(t, "Q2", workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1})
	cfg := h.config(30, 0)
	res := drive(Innet{Opts: InnetOptions{Multicast: true, GroupOpt: true}}, cfg)
	if res.TotalMessages == 0 || res.BaseMessages == 0 {
		t.Fatal("message metrics unpopulated")
	}
	if cfg.Net.Metrics().Retransmissions != 0 {
		t.Fatal("retransmissions at zero loss")
	}
}

func TestEmptyQueryProducesNothing(t *testing.T) {
	// A query whose selections admit no producers must run cleanly and
	// cost (almost) nothing during computation.
	topo := topology.Generate(topology.ModerateRandom, 100, 1)
	nodes := workload.BuildNodes(topo, 1)
	spec := workload.Query1(topo, nodes, workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1})
	// Cripple eligibility.
	spec.EligibleS = func(topology.NodeID) bool { return false }
	net := sim.NewNetwork(topo, 0, 1)
	sub := routing.NewSubstrate(topo, routing.Options{NumTrees: 2, Indexes: spec.Indexes}, nil)
	gen := workload.NewGenerator(workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1}, 1)
	cfg := NewConfig(topo, net, sub, spec, gen, costmodel.Params{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1, W: 3}, 20)
	res := drive(Innet{}, cfg)
	if res.Results != 0 {
		t.Fatal("results from an empty producer set")
	}
	if res.InNetPairs+res.AtBasePairs != 0 {
		t.Fatal("pairs discovered despite no eligible sources")
	}
}

func TestWindowSizeOneVsThree(t *testing.T) {
	// Larger windows keep more tuples joinable: w=3 must deliver at
	// least as many results as w=1 on the same data.
	h := newHarness(t, "Q0", workload.Rates{SigmaS: 1, SigmaT: 1, SigmaST: 0.2})
	r3 := drive(Innet{}, h.config(60, 0))
	// Rebuild the spec with w=1 by cloning and overriding.
	h1 := newHarness(t, "Q0", workload.Rates{SigmaS: 1, SigmaT: 1, SigmaST: 0.2})
	h1.spec.W = 1
	r1 := drive(Innet{}, h1.config(60, 0))
	if r3.Results < r1.Results {
		t.Fatalf("w=3 delivered %d results < w=1's %d", r3.Results, r1.Results)
	}
}

func TestOpportunisticMergePreservesResults(t *testing.T) {
	// Appendix E: merging changes packet accounting, never semantics. On
	// a lossless network the merged Base run must deliver exactly the
	// unmerged results with strictly fewer messages.
	h := newHarness(t, "Q1", workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.2})
	plain := drive(Base{}, h.config(60, 0))
	merged := drive(Base{Merge: true}, h.config(60, 0))
	if merged.Results != plain.Results {
		t.Fatalf("merging changed results: %d vs %d", merged.Results, plain.Results)
	}
	if merged.TotalMessages >= plain.TotalMessages {
		t.Fatalf("merging did not reduce messages: %d vs %d", merged.TotalMessages, plain.TotalMessages)
	}
	if merged.TotalBytes >= plain.TotalBytes {
		t.Fatalf("merging did not reduce bytes: %d vs %d", merged.TotalBytes, plain.TotalBytes)
	}
}

func TestOpportunisticMergeUnderLoss(t *testing.T) {
	// With loss, a dropped merged packet loses a whole subtree's tuples;
	// the run must still deliver a sane fraction of results.
	h := newHarness(t, "Q1", workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.2})
	res := drive(Naive{Merge: true}, h.config(60, 0.05))
	if res.Results == 0 {
		t.Fatal("merged delivery lost everything under 5% loss")
	}
}

// TestHashedStartAvoidsPreexistingFailures: a hashed query admitted into a
// deployment that has ALREADY lost nodes must not compute member routes
// through them (the engine admits queries at any epoch, possibly after
// churn).
func TestHashedStartAvoidsPreexistingFailures(t *testing.T) {
	h := newHarness(t, "Q2", workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1})
	cfg := h.config(10, 0)
	ring := dht.NewRing(h.topo)
	// Find a victim on some member route of a fresh start.
	fresh := Hashed{Label: "DHT", Router: ring}.Start(cfg).(*siteStepper)
	var victim topology.NodeID = -1
	for _, l := range fresh.legs {
		if len(l.path) >= 3 {
			victim = l.path[1]
			break
		}
	}
	if victim < 0 {
		t.Skip("no multi-hop member route on this seed")
	}
	cfg2 := h.config(10, 0)
	cfg2.Net.Fail(victim)
	late := Hashed{Label: "DHT", Router: dht.NewRing(h.topo)}.Start(cfg2).(*siteStepper)
	for _, r := range late.routes {
		l := late.legs[r.first]
		if cfg2.Net.Alive(l.site) && cfg2.Net.Alive(r.id) && l.path.Contains(victim) {
			t.Fatalf("member %d routed through pre-failed node %d: %v", r.id, victim, l.path)
		}
	}
}

// rebuildTreeAllocBudget is what one rebuildTree call may allocate: the
// MulticastTree and its edge slice. The segment list, the reversed t-side
// hops and the mpo.Builder scratch are all reused across calls, so losing
// any of that reuse shows up here rather than in a benchmark.
const rebuildTreeAllocBudget = 2

func TestRebuildTreeAllocs(t *testing.T) {
	h := newHarness(t, "Q1", workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.05})
	e := Innet{Opts: InnetOptions{Multicast: true, GroupOpt: true}}.Start(h.config(10, 0)).(*engine)
	var withTree []*producerState
	roles := map[query.Rel]bool{}
	for _, key := range e.order {
		if ps := e.prodFor(key); ps.tree != nil && ps.tree.Edges() > 0 {
			withTree = append(withTree, ps)
			roles[key.role] = true
		}
	}
	if !roles[query.S] || !roles[query.T] {
		t.Fatalf("need multicast trees on both producer roles, got %v", roles)
	}
	rebuild := func() {
		for _, ps := range withTree {
			e.rebuildTree(ps, true)
		}
	}
	rebuild() // grow the scratch to its steady size
	avg := testing.AllocsPerRun(20, rebuild)
	if per := avg / float64(len(withTree)); per > rebuildTreeAllocBudget {
		t.Fatalf("rebuildTree allocates %.2f objects per call over %d producers, budget %d", per, len(withTree), rebuildTreeAllocBudget)
	}
}

// cutEdge is a fault injector that severs one directed link.
type cutEdge struct{ from, to topology.NodeID }

func (c cutEdge) Link(from, to topology.NodeID) sim.LinkState {
	return sim.LinkState{Cut: from == c.from && to == c.to}
}

// TestMergedPacketCarriesOnlyArrivedTuples: when the merged packet on edge
// c -> p is lost, p's own packet toward its parent carries only the tuples
// that reached p — its own and its other children's — not a payload sized
// for c's lost subtree.
func TestMergedPacketCarriesOnlyArrivedTuples(t *testing.T) {
	h := newHarness(t, "Q1", workload.Rates{SigmaS: 1, SigmaT: 1, SigmaST: 0.2})
	cfg := h.config(1, 0)
	tree := cfg.Sub.Trees[0]
	// Every producer sends every cycle at unit rates; count the senders
	// under each node (a node filling both roles sends one reading).
	below := make([]int, h.topo.N())
	var senders []topology.NodeID
	for _, p := range eligibleProducers(h.spec, h.topo.N()) {
		if n := len(senders); n == 0 || senders[n-1] != p.id {
			senders = append(senders, p.id)
		}
	}
	for _, id := range senders {
		for at := id; at != tree.Root; at = tree.Parent[at] {
			below[at]++
		}
	}
	// Cut the edge c -> p, p not the base, with the most senders below it.
	c := topology.NodeID(-1)
	for i := range below {
		id := topology.NodeID(i)
		if id != tree.Root && tree.Parent[id] != tree.Root && (c < 0 || below[id] > below[c]) {
			c = id
		}
	}
	p := tree.Parent[c]
	if below[c] == 0 {
		t.Fatal("no senders below any interior edge")
	}
	cfg.Net.SetFaults(cutEdge{c, p})
	st := Naive{Merge: true}.Start(cfg)
	st.Step(0)
	reachedP := below[p] - below[c]
	want := int64(sim.HeaderBytes + sim.TupleBytes*reachedP)
	if reachedP == 0 {
		want = 0
	}
	if got := cfg.Net.Metrics().NodeBytes[p]; got != want {
		t.Fatalf("node %d charged %d bytes toward its parent, want %d (%d tuples reached it, %d lost below on %d->%d)",
			p, got, want, reachedP, below[c], c, p)
	}
}
