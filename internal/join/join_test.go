package join

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/dht"
	"repro/internal/ght"
	"repro/internal/mpo"
	"repro/internal/query"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/window"
	"repro/internal/workload"
)

// harness bundles one reproducible experimental setup.
type harness struct {
	topo  *topology.Topology
	nodes []workload.NodeInfo
	spec  *workload.Spec
	rates workload.Rates
}

func newHarness(t testing.TB, queryName string, rates workload.Rates) *harness {
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

// checked is an In-Net stepper whose every Step, Adapt and Recover is
// followed by checkHandles.
type checked struct {
	*engine
	t testing.TB
}

// checkedInnet starts alg on cfg under checkHandles.
func checkedInnet(t testing.TB, alg Innet, cfg *Config) checked {
	return checked{alg.Start(cfg).(*engine), t}
}

func (c checked) Step(cycle int) {
	c.engine.Step(cycle)
	checkHandles(c.t, c.engine)
}

func (c checked) Adapt(cycle int) (migrated, aborted int) {
	migrated, aborted = c.engine.Adapt(cycle)
	checkHandles(c.t, c.engine)
	return migrated, aborted
}

func (c checked) Recover(failed []topology.NodeID, rp *routing.Repairer) (repaired, fallbacks int) {
	repaired, fallbacks = c.engine.Recover(failed, rp)
	checkHandles(c.t, c.engine)
	return repaired, fallbacks
}

// checkHandles fails unless every live pair's window handles still name its
// producers in the join state at its join node.
func checkHandles(t testing.TB, e *engine) {
	t.Helper()
	for i, p := range e.pairs {
		if p.dead {
			continue
		}
		j := p.joinNode()
		if e.siteAt[j] == nil || p.site != e.siteAt[j] {
			t.Fatalf("pair %d (%d,%d): not registered at the join site of its join node %d", i, p.s, p.t, j)
		}
		// Registering a registered pair changes nothing and returns its
		// producers' slots.
		st := &p.site.st
		pairs := st.Pairs()
		s, tt := st.AddPair(p.s, p.t)
		if st.Pairs() != pairs || s != p.sSlot || tt != p.tSlot {
			t.Fatalf("pair %d (%d,%d) at %d: handles %d/%d, state slots %d/%d (registered: %v)",
				i, p.s, p.t, j, p.sSlot, p.tSlot, s, tt, st.Pairs() == pairs)
		}
	}
}

// learning runs an In-Net variant with section 6's learning switched on
// (Config.Adapt), as the engine does under Options.Adapt.
type learning struct{ Innet }

func (l learning) Name() string { return l.Innet.Name() + " learn" }

func (l learning) Start(cfg *Config) Stepper {
	cfg.Adapt = true
	return l.Innet.Start(cfg)
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
		learning{Innet{}},
		learning{Innet{Opts: InnetOptions{Multicast: true, GroupOpt: true}}},
		learning{Innet{Opts: InnetOptions{Multicast: true, PathCollapse: true, GroupOpt: true}}},
	}
}

func TestAllAlgorithmsDeliverIdenticalResults(t *testing.T) {
	// On a lossless network every algorithm computes the same windowed
	// join over the same data, the one the network-free referenceJoin
	// computes when its producers take their turns in the algorithm's own
	// cycle order (turnOrder). Every algorithm must deliver it EXACTLY,
	// tuple for tuple: same count and same digest. That includes the
	// learning variants: a migration moves window state without losing or
	// duplicating a match.
	for _, q := range []string{"Q0", "Q1", "Q2"} {
		h := newHarness(t, q, workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.2})
		for _, alg := range allAlgorithms(h) {
			cfg := h.config(60, 0)
			ref := referenceJoin(h.spec, cfg.Sampler, cfg.Cycles, turnOrder(alg, h.spec, h.topo.N()), nil)
			if ref.n == 0 {
				t.Fatalf("%s: the reference join produced no results — workload degenerate", q)
			}
			if res := drive(alg, cfg); res.Results != ref.n || res.Digest != ref.sum {
				t.Errorf("%s: %s delivered %d results (digest %#x), the reference join %d (digest %#x)", q, alg.Name(), res.Results, res.Digest, ref.n, ref.sum)
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
	learned := drive(learning{Innet{}}, learnCfg)

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
				cfg.Adapt = learn
				st := checkedInnet(t, Innet{Opts: opts}, cfg)
				driveCycles(st, 0, cfg.Cycles)
				return st.Finish()
			}
			frozen, learned := run(false), run(true)
			if learned.Migrations == 0 {
				t.Errorf("%s %s: never migrated despite wrong estimates", q, learned.Algorithm)
			}
			if learned.Results != frozen.Results || learned.Digest != frozen.Digest {
				t.Errorf("%s %s: delivered %d results (digest %#x), frozen placement delivered %d (digest %#x; %d migrations)",
					q, learned.Algorithm, learned.Results, learned.Digest, frozen.Results, frozen.Digest, learned.Migrations)
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
	noFailCfg := h.config(100, 0)
	noFail := drive(Innet{}, noFailCfg)
	var victim topology.NodeID = -1
	var best int64
	for i, b := range noFailCfg.Net.Metrics().NodeBytes {
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
	st := checkedInnet(t, Innet{}, failCfg)
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
func silentJoinFailure(t *testing.T, failAt int) (e checked, p *pairState, healthy int) {
	t.Helper()
	rates := workload.Rates{SigmaS: 1, SigmaT: 1, SigmaST: 1}
	h := newHarness(t, "Q0", rates)
	for seed := uint64(1); seed < 50; seed++ {
		h.spec = workload.Query0(h.topo, h.nodes, 1, rates, seed)
		cfg := h.config(0, 0)
		cfg.Opt.SigmaST = 0.1
		e = checkedInnet(t, Innet{}, cfg)
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
	return checked{}, nil, 0
}

// TestRecoverKeepsHandles: the deployment-wide recovery sweep repairs or
// falls back the pairs whose paths cross a failed join node, re-registering
// the fallen-back ones at the base, and the query keeps producing.
func TestRecoverKeepsHandles(t *testing.T) {
	h := newHarness(t, "Q1", workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.05})
	for i, opts := range []InnetOptions{{}, {Multicast: true, GroupOpt: true}} {
		cfg := h.config(0, 0)
		cfg.Adapt = i == 1
		e := checkedInnet(t, Innet{Opts: opts}, cfg)
		driveCycles(e, 0, 20)
		victim := topology.NodeID(-1)
		for _, p := range e.pairs {
			if j := p.joinNode(); p.jIdx > 0 && j != p.t {
				victim = j
				break
			}
		}
		if victim < 0 {
			t.Fatalf("%s: no pair joins at an interior node", Innet{Opts: opts}.Name())
		}
		cfg.Net.Fail(victim)
		repaired, fallbacks := e.Recover([]topology.NodeID{victim}, routing.NewRepairer(h.topo, cfg.Net, 0))
		if repaired+fallbacks == 0 {
			t.Fatalf("%s: failing join node %d broke no pair", Innet{Opts: opts}.Name(), victim)
		}
		results := e.Result().Results
		driveCycles(e, 20, 40)
		if e.Result().Results <= results {
			t.Fatalf("%s: no results after the recovery sweep", Innet{Opts: opts}.Name())
		}
	}
}

// recordingSampler logs every tuple its producers send, per producer slot.
type recordingSampler struct {
	workload.Sampler
	sent map[producerKey][]window.Tuple
}

func (r recordingSampler) Sample(id topology.NodeID, role query.Rel, cycle int) (int32, bool) {
	v, send := r.Sampler.Sample(id, role, cycle)
	if send {
		k := producerKey{id, role}
		r.sent[k] = append(r.sent[k], window.Tuple{Producer: id, Value: v, Cycle: cycle})
	}
	return v, send
}

// TestFallbackReplaysLastWindow: after more than w sends, a pair that falls
// back to the base replays exactly each producer's last w tuples, oldest
// first — the retained ring wrapped several times.
func TestFallbackReplaysLastWindow(t *testing.T) {
	h := newHarness(t, "Q0", workload.Rates{SigmaS: 1, SigmaT: 1, SigmaST: 0.2})
	cfg := h.config(0, 0)
	rec := recordingSampler{cfg.Sampler, map[producerKey][]window.Tuple{}}
	cfg.Sampler = rec
	e := checkedInnet(t, Innet{}, cfg)
	w := cfg.Spec.W
	driveCycles(e, 0, 3*w+1)
	base := &e.siteOf(topology.Base).st
	for _, p := range e.pairs {
		if p.jIdx < 0 || base.WindowLen(p.s) > 0 || base.WindowLen(p.t) > 0 {
			continue
		}
		old := placement{p.jIdx, p.joinNode()}
		p.jIdx = -1
		e.move(p, old, false)
		checkHandles(t, e.engine)
		e.settle()
		for _, k := range []producerKey{{p.s, query.S}, {p.t, query.T}} {
			sent := rec.sent[k]
			if len(sent) <= w {
				t.Fatalf("producer %v sent %d tuples, want more than w = %d", k, len(sent), w)
			}
			got, _ := base.Snapshot(k.id)
			if want := sent[len(sent)-w:]; !reflect.DeepEqual(got, want) {
				t.Fatalf("producer %v replayed %v, want its last %d sent %v", k, got, w, want)
			}
		}
		return
	}
	t.Fatal("no in-network pair whose producers the base does not buffer")
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
		base := &e.siteOf(topology.Base).st
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

// TestDetectionSweepChargesEachPair: when one silent failure breaks two
// pairs at the same gap, the detection-clock sweep charges each pair's
// repair its own exploration probes, as its producers explore on their own.
func TestDetectionSweepChargesEachPair(t *testing.T) {
	h := newHarness(t, "Q1", workload.Rates{SigmaS: 1, SigmaT: 1, SigmaST: 1})
	cfg := h.config(0, 0)
	cfg.Opt.SigmaST = 0.1 // placed in-network, as fig 14's workload is
	e := checkedInnet(t, Innet{}, cfg)
	driveCycles(e, 0, 3)
	// A victim interior to two in-network pairs' paths, between the same
	// two nodes on both and joining neither.
	type gap struct{ pred, v, succ topology.NodeID }
	seen := map[gap]*pairState{}
	var v topology.NodeID = -1
	var broken []*pairState
	for _, p := range e.pairs {
		for i := 1; v < 0 && p.jIdx >= 0 && i < len(p.path)-1; i++ {
			g := gap{p.path[i-1], p.path[i], p.path[i+1]}
			if i == p.jIdx || g.v == topology.Base {
				continue
			}
			if q := seen[g]; q != nil && q.joinNode() != g.v {
				v, broken = g.v, []*pairState{q, p}
			}
			seen[g] = p
		}
	}
	if v < 0 {
		t.Fatal("no two pairs share a gap")
	}
	cfg.Net.Fail(v)
	for cycle := 3; cycle < 3+3*failureRecoveryCycles; cycle++ {
		if e.nextRecover == 0 || cycle < e.nextRecover {
			e.Step(cycle)
			continue
		}
		// Each repair the sweep will run, priced on a private network.
		want, shared := int64(0), 0
		for _, p := range e.pairs {
			if p.dead || p.jIdx < 0 || p.recoverAt == 0 || p.recoverAt > cycle ||
				!p.path.Contains(v) || p.s == v || p.t == v || p.joinNode() == v {
				continue
			}
			if p == broken[0] || p == broken[1] {
				shared++
			}
			net := sim.NewNetwork(h.topo, 0, 1)
			net.Fail(v)
			routing.NewRepairer(h.topo, net, 0).Repair(p.path)
			want += net.Metrics().KindBytes(sim.Control)
		}
		if shared != 2 {
			t.Fatalf("the sweep at cycle %d repairs %d of the two pairs sharing a gap", cycle, shared)
		}
		ctl := cfg.Net.Metrics().KindBytes(sim.Control)
		e.Step(cycle)
		if got := cfg.Net.Metrics().KindBytes(sim.Control) - ctl; got != want {
			t.Fatalf("sweep charged %d probe bytes, want %d (each broken pair's own exploration)", got, want)
		}
		return
	}
	t.Fatal("the detection clock never came due")
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
	// A site ships its batch, however many matches, as a single transfer:
	// message count at a 1-hop join node must be 1.
	h := newHarness(t, "Q0", workload.Rates{SigmaS: 1, SigmaT: 1, SigmaST: 1})
	cfg := h.config(0, 0)
	s := newSiteStepper(cfg, "test")
	before := cfg.Net.Metrics().TotalMessages
	at := &site{node: cfg.Sub.Trees[0].ChildrenOf(topology.Base)[0], batch: tally{n: 5}}
	s.sites = []*site{at}
	s.send(at, 3)
	msgs := cfg.Net.Metrics().TotalMessages - before
	if msgs != 1 {
		t.Fatalf("5 results sent as %d messages, want 1 merged packet", msgs)
	}
	if s.res.Results != 5 || at.batch.n != 0 {
		t.Fatalf("recorded %d results, want 5; %d left in the batch", s.res.Results, at.batch.n)
	}
}

func TestRecorderDelays(t *testing.T) {
	res := &Result{}
	r := newRecorder(res)
	r.record(tally{n: 1}, 5)
	r.record(tally{n: 1}, 9)
	r.record(tally{n: 2}, 12)
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

// TestRecorderAllocatesNothing: the delay statistic and the digest are
// running sums, so folding and recording 100k results allocates nothing
// however long the run. testing.AllocsPerRun counts the mallocs of one
// call recording 100k results, after a warm-up call recording 100k more,
// with GOMAXPROCS held at 1, so nothing else in the test binary allocates
// in parallel with the loop.
func TestRecorderAllocatesNothing(t *testing.T) {
	r := newRecorder(&Result{})
	ms := []window.Match{{S: 1, T: 2}, {S: 3, T: 2}}
	cycle := 0
	record := func() {
		for end := cycle + 50_000; cycle < end; cycle++ {
			ms[0].Cycle, ms[1].Cycle = cycle, cycle
			var b tally
			b.add(ms)
			r.record(b, cycle)
		}
	}
	if allocs := testing.AllocsPerRun(1, record); allocs != 0 {
		t.Fatalf("recording 100k results allocated %.0f objects", allocs)
	}
	if r.res.Results != 200_000 || r.res.DelayCount != 199_999 || r.res.DelaySum != 99_999 {
		t.Fatalf("results %d, delay sum/count %d/%d", r.res.Results, r.res.DelaySum, r.res.DelayCount)
	}
	if r.res.Digest == 0 || r.res.LostDigest != 0 {
		t.Fatalf("digest %x, lost digest %x", r.res.Digest, r.res.LostDigest)
	}
}

// TestDigestIsOrderFreeAndFieldSensitive: a batch's digest does not depend
// on the order its matches were folded or split in, and moves when any one
// field of one match does; delivered and lost batches land in their own
// digests.
func TestDigestIsOrderFreeAndFieldSensitive(t *testing.T) {
	ms := []window.Match{{S: 1, T: 2, SV: 5, TV: 5, Cycle: 7, OldCycle: 6}, {S: 3, T: 4, SV: 1, TV: 2, Cycle: 7, OldCycle: 5}, {S: 1, T: 4, SV: 5, TV: 2, Cycle: 8, OldCycle: 8}}
	var whole, split tally
	whole.add(ms)
	split.add(ms[2:])
	split.add([]window.Match{ms[1], ms[0]})
	if whole != split {
		t.Fatalf("digest depends on order: %+v vs %+v", whole, split)
	}
	for f, bump := range []func(m *window.Match){
		func(m *window.Match) { m.S++ },
		func(m *window.Match) { m.T++ },
		func(m *window.Match) { m.SV++ },
		func(m *window.Match) { m.TV++ },
		func(m *window.Match) { m.Cycle++ },
		func(m *window.Match) { m.OldCycle++ },
	} {
		moved := slices.Clone(ms)
		bump(&moved[1])
		var b tally
		b.add(moved)
		if b.sum == whole.sum {
			t.Errorf("changing field %d of one match left the digest at %x", f, b.sum)
		}
	}
	res := &Result{}
	r := newRecorder(res)
	r.record(tally{n: 2, sum: 10}, 1)
	r.drop(tally{n: 1, sum: 7})
	if res.Results != 2 || res.Digest != 10 || res.ResultsLost != 1 || res.LostDigest != 7 {
		t.Fatalf("recorder: %d/%x delivered, %d/%x lost", res.Results, res.Digest, res.ResultsLost, res.LostDigest)
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
		if cfg2.Net.Alive(l.to) && cfg2.Net.Alive(r.id) && l.path.Contains(victim) {
			t.Fatalf("member %d routed through pre-failed node %d: %v", r.id, victim, l.path)
		}
	}
}

// TestDeadTargetJoinsNothing: a Yang+07 target that dies stops sampling.
// Its own reading no longer arrives at the join state it hosts, so the
// sources' tuples buffered there join nothing at the dead node, and no
// result is booked lost for want of a live node to ship it from.
func TestDeadTargetJoinsNothing(t *testing.T) {
	const failAt = 10
	h := newHarness(t, "Q1", workload.Rates{SigmaS: 1, SigmaT: 1, SigmaST: 1})
	cfg := h.config(0, 0)
	st := Yang07{}.Start(cfg).(*siteStepper)
	// A target no other node routes through, so its death cuts off no
	// other site's results.
	var victim *route
	for i, r := range st.routes {
		if r.role == query.T && len(cfg.Sub.Trees[0].ChildrenOf(r.id)) == 0 {
			victim = &st.routes[i]
			break
		}
	}
	if victim == nil {
		t.Fatal("no leaf target")
	}
	state := &st.legs[victim.first].at.st
	driveCycles(st, 0, failAt)
	cfg.Net.Fail(victim.id)
	lost := st.Result().ResultsLost
	driveCycles(st, failAt, 2*failAt)
	if got := st.Result().ResultsLost; got != lost {
		t.Errorf("dead target %d: %d results booked lost while it was dead", victim.id, got-lost)
	}
	own, _ := state.Snapshot(victim.id)
	if last := own[len(own)-1].Cycle; last >= failAt {
		t.Errorf("dead target %d: its own reading of cycle %d arrived at its window", victim.id, last)
	}
}

// rebuildTreeAllocBudget is what one rebuildTree call may allocate once
// the tree's edge storage has grown: nothing. The tree is rebuilt in place,
// and the segment list, the reversed t-side hops and the mpo.Builder
// scratch are all reused across calls, so losing any of that reuse shows
// up here rather than in a benchmark.
const rebuildTreeAllocBudget = 0

// multicastEngine starts a multicast GROUPOPT In-Net run and returns it
// with the producers that hold a tree with edges, on both roles.
func multicastEngine(tb testing.TB) (*engine, []*producerState) {
	tb.Helper()
	h := newHarness(tb, "Q1", workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.05})
	e := Innet{Opts: InnetOptions{Multicast: true, GroupOpt: true}}.Start(h.config(10, 0)).(*engine)
	var withTree []*producerState
	roles := map[query.Rel]bool{}
	for _, ps := range e.producers {
		if ps.tree != nil && ps.tree.Edges() > 0 {
			withTree = append(withTree, ps)
			roles[ps.key.role] = true
		}
	}
	if !roles[query.S] || !roles[query.T] {
		tb.Fatalf("need multicast trees on both producer roles, got %v", roles)
	}
	return e, withTree
}

func TestRebuildTreeAllocs(t *testing.T) {
	e, withTree := multicastEngine(t)
	trees := make([]*mpo.MulticastTree, len(withTree))
	for i, ps := range withTree {
		trees[i] = ps.tree
	}
	rebuild := func() {
		for _, ps := range withTree {
			e.rebuildTree(ps)
		}
	}
	rebuild() // grow the scratch to its steady size
	avg := testing.AllocsPerRun(20, rebuild)
	if per := avg / float64(len(withTree)); per > rebuildTreeAllocBudget {
		t.Fatalf("rebuildTree allocates %.2f objects per call over %d producers, budget %d", per, len(withTree), rebuildTreeAllocBudget)
	}
	for i, ps := range withTree {
		if ps.tree != trees[i] {
			t.Fatalf("producer %v got a new tree: rebuilds are in place", ps.key)
		}
	}
}

func BenchmarkRebuildTree(b *testing.B) {
	e, withTree := multicastEngine(b)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		e.rebuildTree(withTree[i%len(withTree)])
	}
}

// cutEdge is a fault injector that severs one directed link.
type cutEdge struct{ from, to topology.NodeID }

func (c cutEdge) Link(from, to topology.NodeID) sim.LinkState {
	return sim.LinkState{Cut: from == c.from && to == c.to}
}

func (c cutEdge) Cut(from, to topology.NodeID) bool { return c.Link(from, to).Cut }

// cutEdge keeps no link ids: every hop is found by its endpoints.
func (c cutEdge) HopLink(from, to topology.NodeID) int32 { return -1 }

func (c cutEdge) LinkAt(from, to topology.NodeID, _ int32) sim.LinkState { return c.Link(from, to) }

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

// TestBaseLegsFollowTreeRepair: a stepper's base legs and sites' result
// batches walk the base tree when they are sent, so a tree repair reaches
// them at once. A one-route Naive table steps once, the producer's parent
// fails and PatchTreeLive reparents the producer, and the next Step must
// charge exactly one message per hop of the producer's new path to the
// base. Then Naive, Base, Yang+07 and In-Net must record no drop in their
// first Step after the repair on the lossless network: each sends over the
// base tree (In-Net's pair paths here avoid the dead node), and a send on
// the tree as it stood would cross the dead node.
func TestBaseLegsFollowTreeRepair(t *testing.T) {
	h := newHarness(t, "Q1", workload.Rates{SigmaS: 1, SigmaT: 1, SigmaST: 1})
	cfg := h.config(0, 0)
	tree := cfg.Sub.Trees[0]
	// The deepest producer whose parent's failure leaves it attached.
	var p, v topology.NodeID = -1, -1
	for _, id := range tree.DeepFirst() {
		if par := tree.Parent[id]; par > topology.Base {
			live := topology.NewLiveness(h.topo.N())
			live.Fail(par)
			if depth, _ := h.topo.BFSLive(topology.Base, live); depth[id] >= 0 {
				p, v = id, par
				break
			}
		}
	}
	if p < 0 {
		t.Fatal("no node survives its parent's failure")
	}
	s := startAtBase(cfg, "Naive", false, []producerKey{{p, query.S}}, false).(*siteStepper)
	charges := func(cycle int) routing.Path {
		t.Helper()
		before := slices.Clone(cfg.Net.Metrics().NodeBytes)
		s.Step(cycle)
		if !s.sent[0] {
			t.Fatalf("producer %d did not send in cycle %d", p, cycle)
		}
		// The producer sends one message; every relay charges the same size.
		after := cfg.Net.Metrics().NodeBytes
		size := after[p] - before[p]
		var senders routing.Path
		for id, b := range after {
			if (b-before[id])%size != 0 {
				t.Fatalf("node %d sent %d bytes, not a whole number of %d-byte messages", id, b-before[id], size)
			}
			for k := before[id]; k < b; k += size {
				senders = append(senders, topology.NodeID(id))
			}
		}
		return senders
	}
	// The senders of a path up to the base, in node order.
	hops := func(path routing.Path) routing.Path {
		senders := slices.Clone(path[:len(path)-1])
		slices.Sort(senders)
		return senders
	}
	old := cfg.Sub.PathToBase(p)
	if got := charges(0); !slices.Equal(got, hops(old)) {
		t.Fatalf("before the repair: senders %v, want those of %v", got, old)
	}
	cfg.Net.Fail(v)
	routing.PatchTreeLive(h.topo, tree, nil, cfg.Net.Liveness(), nil)
	repaired := cfg.Sub.PathToBase(p)
	if repaired.Contains(v) || tree.Stale(p) {
		t.Fatalf("the repair left %d on %v", v, repaired)
	}
	if got := charges(1); !slices.Equal(got, hops(repaired)) {
		t.Fatalf("after the repair: senders %v, want those of %v (was %v)", got, repaired, old)
	}

	for _, alg := range []Continuous{Naive{}, Base{}, Yang07{}, Innet{}} {
		cfg := h.config(0, 0)
		st := alg.Start(cfg)
		st.Step(0)
		cfg.Net.Fail(v)
		cfg.Sub.RepairTrees(nil, cfg.Net.Liveness(), []topology.NodeID{v})
		before := *cfg.Net.Metrics()
		st.Step(1)
		m := cfg.Net.Metrics()
		if m.Drops != before.Drops || m.Delivered == before.Delivered {
			t.Fatalf("%s: the Step after the repair dropped %d of %d transfers", alg.Name(), m.Drops-before.Drops, m.Attempted-before.Attempted)
		}
	}
}
