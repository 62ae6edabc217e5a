// White-box tests for the section-6 entry point (Stepper.Adapt): cycle
// idempotence, single-charged migration traffic, and the
// migration-versus-failure race — a nominated target that died this epoch
// must abort into the section-7 base fallback with the pair's window
// intact and no state installed at the dead node.

package join

import (
	"testing"

	"repro/internal/costmodel"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// adaptHarness starts a learning In-Net stepper with deliberately wrong optimizer estimates, so learning will trigger a
// migration within a few estimate intervals. Every Step, Adapt and Recover
// of it checks the pairs' window handles.
func adaptHarness(t *testing.T, opts InnetOptions) (*harness, checked) {
	t.Helper()
	h := newHarness(t, "Q0", workload.Rates{SigmaS: 0.1, SigmaT: 1, SigmaST: 0.2})
	cfg := h.config(100, 0)
	cfg.Opt = costmodel.Params{SigmaS: 1, SigmaT: 0.1, SigmaST: 0.2, W: h.spec.W}
	cfg.Adapt = true
	return h, checkedInnet(t, Innet{Opts: opts}, cfg)
}

// placements snapshots every pair's current join node, keyed by pair index.
func placements(e checked) []topology.NodeID {
	out := make([]topology.NodeID, len(e.pairs))
	for i, p := range e.pairs {
		out[i] = p.joinNode()
	}
	return out
}

// TestAdaptEpochIdempotentAndSingleCharged: closing the same cycle twice
// must not re-trigger (the adapt.Estimator idempotence contract carried
// through the stepper), and migration traffic — window snapshots plus
// re-nominations — lands exactly once, in the sim.Migration ledger class.
func TestAdaptEpochIdempotentAndSingleCharged(t *testing.T) {
	_, e := adaptHarness(t, InnetOptions{})
	migrated := 0
	cycle := 0
	for ; cycle < 60; cycle++ {
		e.Step(cycle)
		m, a := e.Adapt(cycle)
		if a != 0 {
			t.Fatalf("cycle %d: aborted %d migrations with every node alive", cycle, a)
		}
		if m > 0 {
			migrated = m
			break
		}
	}
	if migrated == 0 {
		t.Fatal("wrong estimates never triggered a migration")
	}
	migBytes := e.cfg.Net.Metrics().KindBytes(sim.Migration)
	if migBytes == 0 {
		t.Fatal("committed migration charged no sim.Migration traffic")
	}
	if ctl := e.cfg.Net.Metrics().KindBytes(sim.Control); ctl == 0 {
		t.Fatal("initiation control traffic missing — ledger classes conflated?")
	}
	before := e.cfg.Net.Metrics().TotalBytes
	m, a := e.Adapt(cycle)
	if m != 0 || a != 0 {
		t.Fatalf("re-closing cycle %d re-triggered: migrated=%d aborted=%d", cycle, m, a)
	}
	if after := e.cfg.Net.Metrics().TotalBytes; after != before {
		t.Fatalf("idempotent re-close charged %d bytes", after-before)
	}
}

// TestAdaptEpochAbortsOnDeadTarget is property (d) at the join layer: a
// twin run discovers which node the first triggered migration nominates;
// the real run then faces a deployment in which exactly that node died
// this epoch. The commit must abort — pair at the base station,
// window preserved, nothing registered at the dead target.
func TestAdaptEpochAbortsOnDeadTarget(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts InnetOptions
	}{
		{"individual", InnetOptions{}},
		{"groupopt", InnetOptions{Multicast: true, GroupOpt: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, twin := adaptHarness(t, tc.opts)
			_, real := adaptHarness(t, tc.opts)
			for cycle := 0; cycle < 60; cycle++ {
				twin.Step(cycle)
				real.Step(cycle)
				before := placements(twin)
				m, _ := twin.Adapt(cycle)
				if m == 0 {
					real.Adapt(cycle)
					continue
				}
				// The twin migrated. Find the first moved pair and its
				// in-network target, then replay the same epoch in the
				// real engine with that target dead.
				moved := -1
				for i := range twin.pairs {
					if twin.pairs[i].joinNode() != before[i] && twin.pairs[i].jIdx >= 0 {
						moved = i
						break
					}
				}
				if moved < 0 {
					t.Skip("every migration this epoch landed at the base; no target to kill")
				}
				target := twin.pairs[moved].joinNode()
				real.cfg.Net.Fail(target)
				_, aborted := real.Adapt(cycle)
				if aborted < 1 {
					t.Fatalf("dead target %d did not abort any migration", target)
				}
				p := real.pairs[moved]
				if p.joinNode() == target {
					t.Fatalf("pair %d committed onto dead node %d", moved, target)
				}
				if p.jIdx >= 0 {
					t.Fatalf("aborted pair %d not at the base station (join node %d)", moved, p.joinNode())
				}
				if real.res.MigrationsAborted != aborted {
					t.Fatalf("result counter %d != returned aborts %d", real.res.MigrationsAborted, aborted)
				}
				// Window intact: the producers' retained tuples must be
				// queryable at the base, not stranded at the dead node.
				base := &real.siteOf(topology.Base).st
				if ps := p.prodS; ps != nil && ps.recent.Len() > 0 && base.WindowLen(p.s) == 0 {
					t.Fatalf("producer %d window lost in the abort", p.s)
				}
				// The pair must keep producing after the abort.
				resultsAt := real.Result().Results
				driveCycles(real, cycle+1, cycle+30)
				if real.Result().Results <= resultsAt {
					t.Fatal("no results delivered after the aborted migration")
				}
				return
			}
			t.Fatal("wrong estimates never triggered a migration")
		})
	}
}
