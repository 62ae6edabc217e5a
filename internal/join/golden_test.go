package join

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"repro/internal/dht"
	"repro/internal/faults"
	"repro/internal/ght"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// trafficRow renders one run's complete traffic and result accounting as a
// golden-file line: every sim.Metrics counter, the per-kind bytes, an FNV
// digest of the per-node byte column, and the recorder's totals.
func trafficRow(label string, m *sim.Metrics, res *Result) string {
	h := fnv.New64a()
	for _, b := range m.NodeBytes {
		fmt.Fprintf(h, "%d,", b)
	}
	return fmt.Sprintf("%s bytes=%d msgs=%d base=%d/%d kind=%v nodes=%016x drops=%d retx=%d qdrops=%d att=%d del=%d cut=%d dup=%d delay=%d results=%d lost=%d dsum=%d dcount=%d digest=%016x lostdigest=%016x",
		label, m.TotalBytes, m.TotalMessages, m.BaseBytes, m.BaseMessages, m.ByKind, h.Sum64(),
		m.Drops, m.Retransmissions, m.QueueDrops, m.Attempted, m.Delivered, m.CutDrops, m.Duplicates, m.DelaySlots,
		res.Results, res.ResultsLost, res.DelaySum, res.DelayCount, res.Digest, res.LostDigest)
}

// checkGolden compares rows against testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, rows []string) {
	t.Helper()
	path := "testdata/" + name
	got := strings.Join(rows, "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	wantRows := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantRows) != len(rows) {
		t.Fatalf("%s: %d rows, golden has %d", name, len(rows), len(wantRows))
	}
	for i := range rows {
		if rows[i] != wantRows[i] {
			t.Errorf("%s row %d:\n got  %s\n want %s", name, i, rows[i], wantRows[i])
		}
	}
}

// baselines are the four grouped-join baselines with and without Appendix
// E merging, labelled for golden rows.
func baselines(topo *topology.Topology) []struct {
	label string
	alg   Continuous
} {
	return []struct {
		label string
		alg   Continuous
	}{
		{"Naive", Naive{}},
		{"Naive+merge", Naive{Merge: true}},
		{"Base", Base{}},
		{"Base+merge", Base{Merge: true}},
		{"Yang+07", Yang07{}},
		{"GHT", Hashed{Label: "GHT", Router: ght.NewRouter(topo)}},
		{"DHT", Hashed{Label: "DHT", Router: dht.NewRing(topo)}},
	}
}

// goldenHarness builds the harness for one of Q0..Q2 or Q3 (Query 3's
// both-roles region join over the humidity process).
func goldenHarness(t *testing.T, q string, rates workload.Rates) (*harness, workload.Sampler) {
	if q != "Q3" {
		return newHarness(t, q, rates), nil
	}
	topo := topology.Generate(topology.ModerateRandom, 100, 1)
	nodes := workload.BuildNodes(topo, 1)
	h := &harness{topo: topo, nodes: nodes, spec: workload.Query3(topo, nodes, rates), rates: rates}
	return h, workload.HumiditySampler{H: workload.NewHumidity(topo, 7)}
}

// interiorVictim is the non-base node of the base tree with the most
// children (lowest ID on ties): failing it cuts a subtree off the base.
func interiorVictim(cfg *Config) topology.NodeID {
	tree := cfg.Sub.Trees[0]
	victim, most := topology.NodeID(-1), 0
	for i := topology.NodeID(1); int(i) < len(tree.Parent); i++ {
		if c := len(tree.ChildrenOf(i)); c > most {
			victim, most = i, c
		}
	}
	return victim
}

// TestBaselineTrafficGolden pins the exact traffic and results of every
// baseline on every query shape under loss, a mid-run interior node
// failure and bounded relay queues: the transfer sequence is behaviour
// (loss draws and queue drops depend on it), so any change to how the
// baselines route, charge or join shows up as a row diff.
func TestBaselineTrafficGolden(t *testing.T) {
	const cycles, failAt = 60, 20
	rates := workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.2}
	var rows []string
	for _, q := range []string{"Q0", "Q1", "Q2", "Q3"} {
		h, sampler := goldenHarness(t, q, rates)
		run := func(label string, alg Continuous, loss float64, queue int, fail bool) {
			cfg := h.config(cycles, loss)
			if sampler != nil {
				cfg.Sampler = sampler
			}
			cfg.Net.QueueLimit = queue
			st := alg.Start(cfg)
			if fail {
				driveCycles(st, 0, failAt)
				victim := interiorVictim(cfg)
				cfg.Net.Fail(victim)
				st.Recover([]topology.NodeID{victim}, nil)
				driveCycles(st, failAt, cycles)
			} else {
				driveCycles(st, 0, cycles)
			}
			res := st.Finish()
			rows = append(rows, trafficRow(q+" "+label, cfg.Net.Metrics(), res))
		}
		for _, b := range baselines(h.topo) {
			run(b.label+" lossless", b.alg, 0, 0, false)
			run(b.label+" loss5", b.alg, 0.05, 0, false)
			run(b.label+" fail", b.alg, 0, 0, true)
		}
		run("Yang+07 queue8", Yang07{}, 0, 8, false)
	}
	checkGolden(t, "baseline_traffic.golden", rows)
}

// innetStepVariants are the In-Net variants whose data paths differ:
// unicast segments, multicast trees with GROUPOPT, and the latter learning.
func innetStepVariants() []struct {
	label string
	alg   Continuous
} {
	var variants []struct {
		label string
		alg   Continuous
	}
	cmg := Innet{Opts: InnetOptions{Multicast: true, GroupOpt: true}}
	for _, alg := range []Continuous{Innet{}, cmg, learning{cmg}} {
		variants = append(variants, struct {
			label string
			alg   Continuous
		}{alg.Name(), alg})
	}
	return variants
}

// checkStepAllocs: after a one-cycle warm-up, the one data path — merged
// delivery, tree walks and learning observations included — allocates
// nothing per Step for any of variants, with or without a fault plan. Its
// buffers are sized when the route table is written, link ids are resolved
// with the paths they belong to (a multicast tree's on its first walk), and
// retained windows are rings sized when their producer is created.
func checkStepAllocs(t *testing.T, h *harness, variants []struct {
	label string
	alg   Continuous
}) {
	t.Helper()
	for _, faulted := range []bool{false, true} {
		for _, v := range variants {
			cfg := h.config(0, 0)
			if faulted {
				plan := faults.NewPlan(h.topo, faults.Config{Seed: 5, LinkLoss: 0.1, LinkFailRate: 0.02, DupProb: 0.05, DelayMax: 2})
				plan.BeginEpoch(0)
				cfg.Net.SetFaults(plan)
			}
			st := v.alg.Start(cfg)
			cycle := 0
			step := func() {
				st.Step(cycle)
				cycle++
			}
			step()
			if avg := testing.AllocsPerRun(20, step); avg != 0 {
				t.Errorf("%s (faults %v): Step allocates %.1f objects per cycle", v.label, faulted, avg)
			}
		}
	}
}

// TestBaselineStepAllocs runs checkStepAllocs over the seven baselines,
// the two merge variants among them.
func TestBaselineStepAllocs(t *testing.T) {
	h := newHarness(t, "Q1", workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.2})
	checkStepAllocs(t, h, baselines(h.topo))
}

// TestInnetStepAllocs runs checkStepAllocs over the In-Net variants.
func TestInnetStepAllocs(t *testing.T) {
	h := newHarness(t, "Q1", workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.2})
	checkStepAllocs(t, h, innetStepVariants())
}

// BenchmarkStep times one steady cycle of every variant checkStepAllocs
// covers, on its setup.
func BenchmarkStep(b *testing.B) {
	h := newHarness(b, "Q1", workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.2})
	for _, v := range append(baselines(h.topo), innetStepVariants()...) {
		b.Run(v.label, func(b *testing.B) {
			st := v.alg.Start(h.config(0, 0))
			st.Step(0)
			b.ReportAllocs()
			for cycle := 1; b.Loop(); cycle++ {
				st.Step(cycle)
			}
		})
	}
}
