package engine

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
	"repro/internal/join"
	"repro/internal/sim"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// TestBaselineTrafficUnderChurnGolden pins the exact per-query traffic and
// results of the four grouped-join baselines (and Appendix E merging) run
// through the engine under seeded node churn plus link loss and transient
// link failures: tree repair moves PathToBase mid-run and the hashed
// substrates reroute their members, so the rows witness that the baselines
// resolve tree routes each cycle and repair stored ones.
func TestBaselineTrafficUnderChurnGolden(t *testing.T) {
	const epochs = 60
	var rows []string
	for _, q := range []string{"Q0", "Q1", "Q2", "Q3"} {
		for i := 0; i < 7; i++ {
			e := New(Options{
				Seed:   3,
				Churn:  SeededChurn(7, 100, epochs, 0.004, 5),
				Faults: &faults.Config{Seed: 9, LinkLoss: 0.15, LinkFailRate: 0.01, LinkReviveAfter: 3},
			})
			label, alg := goldenBaseline(e, i)
			qc := QueryConfig{ID: q, Algorithm: alg}
			rates := workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.2}
			switch q {
			case "Q0":
				qc.Spec = workload.Query0(e.Topo, e.Nodes, 10, rates, 7)
			case "Q3":
				qc.Spec = workload.Query3(e.Topo, e.Nodes, rates)
				qc.Sampler = workload.HumiditySampler{H: workload.NewHumidity(e.Topo, 7)}
			default:
				qc.SQL, _ = workload.QueryText(q)
			}
			qq, err := e.Submit(qc)
			if err != nil {
				t.Fatal(err)
			}
			net := qq.net // retirement drops it
			e.Run(epochs)
			rows = append(rows, goldenRow(q+" "+label, net.Metrics(), qq.Result()))
		}
	}
	path := "testdata/baseline_traffic_churn.golden"
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
		t.Fatalf("%d rows, golden has %d", len(rows), len(wantRows))
	}
	for i := range rows {
		if rows[i] != wantRows[i] {
			t.Errorf("row %d:\n got  %s\n want %s", i, rows[i], wantRows[i])
		}
	}
}

// goldenBaseline returns the i-th of the seven baseline variants over e's
// deployment.
func goldenBaseline(e *Engine, i int) (string, join.Continuous) {
	switch i {
	case 0:
		return "Naive", join.Naive{}
	case 1:
		return "Naive+merge", join.Naive{Merge: true}
	case 2:
		return "Base", join.Base{}
	case 3:
		return "Base+merge", join.Base{Merge: true}
	case 4:
		return "Yang+07", join.Yang07{}
	case 5:
		return "GHT", join.Hashed{Label: "GHT", Router: ght.NewRouter(e.Topo)}
	default:
		return "DHT", join.Hashed{Label: "DHT", Router: dht.NewRing(e.Topo)}
	}
}

// goldenRow renders one query's complete traffic and result accounting:
// every sim.Metrics counter, the per-kind bytes, an FNV digest of the
// per-node byte column, and the result totals.
func goldenRow(label string, m *sim.Metrics, res *join.Result) string {
	h := fnv.New64a()
	for _, b := range m.NodeBytes {
		fmt.Fprintf(h, "%d,", b)
	}
	return fmt.Sprintf("%s bytes=%d msgs=%d base=%d/%d kind=%v nodes=%016x drops=%d retx=%d qdrops=%d att=%d del=%d cut=%d dup=%d delay=%d results=%d lost=%d dsum=%d dcount=%d digest=%016x lostdigest=%016x",
		label, m.TotalBytes, m.TotalMessages, m.BaseBytes, m.BaseMessages, m.ByKind, h.Sum64(),
		m.Drops, m.Retransmissions, m.QueueDrops, m.Attempted, m.Delivered, m.CutDrops, m.Duplicates, m.DelaySlots,
		res.Results, res.ResultsLost, res.DelaySum, res.DelayCount, res.Digest, res.LostDigest)
}
