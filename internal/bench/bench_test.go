package bench

import (
	"path/filepath"
	"strings"
	"testing"
)

// scenario looks one registry entry up by name.
func scenario(t *testing.T, name string) Scenario {
	t.Helper()
	for _, s := range Scenarios() {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("scenario %q missing from registry", name)
	return Scenario{}
}

// TestScenarioRegistry pins the registry to the committed expectation
// file: names are unique, complete, and exactly the file's names in the
// file's order, so a scenario cannot be added, dropped or renamed without
// BENCH_engine.json saying so.
func TestScenarioRegistry(t *testing.T) {
	want, err := ReadFile(filepath.Join("..", "..", "BENCH_engine.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want.SchemaVersion != SchemaVersion {
		t.Fatalf("BENCH_engine.json is schema v%d, package writes v%d", want.SchemaVersion, SchemaVersion)
	}
	ss := Scenarios()
	if len(ss) != len(want.Results) {
		t.Fatalf("registry has %d scenarios, BENCH_engine.json has %d", len(ss), len(want.Results))
	}
	seen := map[string]bool{}
	for i, s := range ss {
		if s.Name == "" || s.Desc == "" || s.Run == nil {
			t.Fatalf("scenario %d (%q) incomplete", i, s.Name)
		}
		if seen[s.Name] {
			t.Fatalf("duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
		if s.Name != want.Results[i].Name {
			t.Errorf("scenario %d is %q, BENCH_engine.json has %q there", i, s.Name, want.Results[i].Name)
		}
	}
}

// TestParallelTwinChecksums: the -w4 scenarios must produce the same
// simulated traffic and checksum as their sequential twins — the
// worker-invariance guarantee at the expectation-file level.
func TestParallelTwinChecksums(t *testing.T) {
	seqTraffic, seqCheck, _ := scenario(t, "engine-16").Run()
	parTraffic, parCheck, _ := scenario(t, "engine-16-w4").Run()
	if seqTraffic != parTraffic || seqCheck != parCheck {
		t.Fatalf("engine-16 twins disagree: (%d,%f) vs (%d,%f)", seqTraffic, seqCheck, parTraffic, parCheck)
	}
	if seqTraffic <= 0 {
		t.Fatalf("engine-16 reported no traffic: %d", seqTraffic)
	}
}

// TestRepairScenarioDeterminism runs the section-7 scenario twice: the
// churn-recovery path must be as reproducible as everything else in the
// expectation file (the churn-1k equivalent is covered by the committed
// checksum via the CI drift gate; it is too heavy for a unit test).
func TestRepairScenarioDeterminism(t *testing.T) {
	s := scenario(t, "repair")
	t1, c1, _ := s.Run()
	t2, c2, _ := s.Run()
	if t1 != t2 || c1 != c2 {
		t.Fatalf("repair scenario not deterministic: (%d,%f) vs (%d,%f)", t1, c1, t2, c2)
	}
	if t1 <= 0 || c1 < 1e3 {
		t.Fatalf("repair scenario repaired nothing: traffic=%d check=%f", t1, c1)
	}
}

// TestTransferScenarioDeterminism runs the cheapest scenario twice and
// checks traffic and checksum are identical — the property the whole
// expectation file depends on.
func TestTransferScenarioDeterminism(t *testing.T) {
	s := scenario(t, "transfer")
	t1, c1, _ := s.Run()
	t2, c2, _ := s.Run()
	if t1 != t2 || c1 != c2 {
		t.Fatalf("transfer scenario not deterministic: (%d,%f) vs (%d,%f)", t1, c1, t2, c2)
	}
	if t1 <= 0 || c1 <= 0 {
		t.Fatalf("transfer scenario produced no traffic/deliveries: %d, %f", t1, c1)
	}
}

// TestReportRoundTripAndCompare runs two scenarios, writes the JSON
// report, reads it back and gates the run against its own report — and
// against the committed file, as the subset run `-run transfer,repair` does.
func TestReportRoundTripAndCompare(t *testing.T) {
	rep, err := Run([]string{"transfer", "repair"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SchemaVersion != SchemaVersion || len(rep.Results) != 2 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	if r := rep.Results[0]; r.Name != "transfer" || r.TrafficBytesPerOp <= 0 || r.Checksum <= 0 {
		t.Fatalf("implausible outcome: %+v", r)
	}
	path := filepath.Join(t.TempDir(), "BENCH_engine.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if fails := Compare(back, rep, true); len(fails) != 0 {
		t.Fatalf("self-comparison should pass: %v", fails)
	}
	committed, err := ReadFile(filepath.Join("..", "..", "BENCH_engine.json"))
	if err != nil {
		t.Fatal(err)
	}
	if fails := Compare(committed, rep, false); len(fails) != 0 {
		t.Fatalf("subset run against the committed file should pass: %v", fails)
	}
}

// TestGateFailureModes drives Compare against a doctored expectation for
// each way the gate can fail and asserts the verdict names the scenario
// and the reason; the same doctoring must pass where the gate is specified
// to let it through.
func TestGateFailureModes(t *testing.T) {
	ran, err := Run([]string{"transfer", "repair"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		// doctor edits the expectation (a copy of the run's own report)
		// and the run (a copy of ran).
		doctor   func(want, got *Report)
		full     bool
		scenario string // "" = the gate must pass
		reason   string
	}{
		{name: "clean", doctor: func(want, got *Report) {}, full: true},
		{name: "checksum drift", doctor: func(want, got *Report) { want.Results[1].Checksum++ },
			scenario: "repair", reason: "checksum drift"},
		{name: "traffic drift", doctor: func(want, got *Report) { want.Results[0].TrafficBytesPerOp-- },
			scenario: "transfer", reason: "traffic drift"},
		{name: "missing on a full run", doctor: func(want, got *Report) {
			want.Results = append(want.Results, Result{Name: "ghost", Checksum: 1})
		}, full: true, scenario: "ghost", reason: "missing"},
		{name: "unselected on a subset run", doctor: func(want, got *Report) {
			want.Results = append(want.Results, Result{Name: "ghost", Checksum: 1})
		}},
		{name: "no expectation", doctor: func(want, got *Report) { want.Results = want.Results[:1] },
			scenario: "repair", reason: "no committed expectation"},
		{name: "heap over ceiling", doctor: func(want, got *Report) {
			got.Results[0].HeapCeiling = 32 << 20
			got.Results[0].HeapBytes = 32<<20 + 1
		}, scenario: "transfer", reason: "over its committed ceiling"},
		{name: "heap at ceiling", doctor: func(want, got *Report) {
			got.Results[0].HeapCeiling = 32 << 20
			got.Results[0].HeapBytes = 32 << 20
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The expectation goes through the file, as the CLI's does.
			path := filepath.Join(t.TempDir(), "want.json")
			if err := ran.WriteFile(path); err != nil {
				t.Fatal(err)
			}
			want, err := ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got := &Report{SchemaVersion: ran.SchemaVersion, Results: append([]Result(nil), ran.Results...)}
			tc.doctor(want, got)
			fails := Compare(want, got, tc.full)
			if tc.scenario == "" {
				if len(fails) != 0 {
					t.Fatalf("gate should pass, got %v", fails)
				}
				return
			}
			if len(fails) != 1 {
				t.Fatalf("want exactly one failure, got %v", fails)
			}
			if !strings.HasPrefix(fails[0], tc.scenario+": ") || !strings.Contains(fails[0], tc.reason) {
				t.Fatalf("failure %q does not name scenario %q and reason %q", fails[0], tc.scenario, tc.reason)
			}
		})
	}
}

// TestRunUnknownScenario checks the error path.
func TestRunUnknownScenario(t *testing.T) {
	if _, err := Run([]string{"nope"}); err == nil {
		t.Fatal("expected error for unknown scenario")
	}
}

// TestCompareSchemaMismatch checks cross-version comparisons are refused —
// a schema-v1 BENCH_engine.json fails the gate instead of passing vacuously.
func TestCompareSchemaMismatch(t *testing.T) {
	a := &Report{SchemaVersion: SchemaVersion - 1}
	b := &Report{SchemaVersion: SchemaVersion}
	if fails := Compare(a, b, true); len(fails) != 1 || !strings.Contains(fails[0], "schema mismatch") {
		t.Fatalf("expected one schema-mismatch failure, got %v", fails)
	}
}
