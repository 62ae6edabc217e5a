package bench

import (
	"flag"
	"os"
	"slices"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/scenarios.golden from this run")

const goldenPath = "testdata/scenarios.golden"

// TestScenarios is the drift gate. Each scenario runs once, in registry
// order and never in parallel (the heap reading is the process's own), as
// a subtest of its name; it fails if its row differs from its golden row
// or has none, if its live heap is over its ceiling, or — for a "-w4"
// twin — if its row differs from its sequential sibling's. A golden row
// naming no registered scenario, or rows out of registry order, fail too.
// Under -update the file is rewritten: the scenarios that ran get this
// run's row, the others keep theirs.
func TestScenarios(t *testing.T) {
	want := map[string]string{}
	var wantNames []string
	data, err := os.ReadFile(goldenPath)
	if err != nil && !*updateGolden {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if name, row, _ := strings.Cut(line, " "); name != "" {
			want[name] = row
			wantNames = append(wantNames, name)
		}
	}

	got := map[string]string{}
	var names, lines []string
	for _, s := range Scenarios() {
		names = append(names, s.Name)
		t.Run(s.Name, func(t *testing.T) {
			row, heap := s.Run()
			got[s.Name] = row
			if s.HeapCeiling > 0 {
				t.Logf("live heap %.2f MB (ceiling %.2f MB)", float64(heap)/(1<<20), float64(s.HeapCeiling)/(1<<20))
				if heap > s.HeapCeiling {
					t.Errorf("%s: live heap %d bytes over its ceiling %d", s.Name, heap, s.HeapCeiling)
				}
			}
			if sib, twin := strings.CutSuffix(s.Name, "-w4"); twin {
				sibRow, ran := got[sib]
				if !ran {
					sibRow = want[sib]
				}
				if row != sibRow {
					t.Errorf("%s differs from its twin %s:\n %s %s\n %s %s", s.Name, sib, s.Name, row, sib, sibRow)
				}
			}
			switch w, ok := want[s.Name]; {
			case *updateGolden:
			case !ok:
				t.Errorf("%s: no golden row (run with -update to record it)", s.Name)
			case row != w:
				t.Errorf("%s drifted:\n got  %s %s\n want %s %s", s.Name, s.Name, row, s.Name, w)
			}
		})
		if row, ok := got[s.Name]; ok {
			lines = append(lines, s.Name+" "+row)
		} else if row, ok := want[s.Name]; ok {
			lines = append(lines, s.Name+" "+row)
		}
	}

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, name := range wantNames {
		if !slices.Contains(names, name) {
			t.Errorf("%s: golden row names no registered scenario", name)
		}
	}
	// A missing or extra row is named above; what is left is the order.
	if len(wantNames) == len(names) && !slices.Equal(wantNames, names) {
		t.Errorf("golden rows are not in registry order:\n golden   %v\n registry %v", wantNames, names)
	}
}

// rerun runs the named scenario twice and fails unless both rows are
// identical: in-process rerun determinism, which a golden row recorded
// by one run cannot show.
func rerun(t *testing.T, name string) {
	for _, s := range Scenarios() {
		if s.Name == name {
			r1, _ := s.Run()
			if r2, _ := s.Run(); r1 != r2 {
				t.Fatalf("%s not deterministic:\n %s\n %s", name, r1, r2)
			}
			return
		}
	}
	t.Fatalf("scenario %q missing from registry", name)
}

// TestRepairScenarioDeterminism: the section-7 churn-recovery path is as
// reproducible as everything else in the golden file.
func TestRepairScenarioDeterminism(t *testing.T) { rerun(t, "repair") }

// TestTransferScenarioDeterminism: the raw Transfer path, lossy links
// included, replays identically.
func TestTransferScenarioDeterminism(t *testing.T) { rerun(t, "transfer") }
