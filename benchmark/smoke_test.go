package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests compare against.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []jsonMetric `json:"end_to_end"`
	PerLayer   []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func toJSONMetrics(defs []def) []jsonMetric {
	out := make([]jsonMetric, len(defs))
	for i, d := range defs {
		out[i] = jsonMetric{d.name, d.unit, d.better, d.bound}
	}
	return out
}

// TestDeclaredMetricsMatchBenchmarkJSON keeps the tables in metrics.go and
// workloads.go in step with the contract file at the repository root.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var want benchmarkJSON
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if want.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the benchmark's default is %d", want.RunSeconds, runSeconds)
	}
	if got := toJSONMetrics(endToEnd); !slices.Equal(got, want.EndToEnd) {
		t.Errorf("end_to_end differs:\n got  %v\n want %v", got, want.EndToEnd)
	}
	if got := toJSONMetrics(perLayer); !slices.Equal(got, want.PerLayer) {
		t.Errorf("per_layer differs:\n got  %v\n want %v", got, want.PerLayer)
	}
	specs := workloads()
	if len(specs) != len(want.Workloads) {
		t.Fatalf("%d workloads declared, BENCHMARK.json lists %d", len(specs), len(want.Workloads))
	}
	for i, s := range specs {
		if s.name != want.Workloads[i].Name || s.why != want.Workloads[i].Why {
			t.Errorf("workload %d: %q / %q differs from BENCHMARK.json", i, s.name, s.why)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		if !name.MatchString(d.name) {
			t.Errorf("metric name %q is outside the contract's alphabet", d.name)
		}
	}
}

// TestSmokeEveryWorkload runs both passes of every workload at smoke size and
// checks that each prints exactly the declared metrics, all finite.
func TestSmokeEveryWorkload(t *testing.T) {
	out := t.TempDir()
	for _, s := range workloads() {
		res := runWorkload(s.smoke(), 1, effort{}, bothPasses, out)
		for _, pass := range []struct {
			which int
			defs  []def
		}{{untracedPass, endToEnd}, {tracedPass, perLayer}} {
			var line bytes.Buffer
			printResultLine(&line, res, pass.which)
			var got struct {
				Attempted int
				Metrics   map[string]struct{ Unit string }
			}
			if err := json.Unmarshal(line.Bytes(), &got); err != nil {
				t.Fatalf("%s: result line: %v", s.name, err)
			}
			if got.Attempted < 2*s.smoke().epochs {
				t.Errorf("%s: only %d operations attempted", s.name, got.Attempted)
			}
			for _, d := range pass.defs {
				if m, ok := got.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s: metric %s missing or in unit %q", s.name, d.name, m.Unit)
				}
			}
			if len(got.Metrics) != len(pass.defs) {
				t.Errorf("%s: %d metrics printed, %d declared", s.name, len(got.Metrics), len(pass.defs))
			}
		}
		// A smoke round is too short for every churn mechanism to fire, so a
		// tripped coverage guard is the only failure allowed here.
		for _, n := range res.Notes {
			if !strings.Contains(n, ": no ") && !strings.Contains(n, "algorithms retired") {
				t.Errorf("%s: %s", s.name, n)
			}
		}
		if _, err := os.Stat(res.Trace); err != nil {
			t.Errorf("%s: trace file: %v", s.name, err)
		}
	}
}

// TestGuardsAndDeterminismCheckFire pins the two ways a workload fails
// instead of getting "faster": a coverage guard on an empty report, and the
// round-vs-round comparison on an injected mismatch.
func TestGuardsAndDeterminismCheckFire(t *testing.T) {
	for _, s := range workloads() {
		var o ops
		guards(s, &engine.Report{}, &o)
		if o.attempted == 0 || o.failed != o.attempted {
			t.Errorf("%s: %d of %d guards tripped on an empty report", s.name, o.failed, o.attempted)
		}
	}
	in := newInputs(workloads()[0].smoke(), 1)
	var o ops
	r, _ := runRound(in, nil, &o, false)
	if o.failed != 0 || r.report == nil {
		t.Fatalf("smoke round failed: %v", o.notes)
	}
	again, _ := runRound(in, nil, &o, false)
	if !sameReport(r.report, again.report) {
		t.Fatal("two rounds on identical inputs reported differently")
	}
	again.report.Queries[3].Results++
	if sameReport(r.report, again.report) {
		t.Error("determinism check missed one query's result count changing")
	}
}
