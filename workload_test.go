package aspen

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

// readDemoWorkload returns the aspen-engine CLI's built-in demo workload.
func readDemoWorkload(tb testing.TB) string {
	tb.Helper()
	data, err := os.ReadFile("cmd/aspen-engine/demo.sql")
	if err != nil {
		tb.Fatal(err)
	}
	return string(data)
}

// TestParseWorkloadDemo parses the built-in demo workload: 4 blocks with
// the directives the usage text documents.
func TestParseWorkloadDemo(t *testing.T) {
	w, err := ParseWorkload(readDemoWorkload(t))
	if err != nil {
		t.Fatal(err)
	}
	jobs := w.Jobs
	if len(jobs) != 4 {
		t.Fatalf("expected 4 jobs, got %d", len(jobs))
	}
	if jobs[0].ID != "m2n-join" || jobs[0].Algorithm != InnetCMG {
		t.Errorf("job 0 directives not applied: %+v", jobs[0])
	}
	if jobs[2].AdmitAt != 10 || jobs[2].Rates.SigmaS != 0.1 || jobs[2].Rates.SigmaST != 0.2 {
		t.Errorf("job 2 admit/rates not applied: %+v", jobs[2])
	}
	// sigma-t untouched by the block, so the directive default kicks in.
	if jobs[2].Rates.SigmaT != 0.5 {
		t.Errorf("job 2 sigma-t default wrong: %+v", jobs[2].Rates)
	}
	if jobs[3].Cycles != 50 || jobs[3].AdmitAt != 20 {
		t.Errorf("job 3 cycles/admit not applied: %+v", jobs[3])
	}
	for i, job := range jobs {
		if job.SQL == "" {
			t.Errorf("job %d lost its SQL", i)
		}
		if strings.HasSuffix(job.SQL, ";") {
			t.Errorf("job %d kept trailing semicolon", i)
		}
	}
}

// TestParseWorkloadEmpty covers empty and whitespace-only files.
func TestParseWorkloadEmpty(t *testing.T) {
	for _, src := range []string{"", "\n\n\n", "   \n\t\n"} {
		w, err := ParseWorkload(src)
		if err != nil {
			t.Errorf("empty input %q: unexpected error %v", src, err)
		}
		if len(w.Jobs) != 0 {
			t.Errorf("empty input %q: got %d jobs", src, len(w.Jobs))
		}
	}
}

// TestParseWorkloadMalformed covers the documented error cases.
func TestParseWorkloadMalformed(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"directive-only block", "-- id: lonely\n", "no SQL statement"},
		{"both sql and query", "-- query: Q1\nSELECT S.id FROM S, T [windowsize=1 sampleinterval=100] WHERE S.u = T.u\n", "both SQL text and a 'query:' directive"},
		{"unknown directive", "-- frobnicate: yes\nSELECT S.id FROM S, T [windowsize=1 sampleinterval=100] WHERE S.u = T.u\n", `unknown directive "frobnicate"`},
		{"bad cycles", "-- cycles: soon\nSELECT S.id FROM S, T [windowsize=1 sampleinterval=100] WHERE S.u = T.u\n", "cycles"},
		{"bad admit", "-- admit: later\nSELECT S.id FROM S, T [windowsize=1 sampleinterval=100] WHERE S.u = T.u\n", "admit"},
		{"bad sigma", "-- sigma-s: lots\nSELECT S.id FROM S, T [windowsize=1 sampleinterval=100] WHERE S.u = T.u\n", "sigma-s"},
		{"bad pairs", "-- pairs: few\n-- query: Q0\n", "pairs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseWorkload(tc.src)
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestParseWorkloadRejectsAllZeroSigma: a block whose sigma directives
// leave every selectivity at 0 is an error naming the block — Submit
// would read the zero Rates as "use the defaults" and run it at 1/2:1/2.
// A block that zeroes only some keeps the defaults of the rest, and the
// defaults are installed once per block, not again after a zero.
func TestParseWorkloadRejectsAllZeroSigma(t *testing.T) {
	const q = "SELECT S.id, T.id FROM S, T [windowsize=1 sampleinterval=100] WHERE S.u = T.u\n"
	_, err := ParseWorkload("-- query: Q1\n\n-- sigma-s: 0\n-- sigma-t: 0\n-- sigma-st: 0\n" + q)
	if err == nil || !strings.Contains(err.Error(), "block 2") || !strings.Contains(err.Error(), "sigma") {
		t.Fatalf("all-zero sigma block: error %v, want one naming block 2 and sigma", err)
	}
	w, err := ParseWorkload("-- sigma-s: 0\n-- sigma-t: 0\n" + q + "\n-- sigma-s: 0\n-- sigma-t: 0\n-- sigma-st: 0\n-- sigma-s: 0.5\n" + q)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := w.Jobs[0].Rates, (Rates{SigmaST: 0.1}); got != want {
		t.Errorf("partly zeroed rates: got %+v, want %+v", got, want)
	}
	if got, want := w.Jobs[1].Rates, (Rates{SigmaS: 0.5}); got != want {
		t.Errorf("rates set after an all-zero point: got %+v, want %+v", got, want)
	}
}

// TestParseWorkloadComments: '#' lines and bare "--" comments (no colon)
// are ignored, not errors.
func TestParseWorkloadComments(t *testing.T) {
	src := "# a file comment\n-- the fast half\n-- id: q\nSELECT S.id, T.id FROM S, T [windowsize=1 sampleinterval=100] WHERE S.u = T.u\n"
	w, err := ParseWorkload(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Jobs) != 1 || w.Jobs[0].ID != "q" {
		t.Fatalf("unexpected jobs: %+v", w.Jobs)
	}
}

// TestParseWorkloadWhitespaceSeparator: a "blank" separator line that
// contains stray spaces or tabs still splits blocks.
func TestParseWorkloadWhitespaceSeparator(t *testing.T) {
	src := "-- id: a\nSELECT S.id FROM S, T [windowsize=1 sampleinterval=100] WHERE S.u = T.u\n \t \n-- id: b\n-- query: Q1\n"
	w, err := ParseWorkload(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Jobs) != 2 || w.Jobs[0].ID != "a" || w.Jobs[1].ID != "b" {
		t.Fatalf("whitespace separator did not split blocks: %+v", w.Jobs)
	}
}

// TestParseWorkloadCRLF: Windows line endings parse identically.
func TestParseWorkloadCRLF(t *testing.T) {
	unix := "-- id: a\nSELECT S.id FROM S, T [windowsize=1 sampleinterval=100] WHERE S.u = T.u\n\n-- id: b\n-- query: Q1\n"
	dos := strings.ReplaceAll(unix, "\n", "\r\n")
	wu, err := ParseWorkload(unix)
	if err != nil {
		t.Fatal(err)
	}
	wd, err := ParseWorkload(dos)
	if err != nil {
		t.Fatal(err)
	}
	ju, jd := wu.Jobs, wd.Jobs
	if len(ju) != 2 || len(jd) != 2 || ju[0].ID != jd[0].ID || ju[1].Query != jd[1].Query {
		t.Fatalf("CRLF parse differs: %+v vs %+v", ju, jd)
	}
}

// TestParseWorkloadChurnDirectives: churn directives are deployment-level,
// may form pure churn blocks, and Config materializes them against the
// deployment's effective size and the run's horizon.
func TestParseWorkloadChurnDirectives(t *testing.T) {
	src := "-- fail: 17 @ 5\n-- revive: 17 @ 9\n-- churn: 0.01 @ 42\n\n-- id: q\nSELECT S.id, T.id FROM S, T [windowsize=1 sampleinterval=100] WHERE S.u = T.u\n"
	w, err := ParseWorkload(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Jobs) != 1 || w.Jobs[0].ID != "q" {
		t.Fatalf("churn block leaked into jobs: %+v", w.Jobs)
	}
	explicit := []ChurnEvent{{Epoch: 5, Node: 17}, {Epoch: 9, Node: 17, Revive: true}}
	if !reflect.DeepEqual(w.churn, explicit) {
		t.Fatalf("explicit events wrong: %+v", w.churn)
	}
	if len(w.seeded) != 1 || w.seeded[0] != (churnRate{rate: 0.01, seed: 42}) {
		t.Fatalf("seeded spec wrong: %+v", w.seeded)
	}
	cfg, err := w.Config(EngineConfig{Seed: 3}, 20)
	if err != nil {
		t.Fatal(err)
	}
	want := append(explicit, SeededChurn(42, 100, 20, 0.01, 0)...)
	if len(want) <= len(explicit) || !reflect.DeepEqual(cfg.Churn, want) {
		t.Fatalf("schedule: got %+v, want %+v", cfg.Churn, want)
	}
	if cfg.Seed != 3 || cfg.Faults != nil {
		t.Fatalf("Config changed what the workload does not set: %+v", cfg)
	}
	// Intel pins 54 motes whatever Nodes says: seeded churn expands over
	// those, so every event names a node NewEngine accepts.
	intel, err := w.Config(EngineConfig{Topology: Intel, Nodes: 1000}, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(intel.Churn[2:], SeededChurn(42, 54, 200, 0.01, 0)) {
		t.Fatal("Intel churn not expanded over its 54 motes")
	}
	if _, err := NewEngine(intel); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Config(EngineConfig{Topology: "torus"}, 20); err == nil {
		t.Fatal("Config accepted an unknown topology")
	}
	// A churn directive inside a query block attaches to the deployment,
	// not the query.
	w2, err := ParseWorkload("-- id: q\n-- fail: 3 @ 1\nSELECT S.id, T.id FROM S, T [windowsize=1 sampleinterval=100] WHERE S.u = T.u\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(w2.churn) != 1 {
		t.Fatalf("in-block churn directive lost: %+v", w2.churn)
	}
}

// TestParseWorkloadChurnErrors: malformed and out-of-range churn
// directives are reported, and a block mixing churn with query directives
// but no SQL still errors.
func TestParseWorkloadChurnErrors(t *testing.T) {
	for _, tc := range []struct{ name, src, wantErr string }{
		{"bad fail", "-- fail: soonish\n", "fail"},
		{"bad revive epoch", "-- revive: 4 @ later\n", "epoch"},
		{"bad churn rate", "-- churn: lots\n", "churn rate"},
		{"bad churn seed", "-- churn: 0.1 @ x\n", "churn seed"},
		{"churn plus id but no sql", "-- id: broken\n-- fail: 3 @ 1\n", "no SQL statement"},
		{"churn rate above 1", "-- churn: 7 @ 1\n", "churn rate"},
		{"negative churn rate", "-- churn: -0.1\n", "churn rate"},
		{"NaN churn rate", "-- churn: NaN\n", "churn rate"},
		{"negative fail epoch", "-- fail: 17 @ -3\n", "epoch"},
		{"negative revive epoch", "-- revive: 17 @ -1\n", "epoch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseWorkload(tc.src)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v does not mention %q", err, tc.wantErr)
			}
		})
	}
	// The bounds themselves are valid.
	for _, src := range []string{"-- churn: 0\n", "-- churn: 1 @ 2\n", "-- fail: 3 @ 0\n"} {
		if _, err := ParseWorkload(src + "\n-- query: Q1\n"); err != nil {
			t.Errorf("%q: rejected: %v", src, err)
		}
	}
}

// TestParseFaultDirectives: fault directives build the facade's own
// FaultConfig — partition: yields Partition{Kind: Bisect|Region} — and the
// malformed forms are rejected.
func TestParseFaultDirectives(t *testing.T) {
	src := "-- loss: 0.02 @ 9\n-- link-fail: 0.01 @ 4\n-- partition: 10..20\n-- partition: bisect @ 30..40\n-- partition: region 2 @ 50..60\n\n-- id: q\n-- query: Q1\n"
	w, err := ParseWorkload(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Jobs) != 1 || w.faults == nil {
		t.Fatalf("fault block misparsed: jobs=%d faults=%+v", len(w.Jobs), w.faults)
	}
	want := FaultConfig{
		Seed: 9, LinkLoss: 0.02, LinkFailRate: 0.01, LinkReviveAfter: 4,
		Partitions: []Partition{
			{From: 10, Until: 20, Kind: Bisect},
			{From: 30, Until: 40, Kind: Bisect},
			{From: 50, Until: 60, Kind: Region, Region: 2},
		},
	}
	if !reflect.DeepEqual(*w.faults, want) {
		t.Fatalf("fault config:\n got  %+v\n want %+v", *w.faults, want)
	}
	cfg, err := w.Config(EngineConfig{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Faults == nil || !reflect.DeepEqual(*cfg.Faults, want) {
		t.Fatalf("Config did not install the fault plan: %+v", cfg.Faults)
	}
	for _, tc := range []struct{ src, wantErr string }{
		{"-- partition: region 4 @ 1..2\n", "partition region"},
		{"-- partition: diagonal @ 1..2\n", "partition:"},
		{"-- partition: 5\n", "partition window"},
		{"-- partition: a..2\n", "partition from"},
		{"-- partition: 1..b\n", "partition until"},
		// The retry bound is the -max-retries flag's alone.
		{"-- max-retries: -1\n", `unknown directive "max-retries"`},
		{"-- loss: heavy\n", "loss rate"},
		{"-- link-fail: 0.1 @ soon\n", "link-fail revive"},
		// Out-of-range values parse as numbers and fail the plan's own
		// range check.
		{"-- loss: 7\n", "LinkLoss"},
		{"-- loss: -0.1\n", "LinkLoss"},
		{"-- loss: NaN\n", "LinkLoss"},
		{"-- link-fail: 2\n", "LinkFailRate"},
		{"-- link-fail: 0.1 @ -3\n", "LinkReviveAfter"},
		{"-- partition: 20..10\n", "window"},
		{"-- partition: 5..5\n", "window"},
		{"-- partition: -1..5\n", "window"},
	} {
		if _, err := ParseWorkload(tc.src); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%q: error %v does not mention %q", tc.src, err, tc.wantErr)
		}
	}
	// 0 and 1 are valid probabilities, 0 a valid revive delay.
	for _, src := range []string{"-- loss: 0\n", "-- loss: 1\n", "-- link-fail: 0\n", "-- link-fail: 1 @ 0\n", "-- partition: 0..1\n"} {
		if _, err := ParseWorkload(src + "\n-- query: Q1\n"); err != nil {
			t.Errorf("%q: rejected: %v", src, err)
		}
	}
}

// FuzzParseWorkload: the parser never panics, every workload it accepts
// holds only query blocks with exactly one of SQL text and a built-in
// query, Config schedules no churn before epoch 0, and the engine built
// from an accepted workload — on a small deployment, for a few epochs —
// either runs or returns an error.
func FuzzParseWorkload(f *testing.F) {
	for _, src := range []string{
		readDemoWorkload(f),
		"-- id: a\nSELECT S.id FROM S, T [windowsize=1 sampleinterval=100] WHERE S.u = T.u\n \t \n-- id: b\n-- query: Q1\n",
		"# a file comment\n-- the fast half\n-- id: q\nSELECT S.id, T.id FROM S, T [windowsize=1 sampleinterval=100] WHERE S.u = T.u\n",
		"-- fail: 17 @ 5\n-- revive: 17 @ 9\n-- churn: 0.01 @ 42\n\n-- id: q\nSELECT S.id, T.id FROM S, T [windowsize=1 sampleinterval=100] WHERE S.u = T.u\n",
		"-- loss: 0.02 @ 9\n-- link-fail: 0.01 @ 4\n-- partition: 10..20\n-- partition: bisect @ 30..40\n-- partition: region 2 @ 50..60\n-- max-retries: -1\n\n-- id: q\n-- query: Q1\n",
		"-- pairs: 4\n-- query: Q0\n-- sigma-s: 0.2\n-- cycles: 2\n-- admit: 1\n-- alg: Base\n",
		"-- partition: region 4 @ 1..2\n",
		"-- id: lonely\n",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		w, err := ParseWorkload(src)
		if err != nil {
			return
		}
		for i, job := range w.Jobs {
			if (job.SQL == "") == (job.Query == "") {
				t.Fatalf("job %d: SQL %q and query %q, want exactly one", i, job.SQL, job.Query)
			}
		}
		cfg, err := w.Config(EngineConfig{Nodes: 40, Trees: 2, Seed: 1}, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range cfg.Churn {
			if ev.Epoch < 0 {
				t.Fatalf("churn event %+v before epoch 0", ev)
			}
		}
		if len(w.Jobs) == 0 {
			return
		}
		e, err := NewEngine(cfg)
		if err != nil {
			return
		}
		for _, job := range w.Jobs {
			if _, err := e.Submit(job); err != nil {
				return
			}
		}
		_, _ = e.Run(3)
	})
}
