package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	aspen "repro"
)

// TestParseWorkloadDemo parses the built-in demo workload: 4 blocks with
// the directives the usage text documents.
func TestParseWorkloadDemo(t *testing.T) {
	jobs, _, _, err := parseWorkload(demoWorkload)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 4 {
		t.Fatalf("expected 4 jobs, got %d", len(jobs))
	}
	if jobs[0].ID != "m2n-join" || jobs[0].Algorithm != aspen.Algorithm("Innet-cmg") {
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
		jobs, _, _, err := parseWorkload(src)
		if err != nil {
			t.Errorf("empty input %q: unexpected error %v", src, err)
		}
		if len(jobs) != 0 {
			t.Errorf("empty input %q: got %d jobs", src, len(jobs))
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
			_, _, _, err := parseWorkload(tc.src)
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestParseWorkloadCommentsAndBareDirectives: '#' lines and bare "--"
// comments (no colon) are ignored, not errors.
func TestParseWorkloadComments(t *testing.T) {
	src := "# a file comment\n-- the fast half\n-- id: q\nSELECT S.id, T.id FROM S, T [windowsize=1 sampleinterval=100] WHERE S.u = T.u\n"
	jobs, _, _, err := parseWorkload(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != "q" {
		t.Fatalf("unexpected jobs: %+v", jobs)
	}
}

// TestParseWorkloadWhitespaceSeparator: a "blank" separator line that
// contains stray spaces or tabs still splits blocks.
func TestParseWorkloadWhitespaceSeparator(t *testing.T) {
	src := "-- id: a\nSELECT S.id FROM S, T [windowsize=1 sampleinterval=100] WHERE S.u = T.u\n \t \n-- id: b\n-- query: Q1\n"
	jobs, _, _, err := parseWorkload(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].ID != "a" || jobs[1].ID != "b" {
		t.Fatalf("whitespace separator did not split blocks: %+v", jobs)
	}
}

// TestParseWorkloadCRLF: Windows line endings parse identically.
func TestParseWorkloadCRLF(t *testing.T) {
	unix := "-- id: a\nSELECT S.id FROM S, T [windowsize=1 sampleinterval=100] WHERE S.u = T.u\n\n-- id: b\n-- query: Q1\n"
	dos := strings.ReplaceAll(unix, "\n", "\r\n")
	ju, _, _, err := parseWorkload(unix)
	if err != nil {
		t.Fatal(err)
	}
	jd, _, _, err := parseWorkload(dos)
	if err != nil {
		t.Fatal(err)
	}
	if len(ju) != 2 || len(jd) != 2 || ju[0].ID != jd[0].ID || ju[1].Query != jd[1].Query {
		t.Fatalf("CRLF parse differs: %+v vs %+v", ju, jd)
	}
}

// TestRunAllAndBaseline exercises the engine driver the -baseline flag
// uses: a shared run over two queries must cost less than the sum of the
// two queries run alone (the sharing inequality the flag reports).
func TestRunAllAndBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("engine run in -short mode")
	}
	jobs, _, _, err := parseWorkload("-- id: left\nSELECT S.id, T.id FROM S, T [windowsize=3 sampleinterval=100] WHERE S.id < 10 AND T.id > 80 AND S.x = T.y + 5 AND S.u = T.u\n\n-- id: right\n-- query: Q1\n")
	if err != nil {
		t.Fatal(err)
	}
	cfg := aspen.EngineConfig{Seed: 1}
	shared, err := runAll(cfg, jobs, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(shared.Queries) != 2 || shared.AggregateBytes <= 0 {
		t.Fatalf("implausible shared report: %+v", shared)
	}
	var sum int64
	for i := range jobs {
		one, err := runAll(cfg, jobs[i:i+1], 20, nil)
		if err != nil {
			t.Fatal(err)
		}
		sum += one.AggregateBytes
	}
	if shared.AggregateBytes >= sum {
		t.Errorf("sharing saved nothing: shared=%d unshared-sum=%d", shared.AggregateBytes, sum)
	}
}

// TestParseWorkloadChurnDirectives: churn directives are deployment-level,
// may form pure churn blocks, and materialize against the run's node count
// and horizon.
func TestParseWorkloadChurnDirectives(t *testing.T) {
	src := "-- fail: 17 @ 5\n-- revive: 17 @ 9\n-- churn: 0.01 @ 42\n\n-- id: q\nSELECT S.id, T.id FROM S, T [windowsize=1 sampleinterval=100] WHERE S.u = T.u\n"
	jobs, churn, _, err := parseWorkload(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != "q" {
		t.Fatalf("churn block leaked into jobs: %+v", jobs)
	}
	if len(churn.events) != 2 || churn.events[0] != (aspen.ChurnEvent{Epoch: 5, Node: 17}) ||
		churn.events[1] != (aspen.ChurnEvent{Epoch: 9, Node: 17, Revive: true}) {
		t.Fatalf("explicit events wrong: %+v", churn.events)
	}
	if len(churn.seeded) != 1 || churn.seeded[0] != (seededChurn{rate: 0.01, seed: 42}) {
		t.Fatalf("seeded spec wrong: %+v", churn.seeded)
	}
	sched := churn.schedule(100, 20)
	if len(sched) < 2 {
		t.Fatalf("schedule too short: %d events", len(sched))
	}
	if !reflect.DeepEqual(sched, churn.schedule(100, 20)) {
		t.Fatal("schedule not deterministic")
	}
	// A churn directive inside a query block attaches to the deployment,
	// not the query.
	_, c2, _, err := parseWorkload("-- id: q\n-- fail: 3 @ 1\nSELECT S.id, T.id FROM S, T [windowsize=1 sampleinterval=100] WHERE S.u = T.u\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(c2.events) != 1 {
		t.Fatalf("in-block churn directive lost: %+v", c2.events)
	}
}

// TestParseWorkloadChurnErrors: malformed churn directives are reported,
// and a block mixing churn with query directives but no SQL still errors.
func TestParseWorkloadChurnErrors(t *testing.T) {
	for _, tc := range []struct{ name, src, wantErr string }{
		{"bad fail", "-- fail: soonish\n", "fail"},
		{"bad revive epoch", "-- revive: 4 @ later\n", "epoch"},
		{"bad churn rate", "-- churn: lots\n", "churn rate"},
		{"bad churn seed", "-- churn: 0.1 @ x\n", "churn seed"},
		{"churn plus id but no sql", "-- id: broken\n-- fail: 3 @ 1\n", "no SQL statement"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := parseWorkload(tc.src)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestParseFaultDirectives: fault directives build the facade's own
// FaultConfig — partition: yields Partition{Kind: Bisect|Region} — and the
// malformed forms are rejected.
func TestParseFaultDirectives(t *testing.T) {
	src := "-- loss: 0.02 @ 9\n-- link-fail: 0.01 @ 4\n-- partition: 10..20\n-- partition: bisect @ 30..40\n-- partition: region 2 @ 50..60\n-- max-retries: -1\n\n-- id: q\n-- query: Q1\n"
	jobs, _, fault, err := parseWorkload(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || !fault.set || fault.maxRetries != -1 {
		t.Fatalf("fault block misparsed: jobs=%d fault=%+v", len(jobs), fault)
	}
	want := aspen.FaultConfig{
		Seed: 9, LinkLoss: 0.02, LinkFailRate: 0.01, LinkReviveAfter: 4,
		Partitions: []aspen.Partition{
			{From: 10, Until: 20, Kind: aspen.Bisect},
			{From: 30, Until: 40, Kind: aspen.Bisect},
			{From: 50, Until: 60, Kind: aspen.Region, Region: 2},
		},
	}
	if !reflect.DeepEqual(fault.cfg, want) {
		t.Fatalf("fault config:\n got  %+v\n want %+v", fault.cfg, want)
	}
	for _, tc := range []struct{ src, wantErr string }{
		{"-- partition: region 4 @ 1..2\n", "partition region"},
		{"-- partition: diagonal @ 1..2\n", "partition:"},
		{"-- partition: 5\n", "partition window"},
		{"-- partition: a..2\n", "partition from"},
		{"-- partition: 1..b\n", "partition until"},
		{"-- max-retries: many\n", "max-retries"},
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
		if _, _, _, err := parseWorkload(tc.src); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%q: error %v does not mention %q", tc.src, err, tc.wantErr)
		}
	}
	// 0 and 1 are valid probabilities, 0 a valid revive delay.
	for _, src := range []string{"-- loss: 0\n", "-- loss: 1\n", "-- link-fail: 0\n", "-- link-fail: 1 @ 0\n", "-- partition: 0..1\n"} {
		if _, _, _, err := parseWorkload(src + "\n-- query: Q1\n"); err != nil {
			t.Errorf("%q: rejected: %v", src, err)
		}
	}
}

// TestNegativeMaxRetriesLosesResults: a negative retry bound means one
// attempt per hop — the run still completes, and loses more results than
// the default bound of 3 does.
func TestNegativeMaxRetriesLosesResults(t *testing.T) {
	jobs, _, _, err := parseWorkload("-- id: q\n-- query: Q1\n")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := runAll(aspen.EngineConfig{Seed: 1}, jobs, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := runAll(aspen.EngineConfig{Seed: 1, MaxRetries: -1}, jobs, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lossy.Results >= plain.Results {
		t.Errorf("no-retry run delivered %d results, default bound %d", lossy.Results, plain.Results)
	}
}

// TestVerboseStreamsToWriterNotStdout is the stdout-hygiene regression
// test: per-epoch progress lines go only to the writer buildEngine is
// handed (main passes stderr), so stdout remains a clean report that
// pipelines can parse.
func TestVerboseStreamsToWriterNotStdout(t *testing.T) {
	if testing.Short() {
		t.Skip("engine run in -short mode")
	}
	jobs, _, _, err := parseWorkload("-- id: left\n-- cycles: 5\nSELECT S.id, T.id FROM S, T [windowsize=3 sampleinterval=100] WHERE S.id < 10 AND T.id > 80 AND S.x = T.y + 5 AND S.u = T.u\n")
	if err != nil {
		t.Fatal(err)
	}
	var progress bytes.Buffer
	if _, err := runAll(aspen.EngineConfig{Seed: 1}, jobs, 10, &progress); err != nil {
		t.Fatal(err)
	}
	out := progress.String()
	for _, want := range []string{"+ left admitted", "- left retired"} {
		if !strings.Contains(out, want) {
			t.Fatalf("progress stream missing %q:\n%s", want, out)
		}
	}
	// The same run with a nil writer registers no hook at all.
	if _, err := runAll(aspen.EngineConfig{Seed: 1}, jobs, 10, nil); err != nil {
		t.Fatal(err)
	}
}

// TestServeMetricsEndpoints: -metrics-addr's server answers /metricz with
// the text dump and /debug/vars with expvar JSON carrying the engine
// snapshot under "aspen".
func TestServeMetricsEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("engine run in -short mode")
	}
	jobs, _, _, err := parseWorkload("-- id: q\n-- query: Q1\n")
	if err != nil {
		t.Fatal(err)
	}
	e, err := buildEngine(aspen.EngineConfig{Seed: 1, Metrics: true}, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := serveMetrics("127.0.0.1:0", e)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", ln.Addr(), path))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	metricz := get("/metricz")
	if !strings.Contains(metricz, "counter engine.epochs") || !strings.Contains(metricz, "hist    epoch.wall_us") {
		t.Fatalf("/metricz malformed:\n%s", metricz)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(get("/debug/vars")), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if _, ok := vars["aspen"]; !ok {
		t.Fatal("/debug/vars missing the aspen snapshot")
	}
	var snap struct {
		Counters []struct {
			Name  string
			Value int64
		}
	}
	if err := json.Unmarshal(vars["aspen"], &snap); err != nil {
		t.Fatalf("aspen expvar not a snapshot: %v", err)
	}
	found := false
	for _, c := range snap.Counters {
		if c.Name == "engine.epochs" && c.Value == 10 {
			found = true
		}
	}
	if !found {
		t.Fatalf("aspen expvar snapshot missing engine.epochs=10: %+v", snap.Counters)
	}
}

// FuzzParseWorkload: the directive parser never panics, every workload it
// accepts holds only query blocks with exactly one of SQL text and a
// built-in query, and the engine main builds from an accepted workload — on
// a small deployment, for a few epochs — either runs or returns an error.
func FuzzParseWorkload(f *testing.F) {
	for _, src := range []string{
		demoWorkload,
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
		jobs, churn, fault, err := parseWorkload(src)
		if err != nil {
			return
		}
		for i, job := range jobs {
			if (job.SQL == "") == (job.Query == "") {
				t.Fatalf("job %d: SQL %q and query %q, want exactly one", i, job.SQL, job.Query)
			}
		}
		// A retry bound far above the default lets one lossy hop retransmit
		// for as long as it likes: a valid run, but not a quick one.
		if len(jobs) == 0 || fault.maxRetries > 8 {
			return
		}
		cfg := aspen.EngineConfig{Nodes: 40, Trees: 2, Seed: 1, MaxRetries: fault.maxRetries}
		if fault.set {
			cfg.Faults = &fault.cfg
		}
		cfg.Churn = churn.schedule(cfg.Nodes, 3)
		_, _ = runAll(cfg, jobs, 3, nil)
	})
}
