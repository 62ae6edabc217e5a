package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	aspen "repro"
)

// TestRunAllAndBaseline exercises the engine driver the -baseline flag
// uses: a shared run over two queries must cost less than the sum of the
// two queries run alone (the sharing inequality the flag reports).
func TestRunAllAndBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("engine run in -short mode")
	}
	w, err := aspen.ParseWorkload("-- id: left\nSELECT S.id, T.id FROM S, T [windowsize=3 sampleinterval=100] WHERE S.id < 10 AND T.id > 80 AND S.x = T.y + 5 AND S.u = T.u\n\n-- id: right\n-- query: Q1\n")
	if err != nil {
		t.Fatal(err)
	}
	cfg := aspen.EngineConfig{Seed: 1}
	shared, err := runAll(cfg, w.Jobs, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(shared.Queries) != 2 || shared.AggregateBytes <= 0 {
		t.Fatalf("implausible shared report: %+v", shared)
	}
	var sum int64
	for i := range w.Jobs {
		one, err := runAll(cfg, w.Jobs[i:i+1], 20, nil)
		if err != nil {
			t.Fatal(err)
		}
		sum += one.AggregateBytes
	}
	if shared.AggregateBytes >= sum {
		t.Errorf("sharing saved nothing: shared=%d unshared-sum=%d", shared.AggregateBytes, sum)
	}
}

// TestNegativeMaxRetriesLosesResults: a negative retry bound means one
// attempt per hop — the run still completes, and loses more results than
// the default bound of 3 does.
func TestNegativeMaxRetriesLosesResults(t *testing.T) {
	w, err := aspen.ParseWorkload("-- id: q\n-- query: Q1\n")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := runAll(aspen.EngineConfig{Seed: 1}, w.Jobs, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := runAll(aspen.EngineConfig{Seed: 1, MaxRetries: -1}, w.Jobs, 20, nil)
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
	w, err := aspen.ParseWorkload("-- id: left\n-- cycles: 5\nSELECT S.id, T.id FROM S, T [windowsize=3 sampleinterval=100] WHERE S.id < 10 AND T.id > 80 AND S.x = T.y + 5 AND S.u = T.u\n")
	if err != nil {
		t.Fatal(err)
	}
	var progress bytes.Buffer
	if _, err := runAll(aspen.EngineConfig{Seed: 1}, w.Jobs, 10, &progress); err != nil {
		t.Fatal(err)
	}
	out := progress.String()
	for _, want := range []string{"+ left admitted", "- left retired"} {
		if !strings.Contains(out, want) {
			t.Fatalf("progress stream missing %q:\n%s", want, out)
		}
	}
	// The same run with a nil writer registers no hook at all.
	if _, err := runAll(aspen.EngineConfig{Seed: 1}, w.Jobs, 10, nil); err != nil {
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
	w, err := aspen.ParseWorkload("-- id: q\n-- query: Q1\n")
	if err != nil {
		t.Fatal(err)
	}
	e, err := buildEngine(aspen.EngineConfig{Seed: 1, Metrics: true}, w.Jobs, nil)
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
