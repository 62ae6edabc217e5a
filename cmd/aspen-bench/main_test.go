package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestGateExitCodes drives the command in-process over a cheap subset:
// exit 0 against the committed file, exit 1 naming the scenario against a
// doctored copy (with -out still written for inspection), exit 1 on an
// unknown scenario or an unreadable expectation file.
func TestGateExitCodes(t *testing.T) {
	committed := filepath.Join("..", "..", "BENCH_engine.json")
	want, err := bench.ReadFile(committed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Results {
		if want.Results[i].Name == "repair" {
			want.Results[i].TrafficBytesPerOp++
		}
	}
	dir := t.TempDir()
	doctored := filepath.Join(dir, "doctored.json")
	if err := want.WriteFile(doctored); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(dir, "fresh.json")

	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"clean subset", []string{"-run", "transfer,repair", "-compare", committed}, 0, ""},
		{"doctored traffic", []string{"-run", "transfer, repair", "-compare", doctored, "-out", fresh}, 1, "FAIL repair: traffic drift"},
		{"unknown scenario", []string{"-run", "nope", "-compare", committed}, 1, `unknown scenario "nope"`},
		{"unreadable expectation", []string{"-run", "transfer", "-compare", filepath.Join(dir, "absent.json")}, 1, "absent.json"},
		{"list", []string{"-list"}, 0, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := gate(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit code %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, &stdout, &stderr)
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Fatalf("stderr %q lacks %q", &stderr, tc.stderr)
			}
		})
	}
	if got, err := bench.ReadFile(fresh); err != nil || len(got.Results) != 2 {
		t.Fatalf("failing run did not leave its -out report behind: %v, %+v", err, got)
	}
}
