// Command aspen-bench is the behaviour-drift gate. It runs the repo's
// named, seeded scenarios once each, holds every scenario's deterministic
// checksum and simulated traffic against the committed expectation file,
// holds the two deployment-scale scenarios' live heap against their
// committed ceilings, and exits 1 if anything moved. It measures no time:
// wall-clock, allocation and heap numbers come from benchmark/
// (`bash benchmark/run.sh`).
//
// Usage:
//
//	aspen-bench                          # the gate: all scenarios vs BENCH_engine.json
//	aspen-bench -run engine-16,transfer  # a subset (unselected scenarios are not "missing")
//	aspen-bench -compare other.json      # a different expectation file
//	aspen-bench -out fresh.json          # also write what this run produced
//	aspen-bench -list                    # scenario names and descriptions
//
// Nothing is written unless -out is given. To re-record after a deliberate
// behaviour change, run with -out BENCH_engine.json: the run still exits 1,
// listing what moved, and the file's diff is the review artefact.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() { os.Exit(gate(os.Args[1:], os.Stdout, os.Stderr)) }

// gate is the whole command; it returns the process exit code.
func gate(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aspen-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		run     = fs.String("run", "", "comma-separated scenario names (default: all)")
		list    = fs.Bool("list", false, "list scenarios and exit")
		compare = fs.String("compare", "BENCH_engine.json", "expectation file to gate against")
		out     = fs.String("out", "", "also write this run's report here ('' = write nothing)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "error:", err)
		return 1
	}

	if *list {
		for _, s := range bench.Scenarios() {
			fmt.Fprintf(stdout, "%-14s %s\n", s.Name, s.Desc)
		}
		return 0
	}

	names := strings.FieldsFunc(*run, func(r rune) bool { return r == ',' || r == ' ' })
	want, err := bench.ReadFile(*compare)
	if err != nil {
		return fatal(err)
	}
	got, err := bench.Run(names)
	if err != nil {
		return fatal(err)
	}

	fmt.Fprintf(stdout, "%-14s %16s %24s\n", "scenario", "traffic bytes", "checksum")
	for _, r := range got.Results {
		fmt.Fprintf(stdout, "%-14s %16d %24.6f\n", r.Name, r.TrafficBytesPerOp, r.Checksum)
		if r.HeapCeiling > 0 {
			fmt.Fprintf(stdout, "%-14s live heap %.1f MB (ceiling %.1f MB)\n",
				"", float64(r.HeapBytes)/(1<<20), float64(r.HeapCeiling)/(1<<20))
		}
	}

	// Written before the verdict so a failing run leaves the report behind
	// for inspection (CI uploads it).
	if *out != "" {
		if err := got.WriteFile(*out); err != nil {
			return fatal(err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *out)
	}

	if fails := bench.Compare(want, got, len(names) == 0); len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(stderr, "FAIL", f)
		}
		fmt.Fprintf(stderr, "%d failure(s) against %s\n", len(fails), *compare)
		return 1
	}
	fmt.Fprintf(stdout, "ok: %d scenario(s) match %s\n", len(got.Results), *compare)
	return 0
}
