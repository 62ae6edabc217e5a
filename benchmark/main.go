// Package main is the repository's benchmark: it drives internal/engine the
// way a user does (New, Submit, Step..., Report), times set-up and every
// steady-state epoch from outside on six named workloads, and in a second,
// traced pass attributes time to each layer with spans and direct probes.
// See README.md in this directory; BENCHMARK.json at the repository root
// lists the metrics and workloads defined here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

// runSeconds is how long one pass measures by default; BENCHMARK.json's
// run_seconds is the same number.
const runSeconds = 10

// minSetups is the least number of set-up samples behind setup_s: a pass
// that fits fewer rounds appends set-up-only repetitions.
const minSetups = 10

// tracedShare is the part of a traced pass's time given to rounds; the
// probes take roughly the rest.
const tracedShare = 0.5

// Pass selection for -trace.
const (
	bothPasses = iota - 1
	untracedPass
	tracedPass
)

// result is everything one workload reported.
type result struct {
	Workload  string   `json:"workload"`
	Workers   int      `json:"workers"`
	Rounds    int      `json:"rounds"`
	EndToEnd  metrics  `json:"end_to_end,omitempty"`
	PerLayer  metrics  `json:"per_layer,omitempty"`
	Attempted int      `json:"ops_attempted"`
	Failed    int      `json:"ops_failed"`
	Notes     []string `json:"failures,omitempty"`
	Trace     string   `json:"trace_file,omitempty"`
}

// runWorkload measures one workload: the untraced pass gives the end-to-end
// metrics, the traced pass the per-layer ones and the trace file.
func runWorkload(s spec, seed uint64, ef effort, which int, outDir string) result {
	in := newInputs(s, seed)
	res := result{Workload: s.name, Workers: s.workers}
	add := func(p *pass) {
		res.Rounds += len(p.rounds)
		res.Attempted += p.ops.attempted
		res.Failed += p.ops.failed
		res.Notes = append(res.Notes, p.ops.notes...)
	}
	if which != tracedPass {
		p := measure(in, ef, false, 1)
		res.EndToEnd = endToEndMetrics(p).withUnits(endToEnd)
		add(p)
	}
	if which != untracedPass {
		p := measure(in, effort{seconds: ef.seconds * tracedShare}, true, 3)
		func() {
			defer func() {
				if r := recover(); r != nil {
					p.ops.fail("%s: probe panic: %v", s.name, r)
				}
			}()
			res.PerLayer = layerMetrics(p, in, seed).withUnits(perLayer)
		}()
		if path, err := p.trace.writeChrome(outDir, s.name); err != nil {
			p.ops.fail("%s: writing trace: %v", s.name, err)
		} else {
			res.Trace = path
		}
		add(p)
	}
	return res
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload (default: all six)")
	seed := fs.Uint64("seed", 1, "workload seed: every generated input derives from it")
	seconds := fs.Float64("seconds", runSeconds, "how long each pass measures")
	trace := fs.Int("trace", bothPasses, "0: untraced pass only, 1: traced pass only; either prints the result line last")
	check := fs.Bool("check", false, "run the untraced set twice and fail if they disagree beyond the bounds")
	asJSON := fs.Bool("json", false, "print the report as JSON")
	outDir := fs.String("out", defaultOut(), "directory the Chrome trace files are written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	specs := workloads()
	if *name != "" {
		specs = nil
		for _, s := range workloads() {
			if s.name == *name {
				specs = []spec{s}
			}
		}
		if specs == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
	}
	ef := effort{seconds: *seconds, minSetups: minSetups}
	if *check {
		return runCheck(specs, *seed, ef, stdout)
	}

	results := make([]result, len(specs))
	failed := 0
	for i, s := range specs {
		results[i] = runWorkload(s, *seed, ef, *trace, *outDir)
		failed += results[i].Failed
	}
	env := environment(*seed, *seconds)
	if *asJSON {
		env["workloads"] = results
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(env); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	} else {
		printReport(stdout, env, results)
	}
	if *trace != bothPasses && len(results) == 1 {
		printResultLine(stdout, results[0], *trace)
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// defaultOut is benchmark/out from the repository root, out from inside the
// benchmark directory.
func defaultOut() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return "benchmark/out"
	}
	return "out"
}

func environment(seed uint64, seconds float64) map[string]any {
	return map[string]any{
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "seed": seed, "seconds": seconds,
	}
}

// printResultLine prints the one-line machine result of a single pass: the
// end-to-end metrics of an untraced pass, the per-layer ones of a traced one.
func printResultLine(w io.Writer, r result, which int) {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, got := endToEnd, r.EndToEnd
	if which == tracedPass {
		defs, got = perLayer, r.PerLayer
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]vu{}}
	for _, d := range defs {
		v, ok := got[d.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			line.Correct = false
			continue
		}
		line.Metrics[d.name] = vu{v.Value, d.unit}
	}
	b, _ := json.Marshal(line) // plain numbers and strings: cannot fail
	fmt.Fprintln(w, string(b))
}

func printReport(w io.Writer, env map[string]any, results []result) {
	fmt.Fprintf(w, "aspen benchmark  num_cpu=%v gomaxprocs=%v go=%v seed=%v seconds=%v\n",
		env["num_cpu"], env["gomaxprocs"], env["go"], env["seed"], env["seconds"])
	for _, r := range results {
		fmt.Fprintf(w, "\n== %s  workers=%d rounds=%d ops_attempted=%d ops_failed=%d\n",
			r.Workload, r.Workers, r.Rounds, r.Attempted, r.Failed)
		for _, n := range r.Notes {
			fmt.Fprintf(w, "   FAILED: %s\n", n)
		}
		printMetrics(w, "end to end (tracing off)", endToEnd, r.EndToEnd)
		printMetrics(w, "per layer (traced pass and probes)", perLayer, r.PerLayer)
		if r.Trace != "" {
			fmt.Fprintf(w, "   trace: %s\n", r.Trace)
		}
	}
}

func printMetrics(w io.Writer, title string, defs []def, got metrics) {
	if got == nil {
		return
	}
	fmt.Fprintf(w, "   %s\n", title)
	for _, d := range defs {
		v, ok := got[d.name]
		if !ok {
			fmt.Fprintf(w, "     %-34s missing\n", d.name)
			continue
		}
		var extra []string
		if v.N > 0 {
			extra = append(extra, fmt.Sprintf("n=%d", v.N))
		}
		if d.bound > 0 {
			extra = append(extra, fmt.Sprintf("%s is better, bound %.0f%%", d.better, d.bound*100))
		}
		if v.Note != "" {
			extra = append(extra, v.Note)
		}
		fmt.Fprintf(w, "     %-34s %14.6g %-6s %s\n", d.name, v.Value, d.unit, strings.Join(extra, "; "))
	}
}

// runCheck is the repeatability self-check: the untraced set twice, back to
// back. It fails when an end-to-end metric got worse from the first run to
// the second by more than its bound, or a sim_* metric differs at all, and
// prints the observed difference beside each bound so the bounds can be
// audited.
func runCheck(specs []spec, seed uint64, ef effort, w io.Writer) int {
	bad := 0
	for _, s := range specs {
		a := runWorkload(s, seed, ef, untracedPass, "")
		b := runWorkload(s, seed, ef, untracedPass, "")
		fmt.Fprintf(w, "== %s  ops_failed=%d,%d\n", s.name, a.Failed, b.Failed)
		bad += a.Failed + b.Failed
		for _, d := range endToEnd {
			x, y := a.EndToEnd[d.name].Value, b.EndToEnd[d.name].Value
			diff := math.Abs(y-x) / math.Abs(x)
			verdict := "ok"
			if strings.HasPrefix(d.name, "sim_") {
				if x != y {
					verdict = "FAIL: simulated metric differs"
				}
			} else if diff > d.bound {
				verdict = "FAIL: beyond bound"
			}
			if verdict != "ok" {
				bad++
			}
			fmt.Fprintf(w, "   %-26s %14.6g %14.6g %-6s diff %6.2f%%  bound %4.0f%%  %s\n",
				d.name, x, y, d.unit, diff*100, d.bound*100, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "check FAILED: %d\n", bad)
		return 1
	}
	fmt.Fprintln(w, "check ok")
	return 0
}
