// Command aspen-engine runs a mixed multi-query workload — many continuous
// queries over ONE shared sensor deployment — and reports per-query and
// aggregate traffic, separating the shared infrastructure cost (routing
// trees, index dissemination; charged once per network) from each query's
// own initiation/data/result traffic. With -baseline it also runs every
// query alone on its own deployment and prints the traffic-sharing win.
//
// Usage:
//
//	aspen-engine                          # built-in 4-query demo workload
//	aspen-engine -f workload.sql -epochs 200 -topo dense
//	aspen-engine -v                       # stream per-epoch progress
//
// The workload-file format (-f) is documented in one place, the -h text:
//
//	aspen-engine -h
package main

import (
	_ "embed"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	aspen "repro"
)

// demoWorkload is the built-in mixed workload: four concurrent SQL queries
// with staggered admissions over one deployment.
//
//go:embed demo.sql
var demoWorkload string

func main() {
	var (
		file     = flag.String("f", "", "workload file (default: built-in 4-query demo)")
		topo     = flag.String("topo", "moderate", "topology: sparse|moderate|medium|dense|grid|intel")
		nodes    = flag.Int("nodes", 100, "node count (ignored for intel)")
		trees    = flag.Int("trees", 3, "routing trees in the shared substrate")
		epochs   = flag.Int("epochs", 100, "scheduler epochs (sampling cycles) to run")
		workers  = flag.Int("workers", 1, "goroutines stepping live queries per epoch (1 = sequential, -1 = all cores; output is byte-identical at any setting)")
		adapt    = flag.Bool("adapt", false, "enable section-6 learning for every query (its only switch): re-estimate selectivities each epoch and migrate join windows on >=33% divergence")
		loss     = flag.Float64("loss", -1, "uniform per-hop loss probability (default: the engine's 5%; 0 = lossless)")
		maxRetry = flag.Int("max-retries", 0, "per-hop retransmission bound for every traffic class (0 = engine default of 3, negative = no retries)")
		seed     = flag.Uint64("seed", 1, "engine seed")
		baseline = flag.Bool("baseline", true, "also run each query alone and report the sharing win")
		verbose  = flag.Bool("v", false, "stream per-epoch admissions/retirements/results to stderr")
		addr     = flag.String("metrics-addr", "", "serve live introspection endpoints on this address while the run executes (/metricz, /debug/vars, /debug/pprof/)")
		trace    = flag.String("trace", "", "write the epoch trace to this file after the run (Chrome trace_event JSON; a .jsonl suffix selects JSONL)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), `aspen-engine: run a mixed multi-query workload over ONE shared deployment.

Shared infrastructure traffic (routing trees, index dissemination) is
charged once per network; each query's initiation/data/result traffic is
accounted on its own stream. Reports per-query and aggregate bytes/node.

usage: aspen-engine [flags]

flags:
`)
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), `
workload file format (-f): query blocks separated by blank lines. Lines
starting with "#" are skipped, lines starting with "--" are directives,
and the rest is one StreamSQL statement (trailing ";" optional).
Directives:

  -- id: <label>           report label (default q<n>)
  -- alg: <algorithm>      Naive|Base|Yang+07|GHT|DHT|Innet|Innet-cm|
                           Innet-cmg|Innet-cmpg (default Innet-cmg);
                           learning is no algorithm: -adapt switches it
                           on for every query
  -- query: <Q0..Q3>       run a built-in Table 2 query instead of SQL
  -- pairs: <n>            Q0 random pair count
  -- cycles: <n>           lifetime in epochs (default: whole run)
  -- admit: <epoch>        admission epoch (default 0)
  -- sigma-s: <f>          producer send probability for S (likewise
                           sigma-t, sigma-st)

deployment churn directives (allowed in any block, or a block of their
own; collected into one engine-wide schedule):

  -- fail: <node> @ <epoch>     fail a node at an epoch
  -- revive: <node> @ <epoch>   revive it again later
  -- churn: <rate> @ <seed>     seeded random churn (per-epoch fail
                                probability; @ <seed> optional)

deployment fault directives (same scoping; build one link-fault plan):

  -- loss: <rate> [@ <seed>]    heterogeneous per-link loss layer
  -- link-fail: <rate> [@ <n>]  per-epoch link failures (revive after n)
  -- partition: [bisect|region <k> @] <from>..<until>
                                cut the field in two for epochs from..until

example block:

  -- id: left-right
  -- alg: Innet-cmg
  -- admit: 10
  SELECT S.id, T.id
  FROM S, T [windowsize=3 sampleinterval=100]
  WHERE S.id < 25 AND T.id > 50 AND S.x = T.y + 5 AND S.u = T.u;

With no -f, a built-in 4-query demo workload runs.
`)
	}
	flag.Parse()

	src := demoWorkload
	if *file != "" {
		data, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		src = string(data)
	}
	w, err := aspen.ParseWorkload(src)
	if err != nil {
		fatal(err)
	}
	if len(w.Jobs) == 0 {
		fatal(fmt.Errorf("workload contains no queries"))
	}

	cfg, err := w.Config(aspen.EngineConfig{
		Topology:   aspen.TopologyKind(*topo),
		Nodes:      *nodes,
		Trees:      *trees,
		Seed:       *seed,
		MaxRetries: *maxRetry,
		Adapt:      *adapt,
		Workers:    *workers,
		Metrics:    *addr != "",
		Trace:      *trace != "",
	}, *epochs)
	if err != nil {
		fatal(err)
	}
	if *loss >= 0 {
		cfg.LossProb = loss
	}

	// Per-epoch progress goes to STDERR: stdout carries only the final
	// report, so `aspen-engine -v | tee report.txt` and downstream parsers
	// see a clean machine-readable document.
	var progress io.Writer
	if *verbose {
		progress = os.Stderr
	}
	e, err := buildEngine(cfg, w.Jobs, progress)
	if err != nil {
		fatal(err)
	}
	if *addr != "" {
		ln, err := serveMetrics(*addr, e)
		if err != nil {
			fatal(err)
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "serving metrics on http://%s/metricz (also /debug/vars, /debug/pprof/)\n", ln.Addr())
	}
	rep, err := e.Run(*epochs)
	if err != nil {
		fatal(err)
	}
	if *trace != "" {
		if err := writeTraceFile(e, *trace); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", *trace)
	}

	fmt.Printf("aspen-engine — %d queries over one %s deployment (%d nodes, %d epochs)\n\n",
		len(w.Jobs), *topo, rep.Nodes, rep.Epochs)
	fmt.Printf("%-14s %-11s %-8s %10s %12s %12s %8s %8s\n",
		"query", "algorithm", "state", "live", "traffic KB", "KB/node", "results", "delay")
	for _, q := range rep.Queries {
		live := fmt.Sprintf("%d..%d", q.AdmitEpoch, q.RetireEpoch)
		if q.AdmitEpoch < 0 {
			live = "-"
		}
		fmt.Printf("%-14s %-11s %-8s %10s %12.1f %12.3f %8d %8.2f\n",
			q.ID, q.Algorithm, q.State, live,
			float64(q.TotalBytes)/1024, q.BytesPerNode/1024, q.Results, q.MeanDelay)
	}
	fmt.Printf("\nshared infrastructure  %8.1f KB   (routing trees + index dissemination + repair, charged once)\n",
		float64(rep.SharedBytes)/1024)
	fmt.Printf("per-query traffic      %8.1f KB\n", float64(rep.QueryBytes)/1024)
	fmt.Printf("aggregate              %8.1f KB   (%.3f KB/node, %d results)\n",
		float64(rep.AggregateBytes)/1024, rep.AggregateBytesPerNode/1024, rep.Results)
	if rep.FailedNodes > 0 {
		fmt.Printf("node churn             %d failed, %d paths repaired in-network, %d base fallbacks, %d trees rebuilt\n",
			rep.FailedNodes, rep.PathsRepaired, rep.BaseFallbacks, rep.TreesRebuilt)
	}
	if rep.ResultsLost > 0 || rep.LinkRerouted > 0 || rep.LinkFallbacks > 0 || rep.PartitionEpochs > 0 {
		fmt.Printf("link faults            %d result(s) lost, %d path(s) rerouted, %d base fallback(s), %d partition epoch(s)\n",
			rep.ResultsLost, rep.LinkRerouted, rep.LinkFallbacks, rep.PartitionEpochs)
	}
	if *adapt {
		fmt.Printf("adaptivity             %d window migration(s), %d aborted to base\n",
			rep.Migrations, rep.MigrationsAborted)
	}

	if *baseline {
		// Baselines measure traffic only: no per-run metrics or tracing.
		cfgBase := cfg
		cfgBase.Metrics, cfgBase.Trace = false, false
		var sum int64
		for i, job := range w.Jobs {
			one, err := runAll(cfgBase, w.Jobs[i:i+1], *epochs, nil)
			if err != nil {
				fatal(fmt.Errorf("baseline %s: %w", job.ID, err))
			}
			sum += one.AggregateBytes
		}
		fmt.Printf("\nunshared baseline      %8.1f KB   (each query on its own deployment)\n",
			float64(sum)/1024)
		fmt.Printf("sharing saved          %8.1f KB   (%.1f%%)\n",
			float64(sum-rep.AggregateBytes)/1024,
			100*(1-float64(rep.AggregateBytes)/float64(sum)))
	}
}

// buildEngine constructs an engine and submits jobs. When progress is
// non-nil, per-epoch admissions/failures/results/retirements stream to it
// (main passes os.Stderr so stdout stays a clean report).
func buildEngine(cfg aspen.EngineConfig, jobs []aspen.QueryJob, progress io.Writer) (*aspen.Engine, error) {
	e, err := aspen.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	for _, job := range jobs {
		if _, err := e.Submit(job); err != nil {
			return nil, err
		}
	}
	if progress != nil {
		e.OnEpoch(func(s aspen.EpochStats) {
			for _, id := range s.Admitted {
				fmt.Fprintf(progress, "epoch %4d  + %s admitted (%d live)\n", s.Epoch, id, s.Live)
			}
			for _, id := range s.Failed {
				fmt.Fprintf(progress, "epoch %4d  ! node %d failed\n", s.Epoch, id)
			}
			if s.Repaired > 0 || s.Fallbacks > 0 {
				fmt.Fprintf(progress, "epoch %4d    recovery: %d path(s) repaired, %d base fallback(s)\n",
					s.Epoch, s.Repaired, s.Fallbacks)
			}
			if s.Migrations > 0 || s.MigrationsAborted > 0 {
				fmt.Fprintf(progress, "epoch %4d    adaptivity: %d window migration(s), %d aborted to base\n",
					s.Epoch, s.Migrations, s.MigrationsAborted)
			}
			if s.LinkRerouted > 0 || s.LinkFallbacks > 0 {
				fmt.Fprintf(progress, "epoch %4d    link faults: %d path(s) rerouted, %d base fallback(s)\n",
					s.Epoch, s.LinkRerouted, s.LinkFallbacks)
			}
			if s.ResultsLost > 0 {
				fmt.Fprintf(progress, "epoch %4d    %d result(s) lost to link faults\n", s.Epoch, s.ResultsLost)
			}
			ids := make([]string, 0, len(s.NewResults))
			for id := range s.NewResults {
				ids = append(ids, id)
			}
			sort.Strings(ids)
			for _, id := range ids {
				fmt.Fprintf(progress, "epoch %4d    %s delivered %d result(s)\n", s.Epoch, id, s.NewResults[id])
			}
			for _, id := range s.Retired {
				fmt.Fprintf(progress, "epoch %4d  - %s retired\n", s.Epoch, id)
			}
		})
	}
	return e, nil
}

// runAll builds an engine, submits jobs, and runs it.
func runAll(cfg aspen.EngineConfig, jobs []aspen.QueryJob, epochs int, progress io.Writer) (*aspen.EngineReport, error) {
	e, err := buildEngine(cfg, jobs, progress)
	if err != nil {
		return nil, err
	}
	return e.Run(epochs)
}

// writeTraceFile exports the engine's epoch trace: Chrome trace_event JSON
// by default, JSONL when the path ends in .jsonl.
func writeTraceFile(e *aspen.Engine, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".jsonl") {
		err = e.WriteTraceJSONL(f)
	} else {
		err = e.WriteTrace(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
